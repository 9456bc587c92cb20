import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import leaf, random_model, small_config, split
from physioshap.errors import DegenerateLabelsError, InvalidArgumentError, SchemaMismatchError
from physioshap.gbdt import (
    GbdtModel,
    SearchSpace,
    TrainConfig,
    _best_split,
    binary_logloss,
    fit,
    goss_sample,
    grow_tree,
    inner_holdout_split,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_margin,
    random_search,
    save_model,
    sigmoid,
    train,
    tree_from_dict,
    tree_to_dict,
)
from reference import best_split_reference


class TestGossSample:
    def test_full_sample_degenerate(self, rng):
        g = rng.normal(size=50)
        idx, w = goss_sample(g, 1.0, 0.0, 0)
        np.testing.assert_array_equal(idx, np.arange(50))
        np.testing.assert_array_equal(w, np.ones(50))

    def test_full_sample_leaves_generator_untouched(self, rng):
        # train calls goss_sample every round, so a = 1 must not draw from the round's generator
        g = rng.normal(size=50)
        gen = np.random.default_rng(11)
        before = gen.bit_generator.state
        idx, w = goss_sample(g, 1.0, 0.0, gen)
        np.testing.assert_array_equal(idx, np.arange(50))
        np.testing.assert_array_equal(w, np.ones(50))
        assert gen.bit_generator.state == before

    def test_small_gradient_weights(self, rng):
        g = rng.normal(size=1000)
        idx, w = goss_sample(g, 0.2, 0.1, 3)
        assert idx.size == 300
        top = np.argsort(-np.abs(g), kind="stable")[:200]
        top_w = w[np.isin(idx, top)]
        rest_w = w[~np.isin(idx, top)]
        np.testing.assert_array_equal(top_w, 1.0)
        np.testing.assert_allclose(rest_w, (1 - 0.2) / 0.1)

    def test_deterministic(self, rng):
        g = rng.normal(size=200)
        a = goss_sample(g, 0.3, 0.2, 7)
        b = goss_sample(g, 0.3, 0.2, 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_unbiased_weighted_gradient_sum(self):
        rng = np.random.default_rng(0)
        g = rng.normal(0.5, 1.0, size=1000)
        exact = g.sum()
        sums = []
        for seed in range(1000):
            idx, w = goss_sample(g, 0.2, 0.1, seed)
            sums.append(float((w * g[idx]).sum()))
        assert abs(np.mean(sums) - exact) / abs(exact) < 0.02

    def test_invalid_rates(self, rng):
        g = rng.normal(size=10)
        with pytest.raises(InvalidArgumentError):
            goss_sample(g, 0.0, 0.1, 0)
        with pytest.raises(InvalidArgumentError):
            goss_sample(g, 0.5, 0.6, 0)


class TestGrowTree:
    def test_no_positive_gain_single_leaf(self):
        # one constant feature: no valid split exists
        X = np.ones((20, 1))
        g = np.full(20, 0.4)
        h = np.full(20, 0.24)
        tree = grow_tree(X, g, h, np.ones(20), small_config(), 0)
        assert tree.children_left.tolist() == [-1]
        assert tree.value[0] == pytest.approx(-g.sum() / h.sum())

    def test_separable_split_matches_hand_enumeration(self, rng):
        x = np.sort(rng.normal(size=60))
        y = (x >= 0).astype(float)
        if y.sum() < 2 or y.sum() > 58:
            y[:2] = 0.0
            y[-2:] = 1.0
        prior = y.mean()
        base = math.log(prior / (1 - prior))
        p = sigmoid(np.full(60, base))
        g = p - y
        h = p * (1 - p)
        cfg = small_config(num_leaves=2, min_data_in_leaf=1)
        tree = grow_tree(x[:, None], g, h, np.ones(60), cfg, 0)
        ref_thr, _ = best_split_reference(x, y, base)
        assert tree.children_left[0] >= 0
        assert tree.threshold[0] == pytest.approx(ref_thr)
        lo = x[y == 0].max()
        hi = x[y == 1].min()
        assert lo < tree.threshold[0] < hi

    def test_single_leaf_budget(self, rng):
        X = rng.normal(size=(40, 3))
        g = rng.normal(size=40)
        h = np.full(40, 0.25)
        tree = grow_tree(X, g, h, np.ones(40), small_config(num_leaves=1), 0)
        assert tree.children_left.tolist() == [-1]

    def test_budgets_respected(self, rng):
        for _ in range(10):
            X = rng.normal(size=(120, 5))
            g = rng.normal(size=120)
            h = np.full(120, 0.25)
            leaves = int(rng.integers(2, 9))
            depth = int(rng.integers(1, 5))
            cfg = small_config(num_leaves=leaves, max_depth=depth, min_data_in_leaf=3)
            tree = grow_tree(X, g, h, np.ones(120), cfg, int(rng.integers(100)))
            assert (tree.children_left < 0).sum() <= leaves
            assert _depths(tree).max() <= depth

    def test_cover_additivity(self, rng):
        X = rng.normal(size=(100, 4))
        g = rng.normal(size=100)
        h = np.full(100, 0.25)
        w = rng.uniform(0.5, 2.0, size=100)
        tree = grow_tree(X, g, h, w, small_config(num_leaves=8, min_data_in_leaf=4), 1)
        assert tree.cover[0] == pytest.approx(w.sum(), abs=1e-9)
        internal = tree.children_left >= 0
        assert internal.any()
        children = tree.cover[tree.children_left[internal]] + tree.cover[tree.children_right[internal]]
        np.testing.assert_allclose(tree.cover[internal], children, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("feature_fraction", [1.0, 0.5])
    def test_given_order_grows_the_sorted_tree(self, rng, feature_fraction):
        # quantized columns, so that most sorted positions are ties
        X = rng.integers(0, 4, size=(90, 6)).astype(float)
        X[:, 5] = X[:, 1]
        g = rng.normal(size=90)
        h = rng.uniform(0.1, 0.25, size=90)
        w = rng.choice([1.0, 4.0], size=90)
        cfg = small_config(num_leaves=12, max_depth=6, min_data_in_leaf=5, feature_fraction=feature_fraction)
        presort = np.argsort(X, axis=0, kind="stable").T
        sorted_here = grow_tree(X, g, h, w, cfg, 7)
        given = grow_tree(X, g, h, w, cfg, 7, order=presort)
        assert (sorted_here.children_left >= 0).sum() >= 4
        assert json.dumps(tree_to_dict(given)) == json.dumps(tree_to_dict(sorted_here))

    def test_order_of_the_wrong_shape_is_refused(self, rng):
        X = rng.normal(size=(30, 3))
        g = rng.normal(size=30)
        h = np.full(30, 0.25)
        with pytest.raises(InvalidArgumentError, match="order must have shape"):
            grow_tree(X, g, h, np.ones(30), small_config(), 0, order=np.argsort(X, axis=0))


def _leaf_search(x, g, min_data, lam=0.0):
    """_best_split on one presorted column of leaf rows with unit hessians."""
    order = np.argsort(x, kind="stable")[None, :]
    return _best_split(x[order], order, g, np.ones(x.size), min_data, lam)


class TestBestSplit:
    def test_leaf_of_exactly_twice_min_data_splits_in_the_middle(self):
        # 2 * min_data rows leave one admissible split: min_data rows each side
        min_data = 4
        x = np.arange(8.0)
        g = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        gain, column, threshold = _leaf_search(x, g, min_data)
        assert (column, threshold) == (0, 3.5)
        assert gain == pytest.approx(4**2 / 4 + 4**2 / 4 - 0.0)

    def test_leaf_of_exactly_twice_min_data_is_not_split_at_a_tie(self):
        # the only admissible position sits between two equal values
        x = np.array([0.0, 1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 7.0])
        g = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        assert _leaf_search(x, g, 4) is None
        assert _leaf_search(x, g, 3) is not None

    def test_leaf_below_twice_min_data_is_not_split(self):
        x = np.arange(7.0)
        assert _leaf_search(x, np.where(x < 3, -1.0, 1.0), 4) is None

    def test_all_tied_column_has_no_split(self):
        g = np.array([-1.0, 2.0, -3.0, 4.0, -5.0, 6.0])
        assert _leaf_search(np.full(6, 2.5), g, 1) is None

    def test_all_tied_column_loses_to_any_other(self):
        x = np.stack([np.full(6, 2.5), np.arange(6.0)])
        g = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        order = np.argsort(x, axis=1, kind="stable")
        xs = np.take_along_axis(x, order, axis=1)
        _, column, threshold = _best_split(xs, order, g, np.ones(6), 1, 0.0)
        assert (column, threshold) == (1, 2.5)


class TestTrain:
    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(30, 2))
        with pytest.raises(DegenerateLabelsError):
            train(X, np.ones(30), None, small_config())
        with pytest.raises(DegenerateLabelsError):
            train(X, np.zeros(30), None, small_config())

    def test_near_constant_target_converges(self, rng):
        X = rng.normal(size=(200, 3))
        y = np.ones(200)
        y[:2] = 0.0
        cfg = small_config(learning_rate=0.1, max_rounds=60)
        model = train(X, y, None, cfg)
        margins = predict_margin(model, X)
        assert sigmoid(margins)[y == 1].mean() > 0.97
        losses = _per_round_losses(model, X, y)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_and_of_binary_features(self, rng):
        X = rng.integers(0, 2, size=(200, 2)).astype(float)
        y = (X[:, 0].astype(bool) & X[:, 1].astype(bool)).astype(float)
        cfg = small_config(learning_rate=0.3, max_rounds=50, num_leaves=4, min_data_in_leaf=5)
        model = train(X, y, None, cfg)
        pred = (predict_margin(model, X) > 0).astype(float)
        assert (pred == y).all()
        # exhaustive truth table
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                margin, prob = predict(model, np.array([a, b]))
                assert (prob > 0.5) == bool(a and b)

    def test_logloss_non_increasing_battery(self, rng):
        for _ in range(5):
            X = rng.normal(size=(120, 4))
            w = rng.normal(size=4)
            y = (X @ w > 0).astype(float)
            if y.sum() < 2 or y.sum() > 118:
                y[:2], y[2:4] = 1.0, 0.0
            cfg = small_config(learning_rate=0.1, goss_a=1.0, goss_b=0.0, max_rounds=20)
            model = train(X, y, None, cfg)
            losses = _per_round_losses(model, X, y)
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stop_on_uninformative_validation(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200).astype(float)
        Xv = rng.normal(size=(60, 3))
        yv = rng.integers(0, 2, size=60).astype(float)
        cfg = small_config(learning_rate=0.3, max_rounds=500, early_stop=10)
        model = train(X, y, (Xv, yv), cfg)
        assert len(model.trees) < 500
        assert model.best_iteration < len(model.trees)

    def test_bit_deterministic(self, rng):
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] > 0).astype(float)
        cfg = small_config(goss_a=1.0, goss_b=0.0, feature_fraction=1.0, seed=13, max_rounds=8)
        a = model_to_dict(train(X, y, None, cfg))
        b = model_to_dict(train(X, y, None, cfg))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestPredict:
    def test_empty_ensemble_prior_only(self):
        model = GbdtModel([], 0.1, 0.85, ("f0",), 0)
        margin, prob = predict(model, np.array([1.0]))
        assert margin == pytest.approx(0.85)
        assert prob == pytest.approx(1 / (1 + math.exp(-0.85)))

    def test_zero_margin_half(self):
        model = GbdtModel([], 0.1, 0.0, ("f0",), 0)
        _, prob = predict(model, np.array([0.0]))
        assert prob == pytest.approx(0.5)

    def test_hand_built_single_split(self):
        tree = tree_from_dict(split(0, 0.5, leaf(-2.0, 3.0), leaf(4.0, 1.0)), 1)
        model = GbdtModel([tree], 0.3, 0.1, ("f0",), 1)
        margin, _ = predict(model, np.array([0.2]))
        assert margin == pytest.approx(0.1 + 0.3 * -2.0)
        margin, _ = predict(model, np.array([0.9]))
        assert margin == pytest.approx(0.1 + 0.3 * 4.0)

    def test_dimension_mismatch(self):
        model = GbdtModel([], 0.1, 0.0, ("f0", "f1"), 0)
        with pytest.raises(InvalidArgumentError):
            predict(model, np.array([1.0]))


class _TwoPointSpace:
    """Search space with exactly two candidate learning rates."""

    def sample(self, rng, seed):
        lr = float(rng.choice([0.02, 0.3]))
        return small_config(learning_rate=lr, max_rounds=20, seed=seed)


class TestRandomSearch:
    @staticmethod
    def _data(rng):
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=120) > 0).astype(float)
        groups = np.repeat(np.arange(6), 20)
        return X, y, groups

    def test_single_iteration_returns_sampled(self, rng):
        X, y, groups = self._data(rng)
        cfg, model = fit(X, y, groups, 4, search_budget=1)
        assert isinstance(cfg, TrainConfig)
        assert isinstance(model, GbdtModel)

    def test_deterministic(self, rng):
        X, y, groups = self._data(rng)
        a, model_a = fit(X, y, groups, 11, search_budget=5)
        b, model_b = fit(X, y, groups, 11, search_budget=5)
        assert a == b
        assert model_to_dict(model_a) == model_to_dict(model_b)

    def test_planted_optimum_matches_grid(self, rng):
        X, y, groups = self._data(rng)
        space = _TwoPointSpace()
        chosen, _ = fit(X, y, groups, 2, search_budget=8, space=space)
        # exhaustive oracle over the two candidate rates with the same split
        tr_mask, va_mask = inner_holdout_split(groups, 2)
        best_lr, best_loss = None, math.inf
        for lr in (0.02, 0.3):
            cfg = small_config(learning_rate=lr, max_rounds=20, seed=chosen.seed)
            model = train(X[tr_mask], y[tr_mask], (X[va_mask], y[va_mask]), cfg)
            loss = binary_logloss(y[va_mask], predict_margin(model, X[va_mask]))
            if loss < best_loss:
                best_loss, best_lr = loss, lr
        assert chosen.learning_rate == best_lr

    def test_infeasible_groups_rejected(self, rng):
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(float)
        with pytest.raises(InvalidArgumentError):
            fit(X, y, np.zeros(20), 0, search_budget=1)

    def test_search_model_is_the_winner_trained_on_the_holdout(self, rng):
        # fit returns the model the search trained, so it need not train
        # the winner again: a second fit of it gives the same model
        X, y, groups = self._data(rng)
        names = ("a", "b", "c", "d")
        chosen, model = fit(X, y, groups, 7, search_budget=3, feature_names=names)
        tr_mask, va_mask = inner_holdout_split(groups, 7)
        again = train(X[tr_mask], y[tr_mask], (X[va_mask], y[va_mask]), chosen, names)
        assert model_to_dict(model) == model_to_dict(again)
        assert random_search(
            X[tr_mask], y[tr_mask], (X[va_mask], y[va_mask]), iterations=3, seed=7
        )[0] == chosen

    def test_budget_zero_trains_the_base_under_the_given_seed(self, rng):
        X, y, groups = self._data(rng)
        base = small_config(seed=123)
        cfg, model = fit(X, y, groups, 5, space=SearchSpace(base=base))
        assert cfg == replace(base, seed=5)
        tr_mask, va_mask = inner_holdout_split(groups, 5)
        expected = train(X[tr_mask], y[tr_mask], (X[va_mask], y[va_mask]), cfg)
        assert model_to_dict(model) == model_to_dict(expected)
        # a given config is trained as it is, whatever the budget
        assert fit(X, y, groups, 5, search_budget=3, config=base)[0] == base


def _model_text(split_feature=0, best_iteration=1):
    """A saved two-feature model of one stump."""
    tree = split(split_feature, 0.5, leaf(-1.0, 1.0), leaf(1.0, 1.0))
    return json.dumps({
        "format": "physioshap-gbdt", "version": 1, "learning_rate": 0.1, "base_score": 0.0,
        "feature_names": ["f0", "f1"], "best_iteration": best_iteration, "trees": [tree],
    })


def _depths(tree):
    """Depth of every node; children follow their parent in the arrays."""
    depth = np.zeros(tree.value.size, dtype=int)
    for i in np.flatnonzero(tree.children_left >= 0):
        depth[[tree.children_left[i], tree.children_right[i]]] = depth[i] + 1
    return depth


def _preorder(tree, node=0):
    if tree.children_left[node] < 0:
        return [node]
    return [node] + _preorder(tree, tree.children_left[node]) + _preorder(tree, tree.children_right[node])


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] > 0).astype(float)
        model = train(X, y, None, small_config(max_rounds=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(predict_margin(loaded, X), predict_margin(model, X))
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_rejects_foreign_document(self):
        with pytest.raises(InvalidArgumentError):
            model_from_dict({"format": "something-else"})

    def test_tree_codec_round_trip(self, rng, tmp_path):
        for _ in range(5):
            model, _ = random_model(rng)
            for tree in model.trees:
                back = tree_from_dict(tree_to_dict(tree), model.n_features)
                # grown trees number nodes in creation order, decoded ones in preorder
                order = _preorder(tree)
                for column in ("feature", "threshold", "value", "cover"):
                    np.testing.assert_array_equal(getattr(back, column), getattr(tree, column)[order])
                new_index = np.empty(len(order), dtype=np.int64)
                new_index[order] = np.arange(len(order))
                for column in ("children_left", "children_right"):
                    old = getattr(tree, column)[order]
                    expected = np.where(old < 0, -1, new_index[np.maximum(old, 0)])
                    np.testing.assert_array_equal(getattr(back, column), expected)
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes()
        # the bounds the loader enforces are inclusive where they should be
        path = tmp_path / "edge.json"
        path.write_text(_model_text(split_feature=1, best_iteration=0))
        assert load_model(path).best_iteration == 0

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "physioshap-gbdt"}', '{"format": "something-else"}', "not json", "[]",
            _model_text(split_feature=-1), _model_text(split_feature=5), _model_text(best_iteration=7),
        ],
    )
    def test_load_rejects_malformed_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(SchemaMismatchError, match="model.json"):
            load_model(path)


def _per_round_losses(model, X, y):
    margins = np.full(X.shape[0], model.base_score)
    losses = [binary_logloss(y, margins)]
    for flat in model.trees:
        margins = margins + model.learning_rate * flat.predict(X)
        losses.append(binary_logloss(y, margins))
    return losses


def test_search_space_samples_inside_ranges(rng):
    space = SearchSpace()
    for i in range(50):
        cfg = space.sample(rng, i)
        assert 0.01 <= cfg.learning_rate <= 0.5
        assert 0.0 < cfg.feature_fraction <= 1.0
        assert 5 <= cfg.num_leaves <= 20
        assert 10 <= cfg.min_data_in_leaf <= 100
        assert 5 <= cfg.max_depth <= 20


def test_flat_tree_predict_matches_node_walk(rng):
    X = rng.normal(size=(60, 4))
    g = rng.normal(size=60)
    h = np.full(60, 0.25)
    tree = grow_tree(X, g, h, np.ones(60), small_config(num_leaves=8, min_data_in_leaf=2), 3)
    nested = tree_to_dict(tree)

    def walk(node, x):
        while "value" not in node:
            node = node["left"] if x[node["split_feature"]] <= node["threshold"] else node["right"]
        return node["value"]

    for i in range(60):
        assert tree.predict(X[i : i + 1])[0] == walk(nested, X[i])
