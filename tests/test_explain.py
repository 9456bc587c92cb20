import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import leaf, random_model, small_config, split
from physioshap.errors import InvalidArgumentError, ModelIncompatibleError
from physioshap.explain import (
    ImportanceRanking,
    ShapExplanation,
    expected_margin,
    global_importance,
    select_features,
    shap_interactions,
    shap_values_batch,
)
from physioshap.gbdt import GbdtModel, predict_margin, train, tree_from_dict
from reference import brute_force_shapley, coalition_value, shapley_interactions_reference


def single_split_model(threshold=0.0, left=-1.0, right=2.0, cover=(3.0, 1.0), lr=0.5, base=0.2):
    tree = tree_from_dict(split(0, threshold, leaf(left, cover[0]), leaf(right, cover[1])), 2)
    return GbdtModel([tree], lr, base, ("f0", "f1"), 1)


class TestShapValues:
    def test_single_leaf_model(self):
        model = GbdtModel([tree_from_dict(leaf(1.5, 5.0), 2)], 0.4, 0.3, ("f0", "f1"), 1)
        (exp,) = shap_values_batch(model, np.array([0.0, 0.0]))
        np.testing.assert_allclose(exp.values, 0.0)
        assert exp.base_value == pytest.approx(0.3 + 0.4 * 1.5)

    def test_local_accuracy_battery(self, rng):
        for _ in range(20):
            model, X = random_model(rng)
            margins = predict_margin(model, X)
            for i, exp in zip(range(0, X.shape[0], 7), shap_values_batch(model, X[::7])):
                assert abs(exp.base_value + exp.values.sum() - margins[i]) < 1e-6

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            model, X = random_model(rng, n_features=int(rng.integers(2, 6)))
            x = X[int(rng.integers(X.shape[0]))]
            (fast,) = shap_values_batch(model, x)
            slow = brute_force_shapley(model, x)
            np.testing.assert_allclose(fast.values, slow.values, atol=1e-8)
            assert fast.base_value == pytest.approx(slow.base_value, abs=1e-10)

    def test_missing_feature_has_zero_attribution(self, rng):
        # second feature never used by the single-split tree
        model = single_split_model()
        (exp,) = shap_values_batch(model, np.array([0.7, 123.0]))
        assert exp.values[1] == 0.0

    def test_cover_required(self):
        bad = GbdtModel([tree_from_dict(leaf(1.0, 0.0), 1)], 0.1, 0.0, ("f0",), 1)
        with pytest.raises(ModelIncompatibleError):
            shap_values_batch(bad, np.array([1.0]))

    def test_dimension_check(self):
        model = single_split_model()
        with pytest.raises(InvalidArgumentError):
            shap_values_batch(model, np.array([1.0, 2.0, 3.0]))
        # a matrix wider than the model is refused too, not explained by
        # its first columns
        with pytest.raises(InvalidArgumentError):
            shap_values_batch(model, np.zeros((4, 51)))
        with pytest.raises(InvalidArgumentError):
            shap_values_batch(model, np.zeros((1, 4, 2)))

    def test_consistency_spot_check(self):
        # adding a tree that relies more on feature 0 never lowers its phi
        base = single_split_model()
        extra = tree_from_dict(split(0, 0.0, leaf(-0.5, 3.0), leaf(1.0, 1.0)), 2)
        bigger = GbdtModel(base.trees + [extra], base.learning_rate, base.base_score, base.feature_names, 2)
        x = np.array([0.6, 0.0])
        phi_small = shap_values_batch(base, x)[0].values[0]
        phi_big = shap_values_batch(bigger, x)[0].values[0]
        assert phi_big >= phi_small


class TestBruteForce:
    def test_single_feature_difference(self):
        model = single_split_model()
        x = np.array([0.5, 0.0])
        exp = brute_force_shapley(model, x)
        margin = predict_margin(model, x[None, :])[0]
        v_empty = coalition_value(model, x, frozenset())
        assert exp.values[0] == pytest.approx(margin - v_empty, abs=1e-12)

    def test_depth_one_hand_computed(self):
        # cover 3:1, x goes right: phi = margin - cover-weighted mean margin
        model = single_split_model(left=-1.0, right=2.0, cover=(3.0, 1.0))
        x = np.array([1.0, 0.0])
        exp = brute_force_shapley(model, x)
        mean_leaf = (3.0 * -1.0 + 1.0 * 2.0) / 4.0
        expected_phi = 0.5 * (2.0 - mean_leaf)
        assert exp.values[0] == pytest.approx(expected_phi, abs=1e-12)

    def test_capacity_limit(self, rng):
        model = GbdtModel(
            [tree_from_dict(leaf(0.0, 1.0), 21)], 0.1, 0.0, tuple(f"f{i}" for i in range(21)), 1
        )
        with pytest.raises(ValueError):
            brute_force_shapley(model, np.zeros(21))


class TestInteractions:
    def test_symmetry_and_row_sums(self, rng):
        for _ in range(6):
            model, X = random_model(rng, n_features=4)
            x = X[int(rng.integers(X.shape[0]))]
            im = shap_interactions(model, x)
            np.testing.assert_allclose(im.matrix, im.matrix.T, atol=1e-9)
            (sv,) = shap_values_batch(model, x)
            np.testing.assert_allclose(im.matrix.sum(axis=1), sv.values, atol=1e-6)

    def test_additive_model_zero_offdiagonal(self):
        t0 = tree_from_dict(split(0, 0.0, leaf(-1.0, 1.0), leaf(1.0, 1.0)), 2)
        t1 = tree_from_dict(split(1, 0.5, leaf(2.0, 1.0), leaf(-2.0, 1.0)), 2)
        model = GbdtModel([t0, t1], 0.3, 0.0, ("f0", "f1"), 2)
        im = shap_interactions(model, np.array([0.4, 0.1]))
        off = im.matrix - np.diag(np.diag(im.matrix))
        assert np.abs(off).max() < 1e-8

    def test_matches_direct_interaction_sum(self, rng):
        # fast conditional-difference path equals the subset-sum definition
        for _ in range(3):
            model, X = random_model(rng, n_features=4, max_rounds=4, max_depth=3)
            x = X[0]

            def v(subset):
                return coalition_value(model, x, subset)

            direct = shapley_interactions_reference(v, 4)
            im = shap_interactions(model, x)
            off_mask = ~np.eye(4, dtype=bool)
            np.testing.assert_allclose(im.matrix[off_mask], direct[off_mask], atol=1e-8)


class TestGlobalImportance:
    def test_all_zero_gives_canonical_order(self):
        names = ("a", "b", "c")
        exps = [ShapExplanation(np.zeros(3), 0.0, names) for _ in range(4)]
        ranking = global_importance(exps)
        assert ranking.names() == names
        assert all(score == 0.0 for _, score in ranking.entries)

    def test_single_sample(self):
        exp = ShapExplanation(np.array([0.1, -2.0, 0.5]), 0.0, ("a", "b", "c"))
        ranking = global_importance([exp])
        assert ranking.names() == ("b", "c", "a")

    def test_dominant_feature_ranks_first(self, rng):
        X = rng.normal(size=(300, 2))
        margin = 10.0 * X[:, 0] + 1.0 * X[:, 1]
        y = (margin + 0.1 * rng.normal(size=300) > 0).astype(float)
        model = train(X, y, None, small_config(max_rounds=20, num_leaves=8))
        exps = shap_values_batch(model, X[::10])
        ranking = global_importance(exps)
        assert ranking.entries[0][0] == "f0"

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            global_importance([])


class TestSelectFeatures:
    @staticmethod
    def _ranking(n=6):
        return ImportanceRanking(tuple((f"f{i}", float(n - i)) for i in range(n)))

    def test_full_subset_equals_all_features(self):
        ranking = self._ranking()
        calls = []

        class M:
            accuracy = 0.7
            accuracy_se = 0.05
            f1 = 0.8
            f1_se = 0.04

        def evaluate(names):
            calls.append(tuple(names))
            return M()

        result = select_features(ranking, evaluate)
        assert calls[-1] == ranking.names()
        assert len(result.rows) == 6

    def test_callback_failure_annotated(self):
        ranking = self._ranking()

        def evaluate(names):
            if len(names) == 3:
                raise RuntimeError("boom")
            class M:
                accuracy = f1 = 0.5
                accuracy_se = f1_se = 0.0
            return M()

        from physioshap.errors import SelectionError

        with pytest.raises(SelectionError, match="k=3"):
            select_features(ranking, evaluate)

    def test_plateau_with_planted_informative(self, rng):
        # handled end-to-end in the acceptance suite; here: argmax picks
        # the smallest k on ties
        ranking = self._ranking(4)
        scores = {1: 0.5, 2: 0.9, 3: 0.9, 4: 0.9}

        def evaluate(names):
            class M:
                accuracy = scores[len(names)]
                accuracy_se = 0.0
                f1 = scores[len(names)]
                f1_se = 0.0
            return M()

        result = select_features(ranking, evaluate)
        assert result.best_k_f1 == 2
        assert result.best_k_accuracy == 2


def test_expected_margin_is_cover_weighted(rng):
    model = single_split_model(left=-1.0, right=2.0, cover=(3.0, 1.0), lr=0.5, base=0.2)
    assert expected_margin(model) == pytest.approx(0.2 + 0.5 * ((3 * -1 + 1 * 2) / 4))


def _dependence_on_the_package(source):
    """Every dotted name a module imports from physioshap.explain, or that
    is private to physioshap."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    return [
        name for name in imported
        if name.split(".")[0] == "physioshap"
        and (name.split(".")[1:2] == ["explain"] or any(part.startswith("_") for part in name.split(".")[1:]))
    ]


@pytest.mark.parametrize("source, found", [
    ("from physioshap.explain import shap_values_batch", ["physioshap.explain.shap_values_batch"]),
    ("from physioshap import explain", ["physioshap.explain"]),
    ("import physioshap.explain as e", ["physioshap.explain"]),
    ("from physioshap.gbdt import FlatTree, _best_split", ["physioshap.gbdt._best_split"]),
    ("import physioshap._x", ["physioshap._x"]),
    ("def f():\n    from physioshap.gbdt import GbdtModel, train", []),
    ("from numpy import _core", []),
])
def test_dependence_check_finds_explain_and_private_imports(source, found):
    assert _dependence_on_the_package(source) == found


def test_oracle_does_not_depend_on_the_attribution_it_judges():
    # the subset-enumeration oracle must stay outside the code it checks
    source = (Path(__file__).parent / "reference.py").read_text()
    assert _dependence_on_the_package(source) == []
