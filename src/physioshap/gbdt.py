"""Binary-logloss gradient-boosted regression trees.

Trees grow leaf-wise: at every step the open leaf with the globally best
split gain G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) is
split, where G/H are weighted gradient/hessian sums, until the leaf budget,
depth limit, minimum leaf size, or non-positive gain stops growth. Split
search enumerates every boundary between distinct sorted feature values
exactly; thresholds sit at midpoints. Gradient-based one-side sampling
keeps all large-gradient rows and up-weights a random sample of the rest,
so weighted statistics stay unbiased.

Sorting happens once per fit (exact greedy split finding on presorted
columns, as in SLIQ and Chen & Guestrin 2016, §3.1): ``train`` takes a
stable argsort of every column when its first tree that can split needs
one, each round keeps the sampled rows of the columns its tree draws, and
every split partitions its leaf's sorted columns between the children.
Tied rows stay in ascending row order throughout, so each gradient prefix
sum adds the same numbers in the same order as a fresh stable sort of the
leaf, and the models are the ones per-leaf sorting grows, bit for bit.

A tree is a ``FlatTree``, six node arrays that ``grow_tree`` fills as it
splits and that prediction and attribution read; ``tree_to_dict`` and
``tree_from_dict`` convert it to and from the nested JSON form of saved
models. Every node carries its cover (sum of training weights routed through
it), which downstream attribution uses to marginalize absent features.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateLabelsError, InvalidArgumentError, SchemaMismatchError


class FlatTree:
    """One regression tree as six parallel node arrays, root at index 0.

    Node ``i`` is a leaf when ``children_left[i] == -1``; leaves have
    ``feature`` -1 and ``threshold`` NaN, internal nodes have ``value`` 0.0.
    Children always follow their parent: ``grow_tree`` numbers nodes in
    creation order, ``tree_from_dict`` in preorder. Prediction and
    attribution walk the structure, so the numbering reaches no output.
    """

    __slots__ = ("children_left", "children_right", "feature", "threshold", "value", "cover")

    def __init__(self, children_left, children_right, feature, threshold, value, cover):
        self.children_left = np.asarray(children_left, dtype=np.int64)
        self.children_right = np.asarray(children_right, dtype=np.int64)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)
        self.cover = np.asarray(cover, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if self.children_left[node] < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            stack.append((self.children_left[node], rows[go_left]))
            stack.append((self.children_right[node], rows[~go_left]))
        return out

    def expected_value(self) -> float:
        """Cover-weighted mean leaf value (prediction with no features known)."""
        total = 0.0
        stack = [(0, 1.0)]
        while stack:
            node, frac = stack.pop()
            if self.children_left[node] < 0:
                total += frac * self.value[node]
                continue
            left, right = self.children_left[node], self.children_right[node]
            cov = self.cover[node]
            stack.append((left, frac * self.cover[left] / cov))
            stack.append((right, frac * self.cover[right] / cov))
        return total


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters. Feasibility is validated here; the search
    space clamps values to the documented tuning ranges."""

    learning_rate: float = 0.1
    feature_fraction: float = 1.0
    num_leaves: int = 15
    min_data_in_leaf: int = 20
    max_depth: int = 10
    goss_a: float = 0.2
    goss_b: float = 0.1
    lambda_l2: float = 0.0
    max_rounds: int = 500
    early_stop: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise InvalidArgumentError("learning_rate must be positive")
        if not (0 < self.feature_fraction <= 1):
            raise InvalidArgumentError("feature_fraction must be in (0, 1]")
        if self.num_leaves < 1 or self.min_data_in_leaf < 1 or self.max_depth < 1:
            raise InvalidArgumentError("num_leaves, min_data_in_leaf, max_depth must be >= 1")
        if not (0 < self.goss_a <= 1) or self.goss_b < 0 or self.goss_a + self.goss_b > 1:
            raise InvalidArgumentError("need 0 < goss_a <= 1, goss_b >= 0, goss_a + goss_b <= 1")
        if self.lambda_l2 < 0:
            raise InvalidArgumentError("lambda_l2 must be >= 0")
        if self.max_rounds < 1 or self.early_stop < 1:
            raise InvalidArgumentError("max_rounds and early_stop must be >= 1")


@dataclass(eq=False)
class GbdtModel:
    """An ordered tree ensemble plus the metadata needed to score it.

    margin(x) = base_score + learning_rate * sum of the first
    ``best_iteration`` trees evaluated at x.
    """

    trees: list[FlatTree]
    learning_rate: float
    base_score: float
    feature_names: tuple[str, ...]
    best_iteration: int

    def flat_trees(self) -> list[FlatTree]:
        # kept for perfbench's tracer, which reads it; the package reads ``trees``
        return self.trees

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def goss_sample(
    gradients: np.ndarray, a: float, b: float, seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-based one-side sampling.

    Keeps the ceil(a*n) rows with the largest |gradient| at weight 1 and a
    uniform sample of ceil(b*n) of the remaining rows at weight (1-a)/b.
    Returns (row indices ascending, weights). Deterministic given the seed.
    """
    g = np.asarray(gradients, dtype=np.float64)
    n = g.size
    if n == 0:
        raise InvalidArgumentError("cannot sample from empty gradients")
    if not (0 < a <= 1) or b < 0 or a + b > 1:
        raise InvalidArgumentError("need 0 < a <= 1, b >= 0, a + b <= 1")
    order = np.argsort(-np.abs(g), kind="stable")
    k_top = min(n, math.ceil(a * n))
    top = order[:k_top]
    if b == 0 or k_top == n:
        idx = np.sort(top)
        return idx, np.ones(idx.size)
    rest = order[k_top:]
    k_rand = min(rest.size, math.ceil(b * n))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sampled = rng.choice(rest, size=k_rand, replace=False)
    idx = np.concatenate([top, sampled])
    weights = np.concatenate([np.ones(k_top), np.full(k_rand, (1.0 - a) / b)])
    order2 = np.argsort(idx)
    return idx[order2], weights[order2]


def _column_ranks(X: np.ndarray) -> np.ndarray:
    """The presort: each row's place in its column's stable argsort,
    (features, rows)."""
    n = X.shape[0]
    ranks = np.empty((X.shape[1], n), dtype=np.min_scalar_type(n))
    np.put_along_axis(ranks, np.argsort(X, axis=0, kind="stable").T, np.arange(n), axis=1)
    return ranks


class _SampleOrder:
    """The ``order`` that ``grow_tree`` takes for one round's sampled rows,
    (features, rows), worked out only for the features the tree draws.

    ``ranks()`` gives the fit's ``_column_ranks``; it is called only when a
    tree can split. Ranks are distinct, so ordering the sampled rows by rank
    keeps tied values in ascending row order; on ranks of 16 bits or fewer
    numpy's stable argsort is a radix sort, one linear pass per column.
    """

    def __init__(self, ranks: Callable[[], np.ndarray], rows: np.ndarray, n_feat: int):
        self.ranks = ranks
        self.rows = rows
        self.shape = (n_feat, rows.size)

    def __getitem__(self, feats: np.ndarray) -> np.ndarray:
        return np.argsort(self.ranks()[feats][:, self.rows], axis=1, kind="stable")


def _best_split(
    xs: np.ndarray,
    order: np.ndarray,
    wg: np.ndarray,
    wh: np.ndarray,
    min_data: int,
    lam: float,
):
    """Best exact split of one leaf from its presorted columns.

    ``order`` (searched features, leaf rows) lists the leaf's rows by
    ascending value in each column, tied rows in ascending row index, and
    ``xs`` holds the values in that order; nothing here sorts. Gains are
    computed only for splits after sorted position k in
    ``[min_data - 1, n - min_data)``, the ones that leave both children
    ``min_data`` rows. Returns (gain, column of ``order``, threshold) or None
    when no valid positive-gain split exists. Gain ties break toward the
    lowest column, then the lowest threshold.
    """
    n = order.shape[1]
    if n < 2 * min_data:
        return None
    gs = np.cumsum(wg[order], axis=1)
    hs = np.cumsum(wh[order], axis=1)
    g_tot = gs[:, -1:]
    h_tot = hs[:, -1:]
    lo, hi = min_data - 1, n - min_data
    gl, hl = gs[:, lo:hi], hs[:, lo:hi]
    gr = g_tot - gl
    hr = h_tot - hl
    parent = g_tot**2 / (h_tot + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent
    gain = np.where(xs[:, lo + 1 : hi + 1] > xs[:, lo:hi], gain, -np.inf)  # no split between ties
    col_best = np.argmax(gain, axis=1)  # first occurrence = lowest threshold
    col_gain = gain[np.arange(order.shape[0]), col_best]
    c = int(np.argmax(col_gain))  # first occurrence = lowest column
    if not (col_gain[c] > 0):
        return None
    k = lo + int(col_best[c])
    threshold = 0.5 * (xs[c, k] + xs[c, k + 1])
    return float(col_gain[c]), c, float(threshold)


def grow_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    weights: np.ndarray,
    cfg: TrainConfig,
    seed: int | np.random.Generator,
    order: np.ndarray | _SampleOrder | None = None,
) -> FlatTree:
    """Grow one regression tree leaf-wise on weighted gradient statistics.

    ``order`` (features, rows), when given, is every column's stable argsort:
    the row indices by ascending value, tied rows in ascending index. Only
    ``order[feats]`` is read, for the features the tree draws. Without it
    the root sorts its columns once. No leaf sorts: a split partitions its
    leaf's order, and the sorted values that go with it, between the
    children with the row mask. That keeps each child's columns sorted and
    its tied rows in ascending index, so every gradient sum adds the same
    numbers in the same order as a fresh stable sort of the child would.

    Nodes are numbered in creation order; a node's cover is the sum of the
    weights of its rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidArgumentError("grow_tree needs a non-empty sample matrix")
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (X.shape[0] == grad.size == hess.size == weights.size):
        raise InvalidArgumentError("X, grad, hess, weights must agree in length")
    if np.any(weights < 0):
        raise InvalidArgumentError("weights must be non-negative")
    n, n_feat = X.shape
    if order is not None and order.shape != (n_feat, n):
        raise InvalidArgumentError(f"order must have shape (features, rows) = {(n_feat, n)}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if cfg.feature_fraction < 1.0:
        k = max(1, math.ceil(cfg.feature_fraction * n_feat))
        feats = np.sort(rng.choice(n_feat, size=k, replace=False))
    else:
        feats = np.arange(n_feat)
    wg = weights * grad
    wh = weights * hess
    lam = cfg.lambda_l2
    min_data = cfg.min_data_in_leaf
    goes_left = np.empty(n, dtype=bool)  # scratch: side of each row of the leaf being split

    # (left, right, feature, threshold, value, cover) of each node
    nodes: list[tuple] = []

    def add_leaf(rows: np.ndarray) -> int:
        value = float(-wg[rows].sum() / (wh[rows].sum() + lam))
        nodes.append((-1, -1, -1, math.nan, value, float(weights[rows].sum())))
        return len(nodes) - 1

    root = add_leaf(np.arange(n))
    # open leaves: gain, creation rank, node, rows, depth, column of feats, threshold, order, values
    candidates: list[tuple] = []
    seq = 0

    def push(node: int, rows: np.ndarray, depth: int, leaf_order: np.ndarray, xs: np.ndarray):
        nonlocal seq
        best = _best_split(xs, leaf_order, wg, wh, min_data, lam)
        if best is None:
            return
        gain, c, thr = best
        candidates.append((gain, -seq, node, rows, depth, c, thr, leaf_order, xs))
        seq += 1

    if n >= 2 * min_data:  # else the root cannot split, and nothing needs an order
        columns = X.T[feats]
        root_order = np.argsort(columns, axis=1, kind="stable") if order is None else order[feats]
        push(root, np.arange(n), 0, root_order, np.take_along_axis(columns, root_order, axis=1))
    leaves = 1
    while leaves < cfg.num_leaves and candidates:
        # highest gain; ties go to the earliest-created candidate
        i = max(range(len(candidates)), key=lambda j: (candidates[j][0], candidates[j][1]))
        gain, _, node, rows, depth, c, thr, leaf_order, xs = candidates.pop(i)
        feat = int(feats[c])
        mask = X[rows, feat] <= thr
        left_rows, right_rows = rows[mask], rows[~mask]
        left, right = add_leaf(left_rows), add_leaf(right_rows)
        nodes[node] = (left, right, feat, thr, 0.0, nodes[node][5])
        leaves += 1
        if leaves == cfg.num_leaves or depth + 1 >= cfg.max_depth:
            continue  # neither child may split, so neither needs an order
        goes_left[rows] = mask
        side = goes_left[leaf_order]
        for child, child_rows, kept in ((left, left_rows, side), (right, right_rows, ~side)):
            if child_rows.size >= 2 * min_data:
                shape = (feats.size, child_rows.size)
                push(child, child_rows, depth + 1, leaf_order[kept].reshape(shape), xs[kept].reshape(shape))
    return FlatTree(*zip(*nodes))


def sigmoid(margin: np.ndarray) -> np.ndarray:
    m = np.asarray(margin, dtype=np.float64)
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def binary_logloss(y: np.ndarray, margin: np.ndarray) -> float:
    """Mean binary log-loss evaluated at raw margins (numerically stable)."""
    m = np.asarray(margin, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # log(1 + e^m) - y*m, computed as softplus
    softplus = np.logaddexp(0.0, m)
    return float(np.mean(softplus - y * m))


def train(
    X: np.ndarray,
    y: np.ndarray,
    valid: tuple[np.ndarray, np.ndarray] | None,
    cfg: TrainConfig,
    feature_names: Sequence[str] | None = None,
) -> GbdtModel:
    """Boost trees on binary labels with GOSS sampling and early stopping.

    The starting margin is the log-odds of the training prior. Each round
    fits a tree to the current gradient p - y and hessian p(1 - p) on the
    GOSS-sampled rows, then appends it with shrinkage. With a validation
    pair, training stops once validation logloss has not improved for
    ``early_stop`` rounds and ``best_iteration`` marks the minimum.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise InvalidArgumentError("X and y must agree in sample count")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != y.size:
        raise InvalidArgumentError("labels must be binary 0/1")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("training labels contain a single class")
    if n_pos < 2 or n_neg < 2:
        raise DegenerateLabelsError(
            f"need at least 2 samples per class, got {n_pos} positive / {n_neg} negative"
        )
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    feature_names = tuple(feature_names)
    if len(feature_names) != X.shape[1]:
        raise InvalidArgumentError("feature_names length must match X columns")

    prior = n_pos / y.size
    base = math.log(prior / (1.0 - prior))
    margins = np.full(y.size, base)
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        yv = np.asarray(valid[1], dtype=np.float64)
        if Xv.shape[1] != X.shape[1]:
            raise InvalidArgumentError("validation features must match training width")
        v_margins = np.full(yv.size, base)

    # taken once, when the first tree that can split asks for it
    ranks = functools.cache(lambda: _column_ranks(X))
    master = np.random.default_rng(cfg.seed)
    trees: list[FlatTree] = []
    # round 0 (prior-only model) competes in the argmin: rounds that never
    # beat the prior on validation leave best_iteration at 0
    best_loss = binary_logloss(yv, v_margins) if valid is not None else math.inf
    best_round = 0
    for rnd in range(cfg.max_rounds):
        p = sigmoid(margins)
        grad = p - y
        hess = p * (1.0 - p)
        round_rng = np.random.default_rng(master.integers(2**63))
        idx, w = goss_sample(grad, cfg.goss_a, cfg.goss_b, round_rng)
        tree = grow_tree(X[idx], grad[idx], hess[idx], w, cfg, round_rng, _SampleOrder(ranks, idx, X.shape[1]))
        trees.append(tree)
        margins = margins + cfg.learning_rate * tree.predict(X)
        if valid is not None:
            v_margins = v_margins + cfg.learning_rate * tree.predict(Xv)
            loss = binary_logloss(yv, v_margins)
            if loss < best_loss:
                best_loss = loss
                best_round = rnd + 1
            elif rnd + 1 - best_round >= cfg.early_stop:
                break
    best_iteration = best_round if valid is not None else len(trees)
    return GbdtModel(
        trees=trees,
        learning_rate=cfg.learning_rate,
        base_score=base,
        feature_names=feature_names,
        best_iteration=best_iteration,
    )


def predict_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Raw margins for a sample matrix, using trees up to best_iteration."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"expected {model.n_features} features, got {X.shape[1]}"
        )
    margins = np.full(X.shape[0], model.base_score)
    for tree in model.trees[: model.best_iteration]:
        margins += model.learning_rate * tree.predict(X)
    return margins


def predict(model: GbdtModel, x: np.ndarray) -> tuple[float, float]:
    """(margin, probability) for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("predict expects a single feature vector")
    margin = float(predict_margin(model, x[None, :])[0])
    prob = float(sigmoid(np.array([margin]))[0])
    return margin, prob


# --- serialization ---------------------------------------------------------

_FORMAT = "physioshap-gbdt"


def tree_to_dict(tree: FlatTree) -> dict:
    """The nested JSON form of a tree: a leaf is ``{value, cover}``, an
    internal node ``{split_feature, threshold, cover, left, right}``."""

    def node(i: int) -> dict:
        if tree.children_left[i] < 0:
            return {"value": float(tree.value[i]), "cover": float(tree.cover[i])}
        return {
            "split_feature": int(tree.feature[i]),
            "threshold": float(tree.threshold[i]),
            "cover": float(tree.cover[i]),
            "left": node(int(tree.children_left[i])),
            "right": node(int(tree.children_right[i])),
        }

    return node(0)


def tree_from_dict(d: dict, n_features: int) -> FlatTree:
    """Build a tree from its nested JSON form, numbering nodes in preorder.

    A split on a feature outside ``[0, n_features)`` is refused.
    """
    nodes: list[tuple] = []  # as in grow_tree

    def add(node: dict) -> int:
        i = len(nodes)
        if "value" in node:
            nodes.append((-1, -1, -1, math.nan, float(node["value"]), float(node["cover"])))
            return i
        feature = int(node["split_feature"])
        if not 0 <= feature < n_features:
            raise InvalidArgumentError(
                f"split_feature {feature} outside the model's {n_features} features"
            )
        nodes.append(None)
        left, right = add(node["left"]), add(node["right"])
        nodes[i] = (left, right, feature, float(node["threshold"]), 0.0, float(node["cover"]))
        return i

    add(d)
    return FlatTree(*zip(*nodes))


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format": _FORMAT,
        "version": 1,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "best_iteration": model.best_iteration,
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def model_from_dict(d: dict) -> GbdtModel:
    if d.get("format") != _FORMAT:
        raise InvalidArgumentError(f"not a {_FORMAT} document")
    feature_names = tuple(d["feature_names"])
    trees = [tree_from_dict(t, len(feature_names)) for t in d["trees"]]
    best_iteration = int(d["best_iteration"])
    if not 0 <= best_iteration <= len(trees):
        raise InvalidArgumentError(f"best_iteration {best_iteration} outside [0, {len(trees)}]")
    return GbdtModel(
        trees=trees,
        learning_rate=float(d["learning_rate"]),
        base_score=float(d["base_score"]),
        feature_names=feature_names,
        best_iteration=best_iteration,
    )


def save_model(model: GbdtModel, path) -> None:
    from .dataio import written_whole  # dataio imports evaluate, which imports this module

    with written_whole(path) as fh:
        fh.write(json.dumps(model_to_dict(model), sort_keys=True))


def load_model(path) -> GbdtModel:
    """Read a saved model; a file that is not one raises SchemaMismatchError naming it."""
    try:
        return model_from_dict(json.loads(Path(path).read_text()))
    except (AttributeError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise SchemaMismatchError(f"{path}: malformed model ({type(exc).__name__}: {exc})") from exc


# --- random hyperparameter search ------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """Uniform sampling ranges for the tuned hyperparameters; everything
    else (GOSS rates, regularization, round budget) is carried over from
    ``base`` into each candidate."""

    learning_rate: tuple[float, float] = (0.01, 0.5)
    feature_fraction: tuple[float, float] = (0.0, 1.0)
    num_leaves: tuple[int, int] = (5, 20)
    min_data_in_leaf: tuple[int, int] = (10, 100)
    max_depth: tuple[int, int] = (5, 20)
    base: TrainConfig = TrainConfig()

    def __post_init__(self):
        ints = {"num_leaves": self.num_leaves, "min_data_in_leaf": self.min_data_in_leaf, "max_depth": self.max_depth}
        ranges = {"learning_rate": self.learning_rate, "feature_fraction": self.feature_fraction, **ints}
        for name, (lo, hi) in ranges.items():
            if not lo <= hi:
                raise InvalidArgumentError(f"{name} range [{lo}, {hi}] needs lo <= hi")
        if not self.learning_rate[0] > 0:
            raise InvalidArgumentError("learning_rate range needs lo > 0")
        lo, hi = self.feature_fraction
        if not (0 <= lo and 0 < hi <= 1):
            raise InvalidArgumentError("feature_fraction range needs 0 <= lo and 0 < hi <= 1")
        for name, (lo, _) in ints.items():
            if lo < 1:
                raise InvalidArgumentError(f"{name} range needs lo >= 1")

    def sample(self, rng: np.random.Generator, seed: int) -> TrainConfig:
        ff = 0.0
        while ff <= 0.0:
            ff = rng.uniform(*self.feature_fraction)
        return replace(
            self.base,
            learning_rate=float(rng.uniform(*self.learning_rate)),
            feature_fraction=float(ff),
            num_leaves=int(rng.integers(self.num_leaves[0], self.num_leaves[1] + 1)),
            min_data_in_leaf=int(
                rng.integers(self.min_data_in_leaf[0], self.min_data_in_leaf[1] + 1)
            ),
            max_depth=int(rng.integers(self.max_depth[0], self.max_depth[1] + 1)),
            seed=seed,
        )


def inner_holdout_split(
    groups: np.ndarray, seed: int, fraction: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Subject-disjoint inner split: held-out subjects cover ~``fraction``
    of the distinct subjects (at least one). Returns boolean (train, valid)
    row masks."""
    groups = np.asarray(groups)
    subjects = np.unique(groups)
    if subjects.size < 2:
        raise InvalidArgumentError("inner split needs at least 2 distinct subjects")
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(subjects)
    n_hold = max(1, int(round(fraction * subjects.size)))
    if subjects.size >= 4:
        # a single held-out subject makes the candidate argmin too noisy
        n_hold = max(2, n_hold)
    held = set(shuffled[:n_hold].tolist())
    valid_mask = np.array([g in held for g in groups])
    return ~valid_mask, valid_mask


def random_search(
    X: np.ndarray,
    y: np.ndarray,
    valid: tuple[np.ndarray, np.ndarray],
    space: SearchSpace | None = None,
    iterations: int = 300,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> tuple[TrainConfig, GbdtModel]:
    """Pick the config with minimal validation logloss, and its model.

    Candidates are sampled uniformly from ``space``; each is trained with
    early stopping on the ``valid`` pair (the same pair for every
    candidate) and scored by its best validation logloss; the first
    minimum wins. Deterministic given the seed.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    space = space or SearchSpace()
    Xv, yv = valid
    rng = np.random.default_rng(seed)
    best = None
    best_loss = math.inf
    for _ in range(iterations):
        cand_seed = int(rng.integers(2**63))
        cfg = space.sample(rng, cand_seed)
        try:
            model = train(X, y, valid, cfg, feature_names)
        except DegenerateLabelsError:
            continue
        loss = binary_logloss(yv, predict_margin(model, Xv))
        if loss < best_loss:
            best_loss = loss
            best = cfg, model
    if best is None:
        raise DegenerateLabelsError("no search candidate could be trained")
    return best


def fit(
    X: np.ndarray,
    y: np.ndarray,
    groups: np.ndarray,
    seed: int,
    search_budget: int = 0,
    space: SearchSpace | None = None,
    config: TrainConfig | None = None,
    feature_names: Sequence[str] | None = None,
) -> tuple[TrainConfig, GbdtModel]:
    """Choose a config and train it with early stopping on an inner holdout.

    The holdout is ``inner_holdout_split(groups, seed)``. A given ``config``
    is trained as it is; otherwise ``search_budget >= 1`` runs
    ``random_search`` on the holdout and returns the winner with the model
    the search trained, and a budget of 0 trains ``space.base`` with
    ``seed``. Returns (config, model).
    """
    space = space or SearchSpace()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    fit_mask, valid_mask = inner_holdout_split(groups, seed)
    valid = (X[valid_mask], y[valid_mask])
    X, y = X[fit_mask], y[fit_mask]
    if config is None and search_budget >= 1:
        return random_search(X, y, valid, space, search_budget, seed, feature_names)
    config = config or replace(space.base, seed=seed)
    return config, train(X, y, valid, config, feature_names)
