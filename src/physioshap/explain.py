"""Exact Shapley attributions for the tree ensemble.

The fast path walks each tree once per explained sample, maintaining the
path of unique features with, per feature, the fraction of cover-weighted
"zero" paths (feature marginalized) and "one" paths (feature followed)
flowing through, plus permutation weights. That yields exact Shapley values
of the path-dependent value function, where an absent feature descends both
children in proportion to their cover, in time O(leaves * depth^2) per tree
instead of enumerating 2^n feature subsets.

The subset-enumeration evaluator of the same value function is kept as an
oracle for testing; pairwise interaction values come from the difference of
attributions conditioned on one feature being always followed versus always
marginalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    InvalidArgumentError,
    ModelIncompatibleError,
    SelectionError,
)
from .gbdt import FlatTree, GbdtModel


@dataclass(frozen=True, eq=False)
class ShapExplanation:
    """Per-feature attributions (margin units) for one sample.

    base_value + values.sum() equals the model margin of the sample.
    """

    values: np.ndarray
    base_value: float
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Symmetric feature x feature attribution split for one sample.

    Off-diagonals are pairwise interaction values; diagonals are main
    effects chosen so every row sums to the feature's plain attribution.
    """

    matrix: np.ndarray
    base_value: float
    feature_names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ImportanceRanking:
    """Features ordered by mean absolute attribution, descending."""

    entries: tuple[tuple[str, float], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def top(self, k: int) -> tuple[str, ...]:
        return self.names()[:k]


def _check_cover(flats: Sequence[FlatTree]):
    for flat in flats:
        if flat.cover.size == 0 or not np.all(np.isfinite(flat.cover)) or flat.cover.min() <= 0:
            raise ModelIncompatibleError(
                "model lacks positive cover statistics; attribution needs them"
            )


def _used_trees(model: GbdtModel) -> list[FlatTree]:
    flats = model.trees[: model.best_iteration]
    _check_cover(flats)
    return flats


def expected_margin(model: GbdtModel) -> float:
    """Cover-weighted expected margin (the attribution base value)."""
    flats = _used_trees(model)
    return model.base_score + model.learning_rate * sum(f.expected_value() for f in flats)


# --- fast path: per-tree path walk ------------------------------------------
#
# Path elements are [feature, zero_fraction, one_fraction, pweight]. Extend
# adds a feature edge and redistributes the permutation weights; unwind
# removes one, exactly inverting extend.


def _extend(path: list[list[float]], zero_fraction: float, one_fraction: float, feature: int):
    depth = len(path)
    path.append([feature, zero_fraction, one_fraction, 1.0 if depth == 0 else 0.0])
    for i in range(depth - 1, -1, -1):
        path[i + 1][3] += one_fraction * path[i][3] * (i + 1) / (depth + 1)
        path[i][3] = zero_fraction * path[i][3] * (depth - i) / (depth + 1)


def _unwind(path: list[list[float]], index: int):
    depth = len(path) - 1
    one_fraction = path[index][2]
    zero_fraction = path[index][1]
    next_one = path[depth][3]
    if one_fraction != 0.0:
        for i in range(depth - 1, -1, -1):
            tmp = path[i][3]
            path[i][3] = next_one * (depth + 1) / ((i + 1) * one_fraction)
            next_one = tmp - path[i][3] * zero_fraction * (depth - i) / (depth + 1)
    else:
        for i in range(depth - 1, -1, -1):
            path[i][3] = path[i][3] * (depth + 1) / (zero_fraction * (depth - i))
    for i in range(index, depth):
        path[i][0] = path[i + 1][0]
        path[i][1] = path[i + 1][1]
        path[i][2] = path[i + 1][2]
    path.pop()


def _unwound_sum(path: list[list[float]], index: int) -> float:
    depth = len(path) - 1
    one_fraction = path[index][2]
    zero_fraction = path[index][1]
    next_one = path[depth][3]
    total = 0.0
    if one_fraction != 0.0:
        for i in range(depth - 1, -1, -1):
            tmp = next_one / ((i + 1) * one_fraction)
            total += tmp
            next_one = path[i][3] - tmp * zero_fraction * (depth - i)
    else:
        for i in range(depth - 1, -1, -1):
            total += path[i][3] / (zero_fraction * (depth - i))
    return total * (depth + 1)


def _tree_recurse(
    flat: FlatTree,
    x: np.ndarray,
    phi: np.ndarray,
    scale: float,
    node: int,
    parent_path: list[list[float]],
    parent_zero: float,
    parent_one: float,
    parent_feature: int,
    condition: int,
    condition_feature: int,
    condition_fraction: float,
):
    if condition_fraction == 0.0:
        return
    path = [el.copy() for el in parent_path]
    if condition == 0 or condition_feature != parent_feature:
        _extend(path, parent_zero, parent_one, parent_feature)
    if flat.children_left[node] < 0:
        value = flat.value[node]
        for i in range(1, len(path)):
            w = _unwound_sum(path, i)
            el = path[i]
            phi[el[0]] += w * (el[2] - el[1]) * value * condition_fraction * scale
        return
    split = int(flat.feature[node])
    left = int(flat.children_left[node])
    right = int(flat.children_right[node])
    hot, cold = (left, right) if x[split] <= flat.threshold[node] else (right, left)
    cov = flat.cover[node]
    hot_zero = flat.cover[hot] / cov
    cold_zero = flat.cover[cold] / cov
    incoming_zero = 1.0
    incoming_one = 1.0
    for k in range(len(path)):
        if path[k][0] == split:
            incoming_zero = path[k][1]
            incoming_one = path[k][2]
            _unwind(path, k)
            break
    hot_fraction = condition_fraction
    cold_fraction = condition_fraction
    if condition > 0 and split == condition_feature:
        cold_fraction = 0.0
    elif condition < 0 and split == condition_feature:
        hot_fraction *= hot_zero
        cold_fraction *= cold_zero
    _tree_recurse(
        flat, x, phi, scale, hot, path,
        incoming_zero * hot_zero, incoming_one, split,
        condition, condition_feature, hot_fraction,
    )
    _tree_recurse(
        flat, x, phi, scale, cold, path,
        incoming_zero * cold_zero, 0.0, split,
        condition, condition_feature, cold_fraction,
    )


def _phi_for_sample(
    model: GbdtModel,
    flats: Sequence[FlatTree],
    x: np.ndarray,
    condition: int = 0,
    condition_feature: int = -1,
) -> np.ndarray:
    phi = np.zeros(model.n_features)
    for flat in flats:
        _tree_recurse(
            flat, x, phi, model.learning_rate, 0, [], 1.0, 1.0, -1,
            condition, condition_feature, 1.0,
        )
    return phi


def _check_x(model: GbdtModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.n_features:
        raise InvalidArgumentError(
            f"expected a feature vector of length {model.n_features}, got shape {x.shape}"
        )
    return x


def shap_values_batch(model: GbdtModel, X) -> list[ShapExplanation]:
    """Exact per-feature Shapley attributions of each row's margin; a single
    feature vector counts as one row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"expected rows of {model.n_features} features, got shape {X.shape}"
        )
    flats = _used_trees(model)
    base = expected_margin(model)
    # one matrix, so that each explanation holds a row view, not an array
    phi = np.array([_phi_for_sample(model, flats, x) for x in X])
    return [ShapExplanation(row, base, model.feature_names) for row in phi]


def shap_interactions(model: GbdtModel, x) -> InteractionMatrix:
    """Pairwise interaction matrix for one sample.

    The (i, j) entry is half the gap between i's attribution with j always
    followed and with j always marginalized; diagonals absorb the remainder
    so each row sums to the feature's plain attribution.
    """
    x = _check_x(model, x)
    flats = _used_trees(model)
    n = model.n_features
    phi = _phi_for_sample(model, flats, x)
    used = set()
    for flat in flats:
        used.update(int(f) for f in flat.feature[flat.feature >= 0])
    mat = np.zeros((n, n))
    for j in sorted(used):
        on = _phi_for_sample(model, flats, x, condition=1, condition_feature=j)
        off = _phi_for_sample(model, flats, x, condition=-1, condition_feature=j)
        col = 0.5 * (on - off)
        col[j] = 0.0
        mat[:, j] = col
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, phi - mat.sum(axis=1))
    return InteractionMatrix(mat, expected_margin(model), model.feature_names)


# --- subset-enumeration oracle ----------------------------------------------


def _expect_subset(flat: FlatTree, x: np.ndarray, subset: frozenset, node: int = 0) -> float:
    if flat.children_left[node] < 0:
        return float(flat.value[node])
    f = int(flat.feature[node])
    left = int(flat.children_left[node])
    right = int(flat.children_right[node])
    if f in subset:
        child = left if x[f] <= flat.threshold[node] else right
        return _expect_subset(flat, x, subset, child)
    cov = flat.cover[node]
    return (
        flat.cover[left] / cov * _expect_subset(flat, x, subset, left)
        + flat.cover[right] / cov * _expect_subset(flat, x, subset, right)
    )


def coalition_value(model: GbdtModel, x, subset) -> float:
    """Path-dependent value v(T): expected margin with features outside T
    marginalized by cover proportions."""
    x = _check_x(model, x)
    flats = _used_trees(model)
    subset = frozenset(int(i) for i in subset)
    total = model.base_score
    for flat in flats:
        total += model.learning_rate * _expect_subset(flat, x, subset)
    return total


def brute_force_shapley(model: GbdtModel, x) -> ShapExplanation:
    """Direct Shapley-sum evaluation over all feature subsets (oracle).

    Uses exactly the same value function as the fast path; capped at 20
    features because the enumeration is exponential.
    """
    x = _check_x(model, x)
    n = model.n_features
    if n > 20:
        raise CapacityError(f"subset enumeration infeasible for {n} features (max 20)")
    memo: dict[frozenset, float] = {}

    def value(subset: frozenset) -> float:
        if subset not in memo:
            memo[subset] = coalition_value(model, x, subset)
        return memo[subset]

    fact = [math.factorial(k) for k in range(n + 1)]
    phi = np.zeros(n)
    others = list(range(n))
    for i in range(n):
        rest = [f for f in others if f != i]
        weight_total = 0.0
        for size in range(n):
            w = fact[size] * fact[n - size - 1] / fact[n]
            for combo in combinations(rest, size):
                t = frozenset(combo)
                phi[i] += w * (value(t | {i}) - value(t))
                weight_total += w
        # Shapley kernel weights over the subsets of one feature sum to 1
        assert abs(weight_total - 1.0) < 1e-9
    return ShapExplanation(phi, value(frozenset()), model.feature_names)


# --- aggregation -------------------------------------------------------------


def global_importance(explanations: Sequence[ShapExplanation]) -> ImportanceRanking:
    """Rank features by mean absolute attribution over the explained samples.

    Ties break toward the earlier feature in canonical order.
    """
    if not explanations:
        raise InvalidArgumentError("global_importance needs at least one explanation")
    names = explanations[0].feature_names
    if names is None:
        raise InvalidArgumentError("explanations must carry feature names")
    mat = np.vstack([e.values for e in explanations])
    if mat.shape[1] != len(names):
        raise InvalidArgumentError("explanations have inconsistent feature dimensions")
    scores = np.abs(mat).mean(axis=0)
    order = sorted(range(len(names)), key=lambda i: (-scores[i], i))
    return ImportanceRanking(tuple((names[i], float(scores[i])) for i in order))


@dataclass(frozen=True)
class SelectionRow:
    k: int
    accuracy: float
    accuracy_se: float
    f1: float
    f1_se: float


@dataclass(frozen=True)
class SelectionResult:
    rows: tuple[SelectionRow, ...]
    best_k_accuracy: int
    best_k_f1: int


def select_features(
    ranking: ImportanceRanking,
    evaluate: Callable[[tuple[str, ...]], object],
    k_values: Sequence[int] | None = None,
) -> SelectionResult:
    """Greedy importance-ordered sweep: evaluate the top-k prefix for each k.

    ``evaluate`` receives the feature-name prefix and must return an object
    with accuracy/f1 and their standard errors. Argmax ties resolve to the
    smallest k.
    """
    names = ranking.names()
    ks = list(k_values) if k_values is not None else list(range(1, len(names) + 1))
    if not ks or min(ks) < 1 or max(ks) > len(names):
        raise InvalidArgumentError(f"k values must lie in [1, {len(names)}]")
    rows = []
    for k in ks:
        try:
            m = evaluate(names[:k])
        except Exception as exc:
            raise SelectionError(f"evaluation failed at k={k}: {exc}") from exc
        rows.append(
            SelectionRow(
                k=k,
                accuracy=float(m.accuracy),
                accuracy_se=float(m.accuracy_se),
                f1=float(m.f1),
                f1_se=float(m.f1_se),
            )
        )
    best_acc = max(rows, key=lambda r: (r.accuracy, -r.k)).k
    best_f1 = max(rows, key=lambda r: (r.f1, -r.k)).k
    return SelectionResult(tuple(rows), best_acc, best_f1)
