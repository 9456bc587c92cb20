"""Property tests: exact attribution against subset enumeration on random
small trees, and the SSA reconstruction identity on generated signals.

Trees are drawn in the nested form of saved models and built through
``tree_from_dict``. Thresholds and sample values share one grid, so samples
land exactly on thresholds and the ``<=`` routing is exercised."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import leaf, split  # noqa: E402
from physioshap.explain import brute_force_shapley, shap_values_batch  # noqa: E402
from physioshap.gbdt import GbdtModel, predict_margin, tree_from_dict  # noqa: E402
from physioshap.ssa import SsaConfig, decompose  # noqa: E402

GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
MAX_DEPTH = 4


@st.composite
def nested_trees(draw, n_features, cover, depth=0):
    """A tree of integer covers, each internal node's the sum of its children's."""
    if depth == MAX_DEPTH or cover < 2 or draw(st.integers(0, 3)) == 0:
        return leaf(draw(st.floats(-2.0, 2.0)), float(cover))
    left_cover = draw(st.integers(1, cover - 1))
    return split(
        draw(st.integers(0, n_features - 1)),
        draw(st.sampled_from(GRID)),
        draw(nested_trees(n_features, left_cover, depth + 1)),
        draw(nested_trees(n_features, cover - left_cover, depth + 1)),
    )


@st.composite
def models_and_samples(draw):
    """(model, X): up to three trees over at most five features, and up to
    four samples on the threshold grid."""
    n = draw(st.integers(1, 5))
    trees = [
        tree_from_dict(draw(nested_trees(n, draw(st.integers(2, 64)))), n)
        for _ in range(draw(st.integers(1, 3)))
    ]
    model = GbdtModel(
        trees,
        draw(st.floats(0.05, 1.0)),
        draw(st.floats(-1.0, 1.0)),
        tuple(f"f{i}" for i in range(n)),
        draw(st.integers(0, len(trees))),
    )
    rows = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.sampled_from(GRID), min_size=rows * n, max_size=rows * n)))
    return model, X.reshape(rows, n)


@settings(max_examples=150, deadline=None)
@given(models_and_samples())
def test_shap_matches_subset_enumeration(case):
    model, X = case
    for x, fast in zip(X, shap_values_batch(model, X)):
        slow = brute_force_shapley(model, x)
        np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-8)
        assert abs(fast.base_value - slow.base_value) <= 1e-8


@settings(max_examples=150, deadline=None)
@given(models_and_samples())
def test_shap_local_accuracy(case):
    model, X = case
    margins = predict_margin(model, X)
    for margin, exp in zip(margins, shap_values_batch(model, X)):
        assert abs(exp.base_value + exp.values.sum() - margin) <= 1e-6


@st.composite
def quantized_signals(draw):
    """(x, L): integer levels times a step, and a window no longer than x.

    ``decompose`` drops components whose eigenvalue is below 1e-12 of the
    largest, so structure below about 1e-6 of a signal's scale (a large
    offset plus faint noise) is not reconstructed to 1e-8; integer levels
    keep every component far above that cutoff."""
    levels = draw(st.lists(st.integers(-5, 5), min_size=3, max_size=160))
    step = draw(st.sampled_from((0.1, 0.25, 0.3, 1.0)))
    window = draw(st.integers(2, min(24, len(levels))))
    return np.array(levels, dtype=float) * step, window


@settings(max_examples=100, deadline=None)
@given(quantized_signals())
def test_ssa_components_sum_to_signal(case):
    x, window = case
    d = decompose(x, SsaConfig(window_len=window))
    total = sum(d.components, np.zeros_like(x))
    assert np.linalg.norm(total - x) <= 1e-8 * np.linalg.norm(x)
