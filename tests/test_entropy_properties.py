"""Property tests: the entropy kernels against the O(N^2) references on
generated signals, quantized so that ties and gaps of exactly r are common."""

from contextlib import contextmanager

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from physioshap import entropy  # noqa: E402
from physioshap.entropy import EntropyConfig, fuzzy_entropy, sample_entropy  # noqa: E402
from reference import fuzzy_entropy_reference, sample_entropy_reference  # noqa: E402

STEPS = (0.1, 0.25, 0.3, 1.0)


@st.composite
def quantized_signals(draw):
    """(x, m, r, budget): integer levels times a step, r a small multiple of
    the step, and a block budget small enough to split short signals."""
    m = draw(st.integers(1, 3))
    levels = draw(st.lists(st.integers(-5, 5), min_size=m + 2, max_size=150))
    step = draw(st.sampled_from(STEPS))
    r = step * draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    budget = draw(st.sampled_from((1, 7, 64, 500, entropy._BLOCK_ELEMS)))
    return np.array(levels, dtype=float) * step, m, r, budget


@contextmanager
def block_budget(budget):
    saved = entropy._BLOCK_ELEMS
    entropy._BLOCK_ELEMS = budget
    try:
        yield
    finally:
        entropy._BLOCK_ELEMS = saved


@settings(max_examples=60, deadline=None)
@given(quantized_signals())
def test_sample_entropy_equals_reference(case):
    x, m, r, budget = case
    cfg = EntropyConfig(m=m, r=r, tolerance_mode="absolute")
    with block_budget(budget):
        assert sample_entropy(x, cfg) == sample_entropy_reference(x, m, r)


@settings(max_examples=60, deadline=None)
@given(quantized_signals())
def test_fuzzy_entropy_matches_reference(case):
    x, m, r, budget = case
    # shrink to about unit range so that no membership underflows
    x = x / 10.0
    cfg = EntropyConfig(m=m, r=r, tolerance_mode="absolute")
    with block_budget(budget):
        assert abs(fuzzy_entropy(x, cfg) - fuzzy_entropy_reference(x, m, r, 2)) < 1e-12
