"""Differential oracle for boosting: ``gbdt.train`` against the reference
trainer of ``tests/reference.py``, which sorts every leaf's rows afresh.

Split search may be reorganized in any way that keeps the models: the saved
bytes of both trainers' models must be equal. The drawn inputs are the ones
where a reorganized split search goes wrong first: quantized values with
heavy ties, constant and duplicate columns, duplicate rows, leaves near
``2 * min_data_in_leaf`` rows, feature subsets and GOSS sampling.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from physioshap.evaluate import FoldPlan  # noqa: E402
from physioshap.gbdt import SearchSpace, TrainConfig, inner_holdout_split, model_to_dict, train  # noqa: E402
from physioshap.signals import RATING_NAMES  # noqa: E402
from reference import train_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOSS_RATES = ((1.0, 0.0), (0.2, 0.1), (0.5, 0.3), (0.3, 0.0), (0.1, 0.5))
KINDS = ("quantized", "quantized", "constant", "duplicate", "tie-broken", "continuous")


def model_bytes(model) -> str:
    # what save_model writes: equal strings mean equal bits, -0.0 included
    return json.dumps(model_to_dict(model), sort_keys=True)


def goss_rows(n: int, a: float, b: float) -> int:
    """How many rows ``goss_sample`` keeps out of ``n``."""
    top = min(n, math.ceil(a * n))
    return top if b == 0 or top == n else top + min(n - top, math.ceil(b * n))


def draw_matrix(draw, rng, n: int, n_feat: int) -> np.ndarray:
    step = draw(st.sampled_from((0.25, 1.0, 3.0)))
    cols = []
    for _ in range(n_feat):
        kind = draw(st.sampled_from(KINDS))
        if kind == "constant":
            cols.append(np.full(n, step))
        elif kind == "duplicate" and cols:
            cols.append(cols[int(rng.integers(len(cols)))].copy())
        elif kind == "tie-broken" and cols:
            # an earlier column with its ties broken in row order: at that column's
            # boundaries both sum the same rows, in the same order only if ties stay in row order
            cols.append(cols[int(rng.integers(len(cols)))] + step * 1e-3 * np.arange(n) / n)
        elif kind == "continuous":
            cols.append(rng.normal(size=n))
        else:
            cols.append(step * rng.integers(0, draw(st.integers(1, 5)) + 1, size=n))
    return np.stack(cols, axis=1)


@st.composite
def boosting_cases(draw):
    """(X, y, valid, cfg) for one small training run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 90))
    n_feat = draw(st.integers(1, 6))
    X = draw_matrix(draw, rng, n, n_feat)
    n_dup = draw(st.integers(0, n // 2))
    X = np.concatenate([X, X[rng.integers(0, n, size=n_dup)]])
    y = (rng.uniform(size=X.shape[0]) < 0.5).astype(float)
    y[:2], y[2:4] = 1.0, 0.0
    valid = None
    if draw(st.booleans()):
        Xv = draw_matrix(draw, rng, 12, n_feat)
        valid = (Xv, (rng.uniform(size=12) < 0.5).astype(float))
    a, b = draw(st.sampled_from(GOSS_RATES))
    kept = goss_rows(X.shape[0], a, b)
    if draw(st.booleans()):
        # the root, or a leaf one split below it, sits near 2 * min_data_in_leaf
        min_data = max(1, kept // draw(st.sampled_from((2, 4))) + draw(st.integers(-2, 1)))
    else:
        min_data = draw(st.integers(1, 4))
    ff = draw(st.one_of(st.just(1.0), st.floats(0.05, 0.95)))
    cfg = TrainConfig(
        learning_rate=0.3,
        feature_fraction=ff,
        num_leaves=draw(st.integers(2, 20)),
        min_data_in_leaf=min_data,
        max_depth=draw(st.integers(1, 8)),
        goss_a=a,
        goss_b=b,
        lambda_l2=draw(st.sampled_from((0.0, 1.0))),
        max_rounds=draw(st.integers(1, 6)),
        early_stop=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31)),
    )
    return X, y, valid, cfg


@settings(max_examples=150, deadline=None)
@given(boosting_cases())
def test_train_equals_reference_trainer(case):
    X, y, valid, cfg = case
    assert model_bytes(train(X, y, valid, cfg)) == model_bytes(train_reference(X, y, valid, cfg))


def _feature_table():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.feature_table(3, 32, 40)


def test_search_candidates_equal_reference_trainer():
    """Twelve default-space candidates, drawn as ``random_search`` draws
    them, on fold 0 of the loso-search benchmark table (1,120 fit rows)."""
    plan = FoldPlan.build(_feature_table(), RATING_NAMES[0], seed=1)
    tr = plan.folds[0].train_idx
    X, y, groups = plan.X[tr], plan.y[tr], plan.groups[tr]
    fit_mask, valid_mask = inner_holdout_split(groups, plan.seeds[0])
    valid = (X[valid_mask], y[valid_mask])
    assert fit_mask.sum() == 1120
    space = SearchSpace()
    rng = np.random.default_rng(plan.seeds[0])
    for _ in range(12):
        cfg = space.sample(rng, int(rng.integers(2**63)))
        args = (X[fit_mask], y[fit_mask], valid, cfg, plan.feature_names)
        assert model_bytes(train(*args)) == model_bytes(train_reference(*args)), cfg
