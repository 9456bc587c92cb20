import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from physioshap.gbdt import TrainConfig, train


def small_config(**kw):
    """A deliberately tiny, permissive training config for unit tests."""
    base = dict(
        learning_rate=0.3,
        feature_fraction=1.0,
        num_leaves=6,
        min_data_in_leaf=2,
        max_depth=4,
        goss_a=1.0,
        goss_b=0.0,
        max_rounds=10,
        early_stop=5,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def random_model(rng, n_features=None, n_samples=80, max_rounds=None, max_depth=None):
    """Train a small model on random separable-ish data; returns (model, X)."""
    f = int(n_features if n_features is not None else rng.integers(2, 9))
    X = rng.normal(size=(n_samples, f))
    w = rng.normal(size=f)
    y = (X @ w + 0.4 * rng.normal(size=n_samples) > 0).astype(float)
    if y.sum() < 2 or (1 - y).sum() < 2:
        y[:2] = 1.0
        y[2:4] = 0.0
    cfg = small_config(
        num_leaves=int(rng.integers(2, 8)),
        max_depth=int(max_depth if max_depth is not None else rng.integers(2, 5)),
        max_rounds=int(max_rounds if max_rounds is not None else rng.integers(2, 12)),
        goss_a=0.7,
        goss_b=0.2,
        seed=int(rng.integers(2**31)),
    )
    model = train(X, y, None, cfg)
    return model, X


def leaf(value, cover):
    """A leaf in the nested form of saved models (``gbdt.tree_from_dict``)."""
    return {"value": value, "cover": cover}


def split(feature, threshold, left, right):
    """An internal node in the nested form; its cover is its children's."""
    cover = left["cover"] + right["cover"]
    return {"split_feature": feature, "threshold": threshold, "cover": cover, "left": left, "right": right}


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
