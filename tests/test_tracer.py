"""The benchmark's tracer against the package: ``perfbench/tracer.py`` wraps
package functions by name and reads model fields in its notes, so a rename
that would break a traced benchmark run fails here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import small_config
from physioshap import explain, gbdt
from physioshap.pipeline import run_loso_explained
from test_evaluate import make_feature_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_record_notes(rng, monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    targets = tracer_module.targets()
    originals = [getattr(module, attr) for module, attr, _ in targets]
    tracer = tracer_module.Tracer()
    tracer.install(targets)
    try:
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        model = gbdt.train(X, y, None, small_config(max_rounds=4))
        explain.shap_values_batch(model, X[:5])
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in targets] == originals
    spans = {s.name: s for s in tracer.spans}
    assert spans["gbdt.train"].info["rounds"] == len(model.trees)
    assert spans["gbdt.train"].info["best_iteration"] == model.best_iteration
    notes = spans["explain.shap_values_batch"].info
    assert notes["samples"] == 5 and notes["trees"] == model.best_iteration
    leaves = [(t.children_left < 0).sum() for t in model.trees[: model.best_iteration]]
    assert notes["leaves"] == np.mean(leaves) > 1
    assert spans["gbdt.grow_tree"].parent >= 0


@pytest.mark.parametrize("search_mode", ["per-fold", "global"])
def test_a_searched_fold_trains_only_its_candidates(rng, monkeypatch, search_mode):
    # the benchmark counts train spans under random_search as search
    # candidates and the rest as fits: a searched fold keeps the model its
    # search trained, so it has no other train span, and in global mode
    # every other fold trains the settled config once
    tracer_module = _load_tracer(monkeypatch)
    tracer = tracer_module.Tracer()
    tracer.install(tracer_module.targets())
    try:
        ds = make_feature_dataset(rng, n_subjects=4, trials=6)
        space = gbdt.SearchSpace(base=small_config())
        run_loso_explained(ds, "valence", 2, seed=3, space=space, search_mode=search_mode)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    parent = lambda s: spans[s.parent].name if s.parent >= 0 else ""  # noqa: E731
    folds = [i for i, s in enumerate(spans) if s.name == "evaluate.run_fold"]
    assert len(folds) == 4
    for s in spans:
        if s.name == "gbdt.random_search":
            assert parent(s) == "evaluate.run_fold"
    searched = {i: 0 for i in folds}
    fitted = {i: 0 for i in folds}
    for s in spans:
        if s.name == "gbdt.train" and parent(s) == "gbdt.random_search":
            searched[spans[s.parent].parent] += 1
        elif s.name == "gbdt.train":
            assert parent(s) == "evaluate.run_fold"
            fitted[s.parent] += 1
    if search_mode == "per-fold":
        assert list(searched.values()) == [2, 2, 2, 2]
        assert list(fitted.values()) == [0, 0, 0, 0]
    else:
        assert sorted(searched.values()) == [0, 0, 0, 2]
        assert [fitted[i] for i in folds if not searched[i]] == [1, 1, 1]
        assert [fitted[i] for i in folds if searched[i]] == [0]
