"""The benchmark's tracer against the package: ``perfbench/tracer.py`` wraps
package functions by name and reads model fields in its notes, so a rename
that would break a traced benchmark run fails here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import small_config
from physioshap import explain, gbdt

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
