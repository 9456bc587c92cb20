"""The benchmark's stages against the package: ``perfbench/stages.py`` runs
each CLI step through package functions and checks its outputs against the
numeric oracles, so a change to a function a stage calls fails here instead
of at bench time."""

import importlib.util
import sys
from pathlib import Path

import pytest

from physioshap import dataio

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    return _load("inputs", monkeypatch), _load("stages", monkeypatch)


def _run_checked(stage, out: Path):
    out.mkdir()
    outcome = stage.run(out)
    stage.check(out, outcome)
    return outcome


def test_extract_stage_passes_its_check(bench, tmp_path):
    # the check compares SampEn and FuzzyEn of every decomposed component to the reference
    inputs, stages = bench
    trials = inputs.trials(0, 2, 1, inputs.SHORT)
    outcome = _run_checked(stages.Extract(trials, ROOT), tmp_path / "extract")
    assert (outcome.ops, outcome.failed) == (2, 0)


def test_loso_and_select_stages_pass_their_checks(bench, tmp_path):
    inputs, stages = bench
    features = tmp_path / "features.csv"
    dataio.write_features_csv(inputs.feature_table(0, 4, 8), features)
    loso = _run_checked(stages.Loso(features, 1), tmp_path / "loso")
    assert (loso.ops, loso.failed) == (4, 0)
    loso_json = tmp_path / "loso" / f"loso_{stages.TARGET}.json"
    select = _run_checked(stages.Select(features, loso_json, (3, 51)), tmp_path / "select")
    assert (select.ops, select.failed) == (8, 0)
