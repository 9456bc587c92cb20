"""User-level stages the benchmark times, and the checks on their outputs.

Each stage does what one CLI step does, through the package's public
functions, and is timed whole: reading its inputs, the computation, and
writing its artifacts. ``run`` returns the operations attempted and failed
plus what ``check`` needs; ``check`` raises ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from physioshap import cli, dataio, pipeline, reporting
from physioshap.entropy import EntropyConfig, fuzzy_entropy, sample_entropy
from physioshap.evaluate import RunAudit
from physioshap.explain import shap_interactions
from physioshap.gbdt import SearchSpace, TrainConfig, load_model, predict_margin
from physioshap.signals import preprocess_trial

TARGET = "valence"
#: The package's own seed (RunConfig.seed), fixed like any other config
#: value: the benchmark seed varies the data, not the search candidates.
RUN_SEED = 0
#: Round budget of every fit in search, LOSO and select: the mean number of
#: rounds that fits with the package defaults (500 rounds, patience 30) grew
#: on the loso-search table (see BASELINE.md). Patience equals the budget, so
#: every fit grows exactly this many rounds and the work per fit does not hang
#: on where one seed's validation loss bottoms out; best_iteration is still
#: chosen on the holdout. Every other setting is the package default.
FIT_ROUNDS = 80
FIT = TrainConfig(max_rounds=FIT_ROUNDS, early_stop=FIT_ROUNDS)
#: The saved model that explain reads, trained without a holdout so that all
#: its trees are used: sized so that SHAP and interactions cost per sample
#: what the hand measurements in ROADMAP.md found (1-4 ms and 60-410 ms).
MODEL = TrainConfig(num_leaves=8, learning_rate=0.2, max_rounds=30, early_stop=30)
#: Tolerances of the numeric oracles every change must keep passing.
ENTROPY_TOL = 1e-12
SHAP_TOL = 1e-6
#: Samples per component given to the O(N^2) reference kernels.
REFERENCE_PREFIX = 256


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    ops: int
    failed: int
    payload: object = None


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact a stage wrote, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reference_module(root: Path):
    path = root / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("physioshap_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_entropy_kernels(trial, root: Path) -> None:
    """SampEn and FuzzyEn of a prefix of every component of one trial match
    the independent O(N^2) reference."""
    ref = _reference_module(root)
    cfg = EntropyConfig()
    components = pipeline.decompose_trial(preprocess_trial(trial))
    for tag, comps in components.items():
        for i, comp in enumerate(comps):
            x = np.asarray(getattr(comp, "values", comp), dtype=np.float64)[:REFERENCE_PREFIX]
            sd = x.std()
            se = sample_entropy(x, cfg)
            se_ref = ref.sample_entropy_reference(x, cfg.m, cfg.r * sd)
            fe = fuzzy_entropy(x, cfg)
            fe_ref = ref.fuzzy_entropy_reference(x / sd, cfg.m, cfg.r, cfg.n)
            _require(abs(se - se_ref) <= ENTROPY_TOL, f"{tag}{i + 1} SampEn {se!r} != reference {se_ref!r}")
            _require(abs(fe - fe_ref) <= ENTROPY_TOL, f"{tag}{i + 1} FuzzyEn {fe!r} != reference {fe_ref!r}")


def _check_audit(audit: RunAudit, dataset, stages: tuple[str, ...]) -> None:
    """No fold's held-out subject reaches search or training."""
    rows_of: dict[int, set[int]] = {}
    for r in dataset.rows:
        rows_of.setdefault(r.subject_id, set()).add(r.row_id)
    for subject, held_out in rows_of.items():
        for stage in stages:
            touched = audit.touched(subject, stage)
            _require(bool(touched), f"audit: fold {subject} recorded no {stage} rows")
            _require(not (touched & held_out), f"audit: fold {subject} {stage} saw its test subject")


class Extract:
    """`physioshap extract`: trials to features.csv through extract_dataset.

    A single trial goes through ``trial_features``, the per-trial body that
    extract_dataset maps over its trials with jobs=1, because a dataset needs
    at least two subjects.
    """

    kind = "extract"
    metric = "extract_trials_per_s"

    def __init__(self, trials, root: Path):
        self.trials = trials
        self.root = root

    def run(self, out: Path) -> Outcome:
        if len(self.trials) == 1:
            fv = pipeline.trial_features(self.trials[0])
            (out / "features.json").write_text(json.dumps(fv.values))
            matrix = fv.as_array()[None, :]
        else:
            dataset = pipeline.extract_dataset(self.trials, jobs=1)
            dataio.write_features_csv(dataset, out / "features.csv")
            matrix = dataset.matrix()
        return Outcome(len(self.trials), 0, matrix)

    def check(self, out: Path, outcome: Outcome) -> None:
        matrix = outcome.payload
        _require(matrix.shape == (len(self.trials), 51), f"feature matrix shape {matrix.shape}")
        _require(bool(np.all(np.isfinite(matrix))), "non-finite extracted features")
        check_entropy_kernels(self.trials[0], self.root)


class Loso:
    """`physioshap loso` for one target, with a leakage audit."""

    kind = "loso"
    metric = "loso_folds_per_s"

    def __init__(self, features: Path, search_budget: int):
        self.features = features
        self.budget = search_budget

    def run(self, out: Path) -> Outcome:
        dataset = dataio.read_features_csv(self.features)
        audit = RunAudit()
        run = pipeline.run_loso_explained(
            dataset, TARGET, self.budget, RUN_SEED,
            space=SearchSpace(base=FIT),
            audit=audit, jobs=1, search_mode="per-fold",
        )
        reporting.save_json(reporting.explained_run_to_dict(run), out / f"loso_{TARGET}.json")
        reporting.write_explanations_csv(run, dataset, out / f"explanations_{TARGET}.csv")
        reporting.emit_report([reporting.TargetArtifacts(target=TARGET, run=run)], dataset, out)
        folds = len(run.report.folds)
        return Outcome(folds, len(run.report.failed_subjects), (dataset, run, audit))

    def check(self, out: Path, outcome: Outcome) -> None:
        dataset, run, audit = outcome.payload
        _check_audit(audit, dataset, ("search", "train") if self.budget >= 1 else ("train",))
        _require(len(run.explanations) == len(run.predictions), "explanations and predictions differ in count")
        for exp, pred in zip(run.explanations, run.predictions):
            # the fold model is not kept; its margin is the logit of the saved probability
            p = pred.probability
            margin = math.log(p) - math.log1p(-p)
            tol = SHAP_TOL + 4e-16 / (p * (1.0 - p))
            err = abs(exp.base_value + float(exp.values.sum()) - margin)
            _require(err <= tol, f"SHAP local accuracy off by {err:.3g} on row {pred.row_id}")


class Select:
    """`physioshap select` for one target over a fixed list of prefix sizes."""

    kind = "select"
    metric = "select_evals_per_s"

    def __init__(self, features: Path, loso_json: Path, k_values: tuple[int, ...]):
        self.features = features
        self.loso_json = loso_json
        self.k_values = k_values

    def run(self, out: Path) -> Outcome:
        dataset = dataio.read_features_csv(self.features)
        run = reporting.explained_run_from_dict(reporting.load_json(self.loso_json))
        audit = RunAudit()
        result = pipeline.selection_sweep(
            dataset, TARGET, run, RUN_SEED, audit=audit, k_values=self.k_values
        )
        reporting.save_json(reporting.selection_to_dict(result), out / f"selection_{TARGET}.json")
        # a fold fails in the sweep exactly when it failed in LOSO: both train on
        # the same inner split of the same labels, and only degenerate labels fail
        failed = len(run.report.failed_subjects) * len(self.k_values)
        return Outcome(len(run.report.folds) * len(self.k_values), failed, (dataset, result, audit))

    def check(self, out: Path, outcome: Outcome) -> None:
        dataset, result, audit = outcome.payload
        _check_audit(audit, dataset, ("train",))
        _require(tuple(r.k for r in result.rows) == self.k_values, "selection rows do not match k values")
        _require(all(0.0 <= r.accuracy <= 1.0 for r in result.rows), "selection accuracy out of [0, 1]")


class Explain:
    """`physioshap explain [--interactions]` through the CLI, in process."""

    def __init__(self, features: Path, model: Path, interactions: bool):
        self.features = features
        self.model = model
        self.interactions = interactions
        self.kind = "interact" if interactions else "explain"
        self.metric = "interaction_samples_per_s" if interactions else "explain_samples_per_s"

    def run(self, out: Path) -> Outcome:
        argv = [
            "explain", "--features", str(self.features), "--model", str(self.model),
            "--target", TARGET, "--out", str(out), "--jobs", "1",
        ]
        if self.interactions:
            argv.append("--interactions")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"physioshap {' '.join(argv)} exited with {code}")
        if self.interactions:
            ops = reporting.load_json(out / f"interactions_{TARGET}.json")["n_samples"]
        else:
            with (out / f"shap_{TARGET}.csv").open() as fh:
                ops = sum(1 for _ in fh) - 1
        return Outcome(ops, 0)

    def check(self, out: Path, outcome: Outcome) -> None:
        dataset = dataio.read_features_csv(self.features)
        X = dataset.matrix()
        model = load_model(self.model)
        with (out / f"shap_{TARGET}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        _require(len(rows) == X.shape[0], f"{len(rows)} SHAP rows for {X.shape[0]} samples")
        shap = np.array([[float(c) for c in row[3:]] for row in rows])
        base = np.array([float(row[2]) for row in rows])
        err = np.abs(base + shap.sum(axis=1) - predict_margin(model, X))
        _require(float(err.max()) <= SHAP_TOL, f"SHAP local accuracy off by {err.max():.3g}")
        if not self.interactions:
            return
        doc = reporting.load_json(out / f"interactions_{TARGET}.json")
        mats = [shap_interactions(model, X[i]).matrix for i in range(doc["n_samples"])]
        for i, mat in enumerate(mats):
            _require(float(np.abs(mat - mat.T).max()) <= SHAP_TOL, f"interaction matrix {i} not symmetric")
            row_err = float(np.abs(mat.sum(axis=1) - shap[i]).max())
            _require(row_err <= SHAP_TOL, f"interaction rows of sample {i} miss SHAP by {row_err:.3g}")
        mean_abs = np.mean([np.abs(m) for m in mats], axis=0)
        written = np.array(doc["mean_abs_interaction"])
        _require(bool(np.allclose(written, mean_abs, rtol=0.0, atol=1e-12)),
                 "written mean |interaction| differs from the checked matrices")
