"""Orchestration: trials through preprocessing, decomposition, and feature
extraction into datasets; per-fold explanation pooling; the feature-selection
sweep; and the validated run configuration shared by the CLI subcommands.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .entropy import EntropyConfig, FeatureVector, extract_feature_vector
from .errors import ConfigError, SchemaMismatchError
from .evaluate import (
    CvReport,
    Dataset,
    DatasetRow,
    MetricSummary,
    RunAudit,
    loso_split,
    run_fold,
    summarize_folds,
)
from .explain import (
    ImportanceRanking,
    SelectionResult,
    ShapExplanation,
    global_importance,
    select_features,
    shap_values_batch,
)
from .gbdt import SearchSpace, TrainConfig
from .signals import (
    SCR_PHASIC_KEY,
    SCR_TONIC_KEY,
    ChannelKind,
    PreprocessConfig,
    Trial,
    preprocess_trial,
)
from .ssa import AUTO, SsaConfig, decompose, hard_threshold_rank
from .synthetic import SyntheticSpec

#: channel tag used in feature names; SCR appears as GSR
CHANNEL_TAGS: dict[ChannelKind, str] = {
    kind: ("GSR" if kind is ChannelKind.SCR else kind.value) for kind in ChannelKind
}


def decompose_trial(trial: Trial, cfg: SsaConfig | None = None) -> dict[str, list]:
    """Decompose a preprocessed trial into its per-channel kept components.

    SCR decomposes its phasic part and carries the tonic part as its second
    component. With AUTO the hard-threshold rank decides how many components
    to keep for a channel; fixed counts are used as given.
    """
    cfg = cfg or SsaConfig()
    if SCR_PHASIC_KEY not in trial.extras or SCR_TONIC_KEY not in trial.extras:
        raise SchemaMismatchError("trial lacks SCR phasic/tonic parts; run preprocess_trial first")
    out: dict[str, list] = {}
    for kind in ChannelKind:
        source = trial.extras[SCR_PHASIC_KEY] if kind is ChannelKind.SCR else trial.channels[kind]
        decomp = decompose(source, cfg)
        kept = cfg.kept_components.get(kind, AUTO)
        if kept == AUTO:
            embed_shape = (cfg.window_len, len(source) - cfg.window_len + 1)
            kept = max(1, hard_threshold_rank(decomp.singular_values, *embed_shape))
        kept = int(kept)
        if decomp.rank < kept:
            raise SchemaMismatchError(
                f"channel {kind.value}: rank {decomp.rank} below kept count {kept}"
            )
        comps = [decomp.components[i] for i in range(kept)]
        if kind is ChannelKind.SCR:
            comps = [comps[0], trial.extras[SCR_TONIC_KEY]]
        out[CHANNEL_TAGS[kind]] = comps
    return out


def trial_features(
    trial: Trial,
    pre_cfg: PreprocessConfig | None = None,
    ssa_cfg: SsaConfig | None = None,
    ent_cfg: EntropyConfig | None = None,
) -> FeatureVector:
    processed = preprocess_trial(trial, pre_cfg)
    components = decompose_trial(processed, ssa_cfg)
    return extract_feature_vector(components, ent_cfg)


def _feature_worker(args) -> tuple[int, FeatureVector]:
    idx, trial, pre_cfg, ssa_cfg, ent_cfg = args
    return idx, trial_features(trial, pre_cfg, ssa_cfg, ent_cfg)


def extract_dataset(
    trials: Sequence[Trial],
    pre_cfg: PreprocessConfig | None = None,
    ssa_cfg: SsaConfig | None = None,
    ent_cfg: EntropyConfig | None = None,
    jobs: int = 1,
) -> Dataset:
    """Run the full feature pipeline over many trials (optionally in a
    process pool; results are order-stable either way)."""
    tasks = [(i, t, pre_cfg, ssa_cfg, ent_cfg) for i, t in enumerate(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_feature_worker, tasks, chunksize=4))
    else:
        results = dict(map(_feature_worker, tasks))
    rows = [
        DatasetRow(
            row_id=i,
            subject_id=trials[i].subject_id,
            trial_id=trials[i].trial_id,
            features=results[i],
            ratings=dict(trials[i].ratings),
        )
        for i in range(len(trials))
    ]
    return Dataset(rows)


@dataclass(frozen=True)
class PredictionRow:
    row_id: int
    subject_id: int
    trial_id: int
    y_true: int
    probability: float


@dataclass(frozen=True)
class ExplainedRun:
    """LOSO results plus explanations of every held-out sample, pooled."""

    report: CvReport
    explanations: tuple[ShapExplanation, ...]
    row_ids: tuple[int, ...]
    importance: ImportanceRanking
    predictions: tuple[PredictionRow, ...]


def _explained_fold_worker(args):
    dataset, fold, target, search_budget, seed, space, fixed_config = args
    from .gbdt import predict_margin, sigmoid

    local_audit = RunAudit()
    result, model = run_fold(
        dataset, fold, target, search_budget, seed,
        space=space, fixed_config=fixed_config, audit=local_audit, return_model=True,
    )
    if model is None:
        return result, local_audit.stages, None, 0.0, (), ()
    X = dataset.matrix()
    y = dataset.labels(target)
    exps = shap_values_batch(model, X[fold.test_idx])
    phi = np.vstack([e.values for e in exps])
    probs = sigmoid(predict_margin(model, X[fold.test_idx]))
    row_ids = []
    preds = []
    for i, p in zip(fold.test_idx, probs):
        row = dataset.rows[i]
        row_ids.append(int(row.row_id))
        preds.append(
            PredictionRow(int(row.row_id), row.subject_id, row.trial_id, int(y[i]), float(p))
        )
    return result, local_audit.stages, phi, exps[0].base_value, tuple(row_ids), tuple(preds)


def run_loso_explained(
    dataset: Dataset,
    target: str,
    search_budget: int,
    seed: int,
    space: SearchSpace | None = None,
    fixed_config: TrainConfig | None = None,
    audit: RunAudit | None = None,
    jobs: int = 1,
    search_mode: str = "per-fold",
) -> ExplainedRun:
    """LOSO evaluation that also explains each fold's test samples with the
    fold's own model, pooling the attributions for a global ranking.

    ``search_mode="global"`` searches once on the first fold's training
    subjects and reuses that config everywhere. Folds fan out to a process
    pool when jobs > 1; per-fold seeding keeps the result identical to the
    sequential run.
    """
    from .entropy import FEATURE_NAMES
    from .evaluate import _fold_seed
    from .gbdt import random_search

    folds = loso_split(dataset)
    if search_mode not in ("per-fold", "global"):
        raise ConfigError(f"unknown search_mode {search_mode!r}")
    if search_mode == "global" and fixed_config is None and search_budget >= 1:
        first = folds[0]
        if audit is not None:
            row_ids = np.array([r.row_id for r in dataset.rows])
            audit.record(first.subject_id, "search", row_ids[first.train_idx])
        fixed_config = random_search(
            dataset.matrix()[first.train_idx],
            dataset.labels(target)[first.train_idx],
            dataset.groups()[first.train_idx],
            space=space,
            iterations=search_budget,
            seed=_fold_seed(seed, first.subject_id),
        )
    tasks = [
        (dataset, fold, target, search_budget, seed, space, fixed_config) for fold in folds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_explained_fold_worker, tasks))
    else:
        outcomes = [_explained_fold_worker(t) for t in tasks]
    results = []
    explanations: list[ShapExplanation] = []
    row_ids: list[int] = []
    predictions: list[PredictionRow] = []
    for result, fold_stages, phi, base, fold_rows, fold_preds in outcomes:
        results.append(result)
        if audit is not None:
            for (subject, stage), ids in fold_stages.items():
                audit.record(subject, stage, ids)
        if phi is None:
            continue
        explanations.extend(
            ShapExplanation(phi[k], base, FEATURE_NAMES) for k in range(phi.shape[0])
        )
        row_ids.extend(fold_rows)
        predictions.extend(fold_preds)
    report = CvReport(
        target, tuple(results), summarize_folds(results),
        tuple(f.subject_id for f in results if f.failed),
    )
    importance = global_importance(explanations)
    return ExplainedRun(report, tuple(explanations), tuple(row_ids), importance, tuple(predictions))


def loso_subset_evaluator(
    dataset: Dataset,
    target: str,
    seed: int,
    configs_by_subject: Mapping[int, TrainConfig],
    audit: RunAudit | None = None,
):
    """Build the selection callback: evaluate a feature prefix by rerunning
    LOSO with each fold's already-chosen config restricted to that prefix."""
    folds = loso_split(dataset)

    def evaluate(feature_subset: tuple[str, ...]) -> MetricSummary:
        results = []
        for fold in folds:
            cfg = configs_by_subject.get(fold.subject_id)
            results.append(
                run_fold(
                    dataset, fold, target, 0, seed,
                    fixed_config=cfg, feature_subset=feature_subset, audit=audit,
                )
            )
        return summarize_folds(results)

    return evaluate


def selection_sweep(
    dataset: Dataset,
    target: str,
    run: ExplainedRun,
    seed: int,
    audit: RunAudit | None = None,
    k_values: Sequence[int] | None = None,
) -> SelectionResult:
    """Importance-ordered k-sweep reusing the per-fold configs of ``run``."""
    configs = {f.subject_id: f.config for f in run.report.folds if not f.failed}
    evaluate = loso_subset_evaluator(dataset, target, seed, configs, audit=audit)
    return select_features(run.importance, evaluate, k_values=k_values)


# --- run configuration -------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for a CLI run. Unknown keys are rejected."""

    data_dir: str | None = None
    synthetic: SyntheticSpec | None = None
    targets: tuple[str, ...] = ("valence", "arousal", "liking")
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    ssa: SsaConfig = field(default_factory=SsaConfig)
    entropy: EntropyConfig = field(default_factory=EntropyConfig)
    search_space: SearchSpace = field(default_factory=SearchSpace)
    search_iterations: int = 300
    search_mode: str = "per-fold"
    seed: int = 0
    out_dir: str = "out"
    jobs: int = 1
    max_interaction_samples: int = 128

    def __post_init__(self):
        if self.search_iterations < 0:
            raise ConfigError("search_iterations must be >= 0")
        if self.search_mode not in ("per-fold", "global"):
            raise ConfigError(f"unknown search_mode {self.search_mode!r}")
        bad = [t for t in self.targets if t not in ("valence", "arousal", "liking")]
        if bad or not self.targets:
            raise ConfigError(f"targets must be a non-empty subset of valence/arousal/liking: {bad}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.max_interaction_samples < 1:
            raise ConfigError("max_interaction_samples must be >= 1")


def _dataclass_from_mapping(cls, data: Mapping, path: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected an object")
    allowed = {f.name for f in fields(cls)}
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return data


def run_config_from_dict(doc: Mapping) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys
    everywhere and validating all sub-configs before any work starts."""
    data = dict(_dataclass_from_mapping(RunConfig, doc, "config"))
    try:
        if "synthetic" in data and data["synthetic"] is not None:
            sub = _dataclass_from_mapping(SyntheticSpec, data["synthetic"], "config.synthetic")
            data["synthetic"] = SyntheticSpec(**sub)
        if "preprocess" in data:
            sub = dict(_dataclass_from_mapping(PreprocessConfig, data["preprocess"], "config.preprocess"))
            if "smooth_span" in sub:
                sub["smooth_span"] = {ChannelKind(k): int(v) for k, v in sub["smooth_span"].items()}
            if "detrend_exempt" in sub:
                sub["detrend_exempt"] = frozenset(ChannelKind(k) for k in sub["detrend_exempt"])
            data["preprocess"] = PreprocessConfig(**sub)
        if "ssa" in data:
            sub = dict(_dataclass_from_mapping(SsaConfig, data["ssa"], "config.ssa"))
            if "kept_components" in sub:
                sub["kept_components"] = {
                    ChannelKind(k): (v if v == AUTO else int(v))
                    for k, v in sub["kept_components"].items()
                }
            data["ssa"] = SsaConfig(**sub)
        if "entropy" in data:
            sub = _dataclass_from_mapping(EntropyConfig, data["entropy"], "config.entropy")
            data["entropy"] = EntropyConfig(**sub)
        if "search_space" in data:
            sub = dict(_dataclass_from_mapping(SearchSpace, data["search_space"], "config.search_space"))
            for key in ("learning_rate", "feature_fraction"):
                if key in sub:
                    sub[key] = (float(sub[key][0]), float(sub[key][1]))
            for key in ("num_leaves", "min_data_in_leaf", "max_depth"):
                if key in sub:
                    sub[key] = (int(sub[key][0]), int(sub[key][1]))
            if "base" in sub:
                base = _dataclass_from_mapping(TrainConfig, sub["base"], "config.search_space.base")
                sub["base"] = TrainConfig(**base)
            data["search_space"] = SearchSpace(**sub)
        if "targets" in data:
            data["targets"] = tuple(data["targets"])
        return RunConfig(**data)
    except (ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def apply_paper_mode(cfg: RunConfig) -> RunConfig:
    """Pin the method parameters to their published defaults."""
    return replace(
        cfg,
        preprocess=PreprocessConfig(),
        ssa=SsaConfig(),
        entropy=EntropyConfig(),
        search_space=SearchSpace(),
        search_iterations=300,
    )


def resolve_jobs(cli_jobs: int | None, config_jobs: int = 1) -> int:
    """--jobs wins, then the PHYSIO_EXPLAIN_JOBS environment variable, then
    the configured ``jobs`` (1, single-process, unless configured)."""
    if cli_jobs is not None:
        return max(1, int(cli_jobs))
    env = os.environ.get("PHYSIO_EXPLAIN_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"PHYSIO_EXPLAIN_JOBS={env!r} is not an integer") from exc
    return config_jobs
