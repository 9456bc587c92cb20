"""Orchestration: trials through preprocessing, decomposition, and feature
extraction into datasets; the two LOSO loops, both over one FoldPlan per
target (explained LOSO with per-fold or global search, and the
feature-selection sweep); and the validated run configuration shared by the
CLI subcommands.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Mapping
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum
from functools import partial
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .entropy import COMPONENT_SCHEMA, EntropyConfig, FeatureVector, extract_feature_vector
from .errors import ConfigError, DegenerateLabelsError, SchemaMismatchError
from .evaluate import (
    CvReport,
    Dataset,
    DatasetRow,
    FoldPlan,
    MetricSummary,
    RunAudit,
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
from .gbdt import SearchSpace, TrainConfig, predict_margin, sigmoid
from .signals import (
    RATING_NAMES,
    SCR_PHASIC_KEY,
    SCR_TONIC_KEY,
    ChannelKind,
    PreprocessConfig,
    Trial,
    preprocess_trial,
)
from .ssa import SsaConfig, decompose
from .synthetic import SyntheticSpec

SEARCH_MODES = ("per-fold", "global")


def decompose_trial(trial: Trial, cfg: SsaConfig | None = None) -> dict[str, list]:
    """Decompose a preprocessed trial into the components COMPONENT_SCHEMA names.

    Each channel keeps its leading SSA components. SCR decomposes its phasic
    part, keeps one component of it, and carries its tonic part as the second.
    """
    cfg = cfg or SsaConfig()
    if SCR_PHASIC_KEY not in trial.extras or SCR_TONIC_KEY not in trial.extras:
        raise SchemaMismatchError("trial lacks SCR phasic/tonic parts; run preprocess_trial first")
    out: dict[str, list] = {}
    for kind, tag, count in COMPONENT_SCHEMA:
        scr = kind is ChannelKind.SCR
        kept = count - 1 if scr else count
        decomp = decompose(trial.extras[SCR_PHASIC_KEY] if scr else trial.channels[kind], cfg)
        if decomp.rank < kept:
            raise SchemaMismatchError(
                f"channel {kind.value}: rank {decomp.rank} below kept count {kept}"
            )
        comps = list(decomp.components[:kept])
        if scr:
            comps.append(trial.extras[SCR_TONIC_KEY])
        out[tag] = comps
    return out


def trial_features(
    trial: Trial,
    pre_cfg: PreprocessConfig | None = None,
    ssa_cfg: SsaConfig | None = None,
    ent_cfg: EntropyConfig | None = None,
) -> FeatureVector:
    processed = preprocess_trial(trial, pre_cfg)
    components = decompose_trial(processed, ssa_cfg)
    try:
        return extract_feature_vector(components, ent_cfg)
    except ConfigError as exc:
        raise ConfigError(f"subject {trial.subject_id}, trial {trial.trial_id}, {exc}") from exc


_worker_fn = None  # a pool worker's task function, set once by _adopt


def _adopt(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_adopted(task):
    return _worker_fn(*task)


def fan_out(fn, tasks: Sequence[tuple], jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order. With jobs > 1 and two
    or more tasks they run in min(jobs, len(tasks)) worker processes, each of
    which receives ``fn`` (say, a partial holding what all tasks share) once."""
    if jobs <= 1 or len(tasks) < 2:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_adopt, initargs=(fn,)) as pool:
        return list(pool.map(_run_adopted, tasks))


def extract_dataset(
    trials: Sequence[Trial],
    pre_cfg: PreprocessConfig | None = None,
    ssa_cfg: SsaConfig | None = None,
    ent_cfg: EntropyConfig | None = None,
    jobs: int = 1,
) -> Dataset:
    """Run the full feature pipeline over many trials (optionally in a
    process pool; results are order-stable either way). A ``window_len`` or
    smoothing span longer than the shortest trial, or an entropy ``m`` that
    leaves it no (m+1)-template pair, fails before any trial is processed."""
    window = (ssa_cfg or SsaConfig()).window_len
    span = max((pre_cfg or PreprocessConfig()).smooth_span.values())
    m = (ent_cfg or EntropyConfig()).m
    shortest = min((t.n_samples for t in trials), default=max(window, span, m + 2))
    for name, length in (("ssa.window_len", window), ("preprocess.smooth_span", span)):
        if length > shortest:
            raise ConfigError(f"{name} {length} exceeds the shortest trial ({shortest} samples)")
    if m + 1 >= shortest:
        raise ConfigError(f"entropy.m {m} needs trials longer than m + 1 samples; the shortest has {shortest}")
    featurize = partial(trial_features, pre_cfg=pre_cfg, ssa_cfg=ssa_cfg, ent_cfg=ent_cfg)
    features = fan_out(featurize, [(t,) for t in trials], jobs)
    rows = [
        DatasetRow(
            row_id=i,
            subject_id=t.subject_id,
            trial_id=t.trial_id,
            features=fv,
            ratings=dict(t.ratings),
        )
        for i, (t, fv) in enumerate(zip(trials, features))
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


def _explain_fold(plan: FoldPlan, index: int, search_budget: int, space, config):
    """Run one fold, then explain and score its held-out rows with its model."""
    result, model, stages = run_fold(plan, index, search_budget, space=space, fixed_config=config)
    if model is None:
        return result, stages, None
    X_test = plan.X[plan.folds[index].test_idx]
    return result, stages, (shap_values_batch(model, X_test), sigmoid(predict_margin(model, X_test)))


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

    ``search_mode="global"`` searches fold by fold, in fold order, until a
    search trains a candidate; that fold keeps the model its search trained
    and every other fold is fitted with the config it settled on. Folds
    whose training labels collapse to one class are flagged and left out of
    the aggregates. Folds fan out to a process pool when jobs > 1, each
    worker receiving the plan once; per-fold seeding keeps the result
    identical to the sequential run.
    """
    if search_mode not in SEARCH_MODES:
        raise ConfigError(f"unknown search_mode {search_mode!r}")
    plan = FoldPlan.build(dataset, target, seed)
    settled = None
    if search_mode == "global" and fixed_config is None and search_budget >= 1:
        for i, fold in enumerate(plan.folds):
            outcome = _explain_fold(plan, i, search_budget, space, None)
            result, stages, explained = outcome
            if explained is not None:
                settled, fixed_config = i, result.config
                break
            if audit is not None:
                audit.record_fold(fold.subject_id, stages)
        else:
            raise DegenerateLabelsError(result.reason)
    tasks = [(i, search_budget, space, fixed_config) for i in range(len(plan.folds)) if i != settled]
    outcomes = fan_out(partial(_explain_fold, plan), tasks, jobs)
    if settled is not None:
        outcomes.insert(settled, outcome)
    results = []
    explanations: list[ShapExplanation] = []
    predictions: list[PredictionRow] = []
    for fold, (result, stages, explained) in zip(plan.folds, outcomes):
        results.append(result)
        if audit is not None:
            audit.record_fold(fold.subject_id, stages)
        if explained is None:
            continue
        fold_explanations, probs = explained
        explanations.extend(fold_explanations)
        for i, p in zip(fold.test_idx, probs):
            row = dataset.rows[i]
            predictions.append(
                PredictionRow(int(row.row_id), row.subject_id, row.trial_id, int(plan.y[i]), float(p))
            )
    report = CvReport(
        target, tuple(results), summarize_folds(results),
        tuple(f.subject_id for f in results if f.failed),
    )
    return ExplainedRun(
        report, tuple(explanations), tuple(p.row_id for p in predictions),
        global_importance(explanations), tuple(predictions),
    )


def selection_sweep(
    dataset: Dataset,
    target: str,
    run: ExplainedRun,
    seed: int,
    audit: RunAudit | None = None,
    k_values: Sequence[int] | None = None,
) -> SelectionResult:
    """Importance-ordered k-sweep: each top-k prefix reruns LOSO on those
    columns of one plan, every fold with its config from ``run``."""
    plan = FoldPlan.build(dataset, target, seed)
    configs = {f.subject_id: f.config for f in run.report.folds if not f.failed}

    def evaluate(names: tuple[str, ...]) -> MetricSummary:
        prefix = plan.columns(names)
        results = []
        for i, fold in enumerate(prefix.folds):
            result, _, stages = run_fold(prefix, i, 0, fixed_config=configs.get(fold.subject_id))
            results.append(result)
            if audit is not None:
                audit.record_fold(fold.subject_id, stages)
        return summarize_folds(results)

    return select_features(run.importance, evaluate, k_values=k_values)


# --- run configuration -------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for a CLI run. Unknown keys are rejected."""

    data_dir: str | None = None
    synthetic: SyntheticSpec | None = None
    targets: tuple[str, ...] = RATING_NAMES
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
        if self.search_mode not in SEARCH_MODES:
            raise ConfigError(f"unknown search_mode {self.search_mode!r}")
        bad = [t for t in self.targets if t not in RATING_NAMES]
        if bad or not self.targets:
            raise ConfigError(f"targets must be a non-empty subset of {'/'.join(RATING_NAMES)}: {bad}")
        if len(set(self.targets)) < len(self.targets):
            raise ConfigError(f"targets must be distinct: {list(self.targets)}")
        widest = max(count for _, _, count in COMPONENT_SCHEMA)
        if self.ssa.window_len < widest:
            raise ConfigError(f"ssa.window_len must be at least {widest}, the most components a channel keeps")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.max_interaction_samples < 1:
            raise ConfigError("max_interaction_samples must be >= 1")


def _read(hint, value, path: str):
    """Read a parsed JSON value as its field's annotation ``hint``; every
    error, a dataclass's own checks included, is a ConfigError naming ``path``."""
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: expected an object")
        hints = get_type_hints(hint)
        unknown = [k for k in value if k not in hints]
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        kwargs = {k: _read(hints[k], v, f"{path}.{k}") for k, v in value.items()}
        try:
            return hint(**kwargs)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, path)
    if origin is Mapping:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: {value!r} is not of type Mapping")
        return {_read(args[0], k, f"{path}.{k}"): _read(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: {value!r} is not of type {origin.__name__}")
        kinds = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
        if len(value) != len(kinds):
            raise ConfigError(f"{path}: {value!r} has {len(value)} items, not {len(kinds)}")
        return origin(_read(k, v, path) for k, v in zip(kinds, value))
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"{path}: {value!r} is not a {hint.__name__} value") from None
    # a float field takes an int; an int field no float; no number a bool
    if not isinstance(value, (int, float) if hint is float else hint) or isinstance(value, bool):
        raise ConfigError(f"{path}: {value!r} is not of type {hint.__name__}")
    return value


def run_config_from_dict(doc: Mapping) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, reading every value
    against its field's annotation before any work starts."""
    return _read(RunConfig, doc, "config")


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
    the configured ``jobs`` (1, single-process, unless configured). A value
    below 1 is a ConfigError, whichever source gave it."""
    env = os.environ.get("PHYSIO_EXPLAIN_JOBS")
    if cli_jobs is not None:
        source, jobs = "--jobs", int(cli_jobs)
    elif env:
        try:
            source, jobs = "PHYSIO_EXPLAIN_JOBS", int(env)
        except ValueError as exc:
            raise ConfigError(f"PHYSIO_EXPLAIN_JOBS={env!r} is not an integer") from exc
    else:
        source, jobs = "config jobs", config_jobs
    if jobs < 1:
        raise ConfigError(f"{source} must be >= 1, got {jobs}")
    return jobs
