"""Leave-one-subject-out evaluation: label binarization, metrics, the fold
engine, and paired comparison.

Every fold holds one subject out for testing; hyperparameter search, early
stopping, and training only ever see the remaining subjects. A FoldPlan
lays out one (dataset, target) once: matrix, labels, groups, row ids, folds
and fold seeds. run_fold fits and scores one fold of a plan and returns
the row ids each stage consumed, so that leakage can be asserted from an
audit, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .entropy import FEATURE_NAMES, FeatureVector
from .errors import (
    DegenerateComparisonError,
    DegenerateLabelsError,
    InvalidArgumentError,
)
from .gbdt import GbdtModel, SearchSpace, TrainConfig, fit, predict_margin
from .signals import RATING_NAMES


def binarize_label(rating: float, threshold: float = 5.0) -> int:
    """Map a 9-point rating to a binary label: 1 iff strictly above threshold."""
    if not (1.0 <= rating <= 9.0):
        raise InvalidArgumentError(f"rating {rating} outside [1, 9]")
    return 1 if rating > threshold else 0


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    f1: float


def compute_metrics(y_true, y_pred) -> Metrics:
    """Accuracy and positive-class f1. f1 is 0 when precision+recall is 0."""
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.size == 0 or yt.size != yp.size:
        raise InvalidArgumentError("y_true and y_pred must be equal-length and non-empty")
    accuracy = float((yt == yp).mean())
    tp = int(((yt == 1) & (yp == 1)).sum())
    fp = int(((yt == 0) & (yp == 1)).sum())
    fn = int(((yt == 1) & (yp == 0)).sum())
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return Metrics(accuracy, float(f1))


@dataclass(frozen=True)
class MetricSummary:
    """Mean and standard error of both metrics over folds."""

    accuracy: float
    accuracy_se: float
    f1: float
    f1_se: float


@dataclass(frozen=True, eq=False)
class DatasetRow:
    row_id: int
    subject_id: int
    trial_id: int
    features: FeatureVector
    ratings: Mapping[str, float]


@dataclass(eq=False)
class Dataset:
    """Feature rows of many subjects sharing the canonical feature schema."""

    rows: list[DatasetRow]

    def __post_init__(self):
        if len({r.subject_id for r in self.rows}) < 2:
            raise InvalidArgumentError("dataset needs at least 2 subjects")
        ids = [r.row_id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise InvalidArgumentError("row ids must be unique")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def subjects(self) -> list[int]:
        return sorted({r.subject_id for r in self.rows})

    def matrix(self, feature_subset: Sequence[str] | None = None) -> np.ndarray:
        names = tuple(feature_subset) if feature_subset is not None else FEATURE_NAMES
        unknown = [n for n in names if n not in FEATURE_NAMES]
        if unknown:
            raise InvalidArgumentError(f"unknown features requested: {unknown}")
        return np.array([[r.features[n] for n in names] for r in self.rows])

    def labels(self, target: str, threshold: float = 5.0) -> np.ndarray:
        if target not in RATING_NAMES:
            raise InvalidArgumentError(f"unknown target {target!r}")
        return np.array([binarize_label(r.ratings[target], threshold) for r in self.rows])

    def groups(self) -> np.ndarray:
        return np.array([r.subject_id for r in self.rows])


@dataclass(frozen=True)
class LosoFold:
    subject_id: int
    train_idx: np.ndarray
    test_idx: np.ndarray


def loso_split(dataset: Dataset) -> list[LosoFold]:
    """One fold per subject: that subject's rows test, all others train."""
    groups = dataset.groups()
    subjects = dataset.subjects
    if len(subjects) < 2:
        raise InvalidArgumentError("leave-one-subject-out needs at least 2 subjects")
    folds = []
    for s in subjects:
        test = np.flatnonzero(groups == s)
        trn = np.flatnonzero(groups != s)
        folds.append(LosoFold(s, trn, test))
    return folds


class RunAudit:
    """Records which dataset row ids each stage of each fold touched."""

    def __init__(self):
        self.stages: dict[tuple[int, str], set[int]] = {}

    def record(self, subject_id: int, stage: str, row_ids) -> None:
        self.stages.setdefault((subject_id, stage), set()).update(int(i) for i in row_ids)

    def record_fold(self, subject_id: int, stages) -> None:
        """Record the (stage, row ids) pairs that run_fold returns."""
        for stage, row_ids in stages:
            self.record(subject_id, stage, row_ids)

    def touched(self, subject_id: int, stage: str) -> set[int]:
        return self.stages.get((subject_id, stage), set())


@dataclass(frozen=True)
class FoldResult:
    subject_id: int
    n_test: int
    accuracy: float
    f1: float
    config: TrainConfig | None
    best_iteration: int
    failed: bool = False
    reason: str = ""


@dataclass(frozen=True)
class CvReport:
    target: str
    folds: tuple[FoldResult, ...]
    summary: MetricSummary
    failed_subjects: tuple[int, ...]

    def per_fold(self, metric: str) -> np.ndarray:
        return np.array([getattr(f, metric) for f in self.folds if not f.failed])


def _standard_error(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def summarize_folds(folds: Sequence[FoldResult]) -> MetricSummary:
    ok = [f for f in folds if not f.failed]
    if not ok:
        raise DegenerateLabelsError("every fold failed; nothing to aggregate")
    acc = np.array([f.accuracy for f in ok])
    f1 = np.array([f.f1 for f in ok])
    return MetricSummary(
        accuracy=float(acc.mean()),
        accuracy_se=_standard_error(acc),
        f1=float(f1.mean()),
        f1_se=_standard_error(f1),
    )


def fold_seed(seed: int, subject_id: int) -> int:
    """The seed of one fold: its search, default config and inner holdout."""
    return int(np.random.SeedSequence([seed, int(subject_id)]).generate_state(1)[0])


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """One (dataset, target) laid out once for leave-one-subject-out.

    Holds the float matrix, labels, groups and row ids, the folds (indices
    into those arrays, never copies) and each fold's seed.
    """

    X: np.ndarray
    y: np.ndarray
    groups: np.ndarray
    row_ids: np.ndarray
    folds: tuple[LosoFold, ...]
    seeds: tuple[int, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES

    @classmethod
    def build(cls, dataset: Dataset, target: str, seed: int) -> "FoldPlan":
        folds = tuple(loso_split(dataset))
        return cls(
            X=dataset.matrix(),
            y=dataset.labels(target),
            groups=dataset.groups(),
            row_ids=np.array([r.row_id for r in dataset.rows]),
            folds=folds,
            seeds=tuple(fold_seed(seed, f.subject_id) for f in folds),
        )

    def columns(self, names: Sequence[str]) -> "FoldPlan":
        """The same plan over the named features only, in the given order."""
        names = tuple(names)
        unknown = [n for n in names if n not in self.feature_names]
        if unknown:
            raise InvalidArgumentError(f"unknown features requested: {unknown}")
        cols = [self.feature_names.index(n) for n in names]
        return replace(self, X=self.X.take(cols, axis=1), feature_names=names)


def run_fold(
    plan: FoldPlan,
    index: int,
    search_budget: int,
    space: SearchSpace | None = None,
    fixed_config: TrainConfig | None = None,
) -> tuple[FoldResult, GbdtModel | None, tuple]:
    """Fit (``gbdt.fit`` on the train subjects, seeded by the fold) and
    score fold ``index``.

    Returns the result, the fold's model (None when the fold failed) and
    the audit stages: (stage, row ids) pairs in the order they ran.
    """
    fold = plan.folds[index]
    tr, te = fold.train_idx, fold.test_idx
    searched = fixed_config is None and search_budget >= 1
    stages = [("search" if searched else "train", plan.row_ids[tr])]
    try:
        cfg, model = fit(
            plan.X[tr], plan.y[tr], plan.groups[tr], plan.seeds[index],
            search_budget, space, fixed_config, plan.feature_names,
        )
    except DegenerateLabelsError as exc:
        result = FoldResult(fold.subject_id, te.size, math.nan, math.nan, None, 0, True, str(exc))
        return result, None, tuple(stages)
    if searched:
        stages.append(("train", plan.row_ids[tr]))
    pred = (predict_margin(model, plan.X[te]) > 0).astype(int)
    m = compute_metrics(plan.y[te], pred)
    result = FoldResult(fold.subject_id, te.size, m.accuracy, m.f1, cfg, model.best_iteration)
    return result, model, tuple(stages)


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; midranks handle ties. With 12 or fewer
    non-zero differences the null distribution is enumerated exactly over
    all sign assignments, otherwise a normal approximation with tie
    correction is used.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidArgumentError("paired samples must be equal-length 1-D arrays")
    diff = a - b
    diff = diff[diff != 0]
    if diff.size == 0:
        raise DegenerateComparisonError("all paired differences are zero")
    n = diff.size
    if n < 5:
        raise InvalidArgumentError(f"need >= 5 non-zero differences, got {n}")
    ranks = _midranks(np.abs(diff))
    w_pos = float(ranks[diff > 0].sum())
    mu = n * (n + 1) / 4.0
    if n <= 12:
        masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        w_all = masks @ ranks
        stat = abs(w_pos - mu)
        return float(np.count_nonzero(np.abs(w_all - mu) >= stat - 1e-12) / 2**n)
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(((counts**3 - counts) / 48.0).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    # continuity correction keeps the approximation near the exact tail sums
    z = max(abs(w_pos - mu) - 0.5, 0.0) / math.sqrt(var)
    return float(math.erfc(z / math.sqrt(2.0)))


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
