"""Report and plot-data emission.

All files are byte-stable for identical inputs: JSON uses sorted keys and
CSV floats use shortest round-trip formatting. report.json carries every
metric, chosen config, and ranking; the CSV side-files are shaped for the
standard plots (selection curve, importance bars, interaction heatmap,
main-effect scatter).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import write_csv, written_whole
from .entropy import FEATURE_NAMES
from .errors import InvalidArgumentError, SchemaMismatchError
from .evaluate import CvReport, Dataset, DatasetRow, FoldResult, MetricSummary
from .explain import ImportanceRanking, SelectionResult, SelectionRow, ShapExplanation
from .gbdt import TrainConfig
from .pipeline import ExplainedRun, PredictionRow


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def cv_report_to_dict(report: CvReport) -> dict:
    return dataclasses.asdict(report)


def _fold_from_dict(d: dict) -> FoldResult:
    cfg = TrainConfig(**d["config"]) if d["config"] is not None else None
    return FoldResult(**{**d, "config": cfg})


def cv_report_from_dict(d: dict) -> CvReport:
    return CvReport(
        target=d["target"],
        folds=tuple(_fold_from_dict(f) for f in d["folds"]),
        summary=MetricSummary(**d["summary"]),
        failed_subjects=tuple(d["failed_subjects"]),
    )


def explained_run_to_dict(run: ExplainedRun) -> dict:
    return {
        "report": cv_report_to_dict(run.report),
        "importance": [[name, score] for name, score in run.importance.entries],
        "row_ids": list(run.row_ids),
        "base_values": [e.base_value for e in run.explanations],
        "shap_values": [e.values.tolist() for e in run.explanations],
        "feature_names": list(run.explanations[0].feature_names) if run.explanations else [],
        "predictions": [dataclasses.asdict(p) for p in run.predictions],
    }


def explained_run_from_dict(d: dict) -> ExplainedRun:
    names = tuple(d["feature_names"])
    explanations = tuple(
        ShapExplanation(np.array(vals), base, names)
        for vals, base in zip(d["shap_values"], d["base_values"])
    )
    return ExplainedRun(
        report=cv_report_from_dict(d["report"]),
        explanations=explanations,
        row_ids=tuple(d["row_ids"]),
        importance=ImportanceRanking(tuple((n, s) for n, s in d["importance"])),
        predictions=tuple(PredictionRow(**p) for p in d["predictions"]),
    )


def selection_to_dict(sel: SelectionResult) -> dict:
    return dataclasses.asdict(sel)


def selection_from_dict(d: dict) -> SelectionResult:
    return SelectionResult(**{**d, "rows": tuple(SelectionRow(**r) for r in d["rows"])})


def save_json(doc, path) -> None:
    with written_whole(path) as fh:
        fh.write(_json_dumps(doc))


def load_json(path):
    return json.loads(Path(path).read_text())


def load_artifact(path, parse):
    """Read a JSON stage artifact through ``parse``.

    A file that is not JSON, lacks a field or holds a value of the wrong
    shape raises SchemaMismatchError naming the file.
    """
    try:
        return parse(load_json(path))
    except (AttributeError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise SchemaMismatchError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc


def write_shap_csv(rows: Sequence[DatasetRow], explanations: Sequence[ShapExplanation], path) -> None:
    """Sample x feature attribution table, one line per explained row."""
    names = explanations[0].feature_names if explanations else FEATURE_NAMES
    write_csv(path, ("subject", "trial", "base_value", *names), (
        [r.subject_id, r.trial_id, float(exp.base_value), *exp.values.tolist()]
        for r, exp in zip(rows, explanations)
    ))


def write_explanations_csv(run: ExplainedRun, dataset: Dataset, path) -> None:
    """The SHAP table of the pooled held-out explanations of a LOSO run."""
    rows_by_id = {r.row_id: r for r in dataset.rows}
    write_shap_csv([rows_by_id[i] for i in run.row_ids], run.explanations, path)


@dataclass(frozen=True)
class TargetArtifacts:
    """Everything the final report needs for one prediction target."""

    target: str
    run: ExplainedRun
    selection: SelectionResult | None = None
    interaction_mean_abs: np.ndarray | None = None
    interaction_names: tuple[str, ...] | None = None


def _strongest_interactor(mat: np.ndarray, names: Sequence[str], feature: str) -> str:
    i = list(names).index(feature)
    off = mat[i].copy()
    off[i] = -np.inf
    return names[int(np.argmax(off))]


def emit_report(artifacts: Sequence[TargetArtifacts], dataset: Dataset, out_dir) -> list[Path]:
    """Write report.json plus the plot-data CSVs; returns the written paths.

    Refuses to write anything when the artifact list is empty or a target
    has no successful folds.
    """
    if not artifacts:
        raise InvalidArgumentError("emit_report called with no results")
    for art in artifacts:
        ok = [f for f in art.run.report.folds if not f.failed]
        if not ok:
            raise InvalidArgumentError(f"target {art.target}: no successful folds to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    report_doc: dict = {"targets": {}}
    for art in artifacts:
        doc = {
            "cv": cv_report_to_dict(art.run.report),
            "importance": [[n, s] for n, s in art.run.importance.entries],
        }
        if art.selection is not None:
            doc["selection"] = selection_to_dict(art.selection)
        report_doc["targets"][art.target] = doc
    path = out / "report.json"
    with written_whole(path) as fh:
        fh.write(_json_dumps(report_doc))
    written.append(path)

    def table(name: str, header: Sequence[str], rows) -> None:
        path = out / name
        write_csv(path, header, rows)
        written.append(path)

    table("importance.csv", ("target", "rank", "feature", "mean_abs_shap"), (
        (art.target, rank, name, score)
        for art in artifacts
        for rank, (name, score) in enumerate(art.run.importance.entries, start=1)
    ))

    if any(art.selection is not None for art in artifacts):
        table("selection_curve.csv", ("target", "k", "accuracy", "accuracy_se", "f1", "f1_se"), (
            (art.target, r.k, r.accuracy, r.accuracy_se, r.f1, r.f1_se)
            for art in artifacts if art.selection is not None
            for r in art.selection.rows
        ))

    if any(art.interaction_mean_abs is not None for art in artifacts):
        rows = []
        for art in artifacts:
            if art.interaction_mean_abs is None:
                continue
            # the ten features with the largest off-diagonal row sums, ties to the lower index
            names = art.interaction_names or FEATURE_NAMES
            mat = art.interaction_mean_abs
            totals = mat.sum(axis=1) - np.diag(mat)
            order = sorted(range(len(names)), key=lambda i: (-totals[i], i))[:10]
            rows += [(art.target, names[i], names[j], mat[i, j]) for i in order for j in order]
        table("interactions.csv", ("target", "feature_i", "feature_j", "mean_abs_interaction"), rows)

    table("predictions.csv", ("target", "subject", "trial", "y_true", "probability", "y_pred"), (
        (art.target, p.subject_id, p.trial_id, p.y_true, p.probability, int(p.probability > 0.5))
        for art in artifacts
        for p in art.run.predictions
    ))

    # main-effect scatter data for each target's top-ranked feature
    rows_by_id = {r.row_id: r for r in dataset.rows}
    effects: dict[str, list] = {}
    for art in artifacts:
        if not art.run.importance.entries:
            continue
        feature = art.run.importance.entries[0][0]
        names = art.run.explanations[0].feature_names
        fi = list(names).index(feature)
        interactor = None
        if art.interaction_mean_abs is not None:
            inames = art.interaction_names or FEATURE_NAMES
            if feature in inames:
                interactor = _strongest_interactor(art.interaction_mean_abs, inames, feature)
        rows = effects.setdefault(feature, [])
        for row_id, exp in zip(art.run.row_ids, art.run.explanations):
            r = rows_by_id[row_id]
            rows.append((
                art.target, r.subject_id, r.trial_id, r.features[feature], exp.values[fi],
                interactor or "", r.features[interactor] if interactor else "",
            ))
    header = ("target", "subject", "trial", "feature_value", "shap_value", "interactor", "interactor_value")
    for feature, rows in effects.items():
        table(f"effects_{feature}.csv", header, rows)
    return written
