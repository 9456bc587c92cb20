"""Command-line entry points.

Subcommands: synth, ingest-check, extract, train, loso, explain, select,
report. Every subcommand takes --config/--seed/--out/--jobs; configuration
is fully validated before any work starts. Exit codes: 0 success, 1
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, reporting
from .entropy import FEATURE_NAMES
from .errors import (
    ConfigError,
    IngestionError,
    InvalidArgumentError,
    PhysioShapError,
    SchemaMismatchError,
)
from .evaluate import Dataset
from .explain import global_importance, shap_interactions, shap_values_batch
from .gbdt import inner_holdout_split, load_model, random_search, save_model, train
from .pipeline import (
    RunConfig,
    apply_paper_mode,
    extract_dataset,
    resolve_jobs,
    run_config_from_dict,
    run_loso_explained,
    selection_sweep,
)
from .synthetic import generate_synthetic

_VALIDATION_ERRORS = (ConfigError, InvalidArgumentError, IngestionError, SchemaMismatchError)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", help="override the configured output directory")
    p.add_argument(
        "--jobs", type=int,
        help="worker processes (first set wins: --jobs, env PHYSIO_EXPLAIN_JOBS, config jobs; else 1)",
    )
    p.add_argument("--paper-mode", action="store_true", help="pin method parameters to published defaults")


def _load_config(args) -> RunConfig:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        cfg = run_config_from_dict(doc)
    else:
        cfg = RunConfig()
    if args.paper_mode:
        cfg = apply_paper_mode(cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    cfg = replace(cfg, jobs=resolve_jobs(args.jobs, cfg.jobs))
    return cfg


def _load_dataset(args, cfg: RunConfig) -> Dataset:
    if getattr(args, "features", None):
        return dataio.read_features_csv(args.features)
    trials = None
    if getattr(args, "data", None):
        trials = dataio.ingest_dataset(args.data)
    elif cfg.data_dir:
        trials = dataio.ingest_dataset(cfg.data_dir)
    elif cfg.synthetic is not None:
        trials = generate_synthetic(cfg.synthetic)
    if trials is None:
        raise ConfigError("no input: pass --features/--data or configure data_dir/synthetic")
    return extract_dataset(trials, cfg.preprocess, cfg.ssa, cfg.entropy, jobs=cfg.jobs)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    spec = cfg.synthetic
    if spec is None:
        raise ConfigError("synth needs a synthetic spec in the config")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    trials = generate_synthetic(spec)
    out = _out_dir(cfg)
    dataio.write_dataset(trials, out)
    print(f"wrote {len(trials)} trials ({spec.n_subjects} subjects) to {out}")
    return 0


def cmd_ingest_check(args) -> int:
    cfg = _load_config(args)
    source = args.data or cfg.data_dir
    if not source:
        raise ConfigError("ingest-check needs --data or a configured data_dir")
    trials = dataio.ingest_dataset(source)
    subjects = sorted({t.subject_id for t in trials})
    n = trials[0].n_samples
    print(f"ok: {len(trials)} trials, {len(subjects)} subjects, {n} signal samples per channel")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    out = _out_dir(cfg)
    path = out / "features.csv"
    dataio.write_features_csv(dataset, path)
    print(f"wrote {path} ({len(dataset)} rows x {len(FEATURE_NAMES)} features)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    X = dataset.matrix()
    y = dataset.labels(args.target)
    groups = dataset.groups()
    if cfg.search_iterations >= 1:
        chosen = random_search(
            X, y, groups, space=cfg.search_space,
            iterations=cfg.search_iterations, seed=cfg.seed,
        )
    else:
        chosen = cfg.search_space.base
    tr_mask, va_mask = inner_holdout_split(groups, cfg.seed)
    model = train(X[tr_mask], y[tr_mask], (X[va_mask], y[va_mask]), chosen, feature_names=FEATURE_NAMES)
    out = _out_dir(cfg)
    path = out / f"model_{args.target}.json"
    save_model(model, path)
    print(f"wrote {path} (best_iteration={model.best_iteration})")
    return 0


def cmd_loso(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    out = _out_dir(cfg)
    artifacts = []
    for target in cfg.targets:
        run = run_loso_explained(
            dataset, target, cfg.search_iterations, cfg.seed,
            space=cfg.search_space, jobs=cfg.jobs, search_mode=cfg.search_mode,
        )
        reporting.save_json(reporting.explained_run_to_dict(run), out / f"loso_{target}.json")
        reporting.write_explanations_csv(run, dataset, out / f"explanations_{target}.csv")
        artifacts.append(reporting.TargetArtifacts(target=target, run=run))
        if run.explanations and not any(e.values.any() for e in run.explanations):
            print(
                f"warning: {target}: every attribution is 0 because no fold model ever split; "
                "the importance ranking is only the canonical feature order",
                file=sys.stderr,
            )
        s = run.report.summary
        print(
            f"{target}: accuracy {s.accuracy:.3f} (se {s.accuracy_se:.3f}), "
            f"f1 {s.f1:.3f} (se {s.f1_se:.3f}), failed folds: {len(run.report.failed_subjects)}"
        )
    reporting.emit_report(artifacts, dataset, out)
    print(f"wrote report.json and plot data to {out}")
    return 0


def cmd_explain(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    model = load_model(args.model)
    out = _out_dir(cfg)
    X = dataset.matrix(model.feature_names)
    explanations = shap_values_batch(model, X)
    ranking = global_importance(explanations)
    reporting.write_shap_csv(dataset.rows, explanations, out / f"shap_{args.target}.csv")
    reporting.save_json(
        {"importance": [[n, s] for n, s in ranking.entries]},
        out / f"importance_{args.target}.json",
    )
    if args.interactions:
        take = min(len(dataset), cfg.max_interaction_samples)
        mats = [shap_interactions(model, X[i]) for i in range(take)]
        mean_abs = np.mean([np.abs(m.matrix) for m in mats], axis=0)
        reporting.save_json(
            {
                "feature_names": list(model.feature_names),
                "mean_abs_interaction": mean_abs.tolist(),
                "n_samples": take,
            },
            out / f"interactions_{args.target}.json",
        )
    print(f"explained {len(dataset)} samples for {args.target} into {out}")
    return 0


def _load_loso_run(out: Path, target: str):
    loso_path = out / f"loso_{target}.json"
    if not loso_path.exists():
        raise ConfigError(f"{loso_path} missing; run `physioshap loso` first")
    return reporting.load_artifact(loso_path, reporting.explained_run_from_dict)


def cmd_select(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    out = _out_dir(cfg)
    for target in cfg.targets:
        run = _load_loso_run(out, target)
        result = selection_sweep(dataset, target, run, cfg.seed)
        reporting.save_json(reporting.selection_to_dict(result), out / f"selection_{target}.json")
        print(
            f"{target}: best f1 {max(r.f1 for r in result.rows):.3f} at k={result.best_k_f1}, "
            f"best accuracy {max(r.accuracy for r in result.rows):.3f} at k={result.best_k_accuracy}"
        )
    return 0


def _interaction_summary(doc) -> tuple[np.ndarray, tuple[str, ...]]:
    return np.array(doc["mean_abs_interaction"], dtype=float), tuple(doc["feature_names"])


def cmd_report(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    out = _out_dir(cfg)
    artifacts = []
    for target in cfg.targets:
        run = _load_loso_run(out, target)
        selection = None
        sel_path = out / f"selection_{target}.json"
        if sel_path.exists():
            selection = reporting.load_artifact(sel_path, reporting.selection_from_dict)
        interaction = None
        names = None
        int_path = out / f"interactions_{target}.json"
        if int_path.exists():
            interaction, names = reporting.load_artifact(int_path, _interaction_summary)
        artifacts.append(
            reporting.TargetArtifacts(
                target=target,
                run=run,
                selection=selection,
                interaction_mean_abs=interaction,
                interaction_names=names,
            )
        )
    written = reporting.emit_report(artifacts, dataset, out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physioshap",
        description="Explainable emotion prediction from peripheral physiological signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    _common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", help="validate a dataset directory")
    _common_flags(p)
    p.add_argument("--data", help="dataset directory")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("extract", help="preprocess + decompose + featurize into features.csv")
    _common_flags(p)
    p.add_argument("--data", help="dataset directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="search and train one model on all rows")
    _common_flags(p)
    p.add_argument("--features", help="features.csv from `extract`")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--target", required=True, choices=("valence", "arousal", "liking"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("loso", help="leave-one-subject-out evaluation with explanations")
    _common_flags(p)
    p.add_argument("--features", help="features.csv from `extract`")
    p.add_argument("--data", help="dataset directory")
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("explain", help="attribute a saved model over a feature table")
    _common_flags(p)
    p.add_argument("--features", help="features.csv from `extract`")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--model", required=True, help="model JSON from `train`")
    p.add_argument("--target", required=True, choices=("valence", "arousal", "liking"))
    p.add_argument("--interactions", action="store_true", help="also compute interaction matrices")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("select", help="importance-ordered feature-count sweep")
    _common_flags(p)
    p.add_argument("--features", help="features.csv from `extract`")
    p.add_argument("--data", help="dataset directory")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("report", help="emit report.json and plot-data CSVs from run artifacts")
    _common_flags(p)
    p.add_argument("--features", help="features.csv from `extract`")
    p.add_argument("--data", help="dataset directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PhysioShapError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # unforeseen faults (a dead worker pool, a LinAlgError) are runtime
        # failures too; name where they were raised instead of a traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"runtime failure: {type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
