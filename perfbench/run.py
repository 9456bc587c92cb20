"""physioshap benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload select-explain --seed 1 --seconds 8 --trace 0

``--trace 0`` times the workload's stages untraced and prints the end-to-end
metrics; ``--trace 1`` runs every stage once untraced and once traced, and
prints the per-layer metrics and the tracing overhead. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
environment pins and the sha256 of every artifact. A failed check prints
``correct: false``; a missing package or a crashing stage exits non-zero.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, one thread: fixed before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PHYSIO_EXPLAIN_JOBS", None)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("extract-paper", "loso-search", "select-explain")
#: Set-up (inputs and warm-up) is repeated and its median reported, so that
#: one slow set-up does not stand for the run.
SETUP_REPS = 3
#: Repetitions of each probe stage (see Workload), at least.
PROBE_REPS = 6
#: Probes complete the metric set rather than carry seeded traffic, so their
#: inputs are the same on every run.
PROBE_SEED = 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _require_checkout() -> None:
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "physioshap" / "__init__.py", ROOT / "tests" / "reference.py",
                  ROOT / "BENCHMARK.json")
        if not p.is_file()
    ]
    if missing:
        sys.exit(f"perfbench: not a physioshap source checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


class Workload:
    """Stages of one workload plus the probes that complete its metrics.

    Every workload reports every end-to-end metric. A workload's main stages
    carry the traffic it was chosen for; each stage kind it does not cover runs
    as a probe on a small fixed input, so that its metric exists on every
    workload and every layer is reached in every traced run.
    """

    def __init__(self, name: str, seed: int, work: Path):
        import inputs
        import stages
        from physioshap import dataio, gbdt, pipeline, reporting
        from physioshap.entropy import FEATURE_NAMES

        self.name = name
        work.mkdir(parents=True)

        def table(tag, table_seed, subjects, trials):
            dataset = inputs.feature_table(table_seed, subjects, trials)
            path = work / f"{tag}_features.csv"
            dataio.write_features_csv(dataset, path)
            return dataset, path

        def head(tag, dataset, n):
            """The table of the first n trials of two subjects."""
            path = work / f"{tag}_head{n}_features.csv"
            dataio.write_features_csv(inputs.head_rows(dataset, n), path)
            return path

        def loso_json(tag, dataset):
            """What `physioshap loso` leaves for select, from fixed-config fits."""
            run = pipeline.run_loso_explained(
                dataset, stages.TARGET, 0, stages.RUN_SEED, fixed_config=stages.FIT, jobs=1
            )
            path = work / f"{tag}_loso_{stages.TARGET}.json"
            reporting.save_json(reporting.explained_run_to_dict(run), path)
            return path

        def saved_model(tag, dataset):
            model = gbdt.train(
                dataset.matrix(), dataset.labels(stages.TARGET), None, stages.MODEL,
                feature_names=FEATURE_NAMES,
            )
            path = work / f"{tag}_model_{stages.TARGET}.json"
            gbdt.save_model(model, path)
            return path

        # probes: small inputs for the stage kinds a workload's traffic skips;
        # explain and interactions use a model of the select-explain shape
        small, small_csv = table("probe", PROBE_SEED, 6, 40)
        wide, _ = table("probe-wide", PROBE_SEED, 8, 80)
        probe_model = saved_model("probe", wide)
        probes = {
            "extract": stages.Extract(inputs.trials(PROBE_SEED, 2, 2, inputs.SHORT), ROOT),
            "loso": stages.Loso(small_csv, 2),
            "select": stages.Select(small_csv, loso_json("probe", small), (5, 20, 51)),
            "explain": stages.Explain(head("probe", wide, 60), probe_model, False),
            "interact": stages.Explain(head("probe", wide, 1), probe_model, True),
        }
        if name == "extract-paper":
            main = [stages.Extract(inputs.trials(seed, 1, 1, inputs.PAPER), ROOT)]
        elif name == "loso-search":
            main = [stages.Loso(table("corpus", seed, 32, 40)[1], 2)]
        else:
            sweep, sweep_csv = table("sweep", seed, 8, 80)
            model = saved_model("sweep", sweep)
            main = [
                stages.Select(sweep_csv, loso_json("sweep", sweep), (3, 10, 51)),
                stages.Explain(head("sweep", sweep, 80), model, False),
                stages.Explain(head("sweep", sweep, 2), model, True),
            ]
        self.main = main
        covered = {s.kind for s in main}
        self.probes = [s for kind, s in probes.items() if kind not in covered]
        # warm-up: the probe extraction (two subjects) once, so that numpy's
        # lazy set-up (LAPACK for SSA among it) is done before anything is
        # timed; the model and attribution code has none
        (work / "warmup").mkdir()
        probes["extract"].run(work / "warmup")


def _run_stage(stage, role: str, out: Path, tracer=None):
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        outcome = stage.run(out)
    else:
        with tracer.stage(f"stage:{stage.kind}", role):
            outcome = stage.run(out)
    return outcome, time.perf_counter() - start


def _env_pins() -> dict:
    import numpy as np

    return {
        "jobs": 1,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float, work: Path, setup_s: float, spec: dict):
    """Untraced run: the main stages over and over until ``seconds`` pass (at
    least once), each probe at least PROBE_REPS times; every throughput is the
    median over the repetitions of its stage."""
    import stages as st

    rates: dict[str, list[float]] = {}
    last: dict[int, tuple] = {}
    seen: dict[int, dict] = {}
    attempted = failed = 0
    errors: list[str] = []

    def rep(stage, role) -> None:
        nonlocal attempted, failed
        out = work / f"{role}-{stage.kind}"
        outcome, wall = _run_stage(stage, role, out)
        attempted += outcome.ops
        failed += outcome.failed
        rates.setdefault(stage.metric, []).append(outcome.ops / wall)
        digest = st.digests(out)
        if seen.setdefault(id(stage), digest) != digest:
            errors.append(f"{role} {stage.kind}: artifacts differ between repetitions")
        last[id(stage)] = (stage, role, out, outcome)

    # Probes and main stages take turns, and half the probe turns come before
    # the first main repetition, so that every figure samples the whole run
    # even where one main repetition fills it: the machine's speed drifts
    # for seconds at a time.
    deadline = time.perf_counter() + seconds
    turns = mains = 0
    while turns < PROBE_REPS or time.perf_counter() < deadline:
        for stage in workload.probes:
            rep(stage, "probe")
        turns += 1
        if turns >= PROBE_REPS // 2 and (mains == 0 or time.perf_counter() < deadline):
            for stage in workload.main:
                rep(stage, "main")
            mains += 1
    errors += _check_all(last.values())
    metrics = {name: statistics.median(values) for name, values in rates.items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = _peak_rss_mb()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"end-to-end metrics not measured: {missing}")
    return errors, attempted, failed, {n: metrics.get(n) for n in units}, units


def _check_all(finished) -> list[str]:
    import stages as st

    errors = []
    for stage, role, out, outcome in finished:
        for rel, digest in st.digests(out).items():
            print(f"sha256 {role}/{stage.kind}/{rel} {digest}")
        try:
            stage.check(out, outcome)
        except st.CheckFailed as exc:
            errors.append(f"{role} {stage.kind}: {exc}")
    return errors


def trace(workload: Workload, work: Path, spec: dict):
    """Traced run: every stage once untraced, then once traced."""
    import stages as st
    import tracer as tr

    plan = [(s, "main") for s in workload.main] + [(s, "probe") for s in workload.probes]
    untraced = {}
    start = time.perf_counter()
    for stage, role in plan:
        out = work / f"untraced-{role}-{stage.kind}"
        _run_stage(stage, role, out)
        untraced[id(stage)] = st.digests(out)
    untraced_wall = time.perf_counter() - start

    tracer = tr.Tracer()
    finished = []
    attempted = failed = 0
    tracer.install(tr.targets())
    try:
        start = time.perf_counter()
        for stage, role in plan:
            out = work / f"traced-{role}-{stage.kind}"
            outcome, _ = _run_stage(stage, role, out, tracer)
            attempted += outcome.ops
            failed += outcome.failed
            finished.append((stage, role, out, outcome))
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    errors = []
    for stage, role, out, outcome in finished:
        if st.digests(out) != untraced[id(stage)]:
            errors.append(f"{role} {stage.kind}: traced artifacts differ from untraced")
    errors += _check_all(finished)

    layers = tr.Layers(tracer.spans)
    metrics = layers.compute()
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    select_failed = sum(o.failed for s, _, _, o in finished if s.kind == "select")
    if layers.failed_folds("stage:select") != select_failed:
        errors.append("select: failed evaluations differ from the folds seen failing")

    guide = json.loads((HERE / "layers.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in units:
        if name not in metrics:
            errors.append(f"per-layer metric {name} recorded no calls")
    for name, workloads in guide["main_calls"].items():
        if workload.name in workloads and not any(
            s.name == name and s.role == "main" for s in tracer.spans
        ):
            errors.append(f"{name}: no calls from the main stages of {workload.name}")
    print("trace " + json.dumps({
        "bindings_wrapped": tracer.bindings,
        "tail_percentiles": layers.tails,
        "untraced_s": untraced_wall,
        "traced_s": traced_wall,
        "spans": len(tracer.spans),
    }, sort_keys=True))
    return errors, attempted, failed, {n: metrics.get(n) for n in units}, units


def main(argv=None) -> int:
    args = _parse(argv)
    _require_checkout()
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy  # noqa: F401  (import cost belongs to setup)
    import physioshap  # noqa: F401
    import inputs  # noqa: F401
    import stages  # noqa: F401
    import tracer  # noqa: F401

    import_s = time.perf_counter() - _T0
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(1 if args.trace else SETUP_REPS):
            start = time.perf_counter()
            workload = Workload(args.workload, args.seed, work / f"setup-{i}")
            setups.append(time.perf_counter() - start)
        setup_s = import_s + sorted(setups)[len(setups) // 2]
        print("env " + json.dumps(_env_pins(), sort_keys=True))
        if args.trace:
            errors, attempted, failed, metrics, units = trace(workload, work, spec)
        else:
            errors, attempted, failed, metrics, units = measure(
                workload, args.seconds, work, setup_s, spec
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    for e in errors:
        print(f"check failed: {e}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": units[n]} for n, v in metrics.items() if v is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
