"""Collect alternating parent/change pairs of benchmark runs into one file.

Run from the root of a source checkout:

    python3 tools/bench_pairs.py --parent REV --label L

The parent revision is exported with ``git archive`` into a temporary
directory, removed at exit; the change is this checkout's working tree,
recorded as its ``HEAD`` plus, when the tree differs from it, a digest of
the difference. Pair ``i`` of ten runs every workload in ``BENCHMARK.json``
once in each tree, untraced, with seed ``SEED0 + i`` and ``BENCHMARK.json``'s
run length; even pairs run the parent first and odd pairs the change first.
Each run's last line is kept. ``BENCH_<L>.json`` is rewritten after every
run, so an interrupted collection keeps the pairs it finished. Its
``summary`` gives, for each workload, both sides' failed operations and runs
that did not finish or did not read ``correct: true`` (``bad_runs``), and for
each end-to-end metric both sides' values, medians and quartiles over the
pairs where both runs are good, the pairs the change won, and a verdict.
Wins are counted out of all pairs run, so a pair with a bad run is never a
win for the change; ties count for neither side.

- ``better``: the change won at least nine tenths of all pairs run, failed
  no more operations and had no more bad runs than the parent, and its
  median differs from the parent's by more than the parent's quartile
  distance;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: neither, and no pair was compared or the spread between
  quartiles on either side exceeds the bound, unless every change run reads
  better than every parent run;
- ``held``: otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
PAIRS = 10
SEED0 = 1000


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def tree_state() -> dict:
    """This checkout's ``HEAD`` and, if the working tree differs from it, the
    sha256 of ``git diff HEAD`` and of every untracked file's name and bytes."""
    state = {"rev": _git("rev-parse", "HEAD"), "uncommitted": bool(_git("status", "--porcelain"))}
    if state["uncommitted"]:
        digest = hashlib.sha256(_git("diff", "HEAD", "--binary").encode())
        for name in sorted(_git("ls-files", "--others", "--exclude-standard").splitlines()):
            digest.update(name.encode() + b"\0" + (ROOT / name).read_bytes())
        state["diff_sha256"] = digest.hexdigest()
    return state


def parse_run(stdout: str, returncode: int) -> dict:
    """What one run reports: its last line, or its failure to finish."""
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if returncode == 0 and lines else None
    except json.JSONDecodeError:
        last = None
    if not isinstance(last, dict):
        return {"correct": False, "failed": None, "metrics": {}, "returncode": returncode}
    metrics = {name: m["value"] for name, m in last.get("metrics", {}).items()}
    return {"correct": last.get("correct"), "failed": last.get("failed"), "metrics": metrics}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def _compare(metric: dict, parent: list[float], change: list[float], pairs: int, clean: bool) -> dict:
    """Medians, quartiles, wins and verdict of one metric's paired values."""
    if not parent:
        return {"change_wins": 0, "verdict": "unresolved"}
    lower = metric["better"] == "lower"
    (pq1, pmed, pq3), (cq1, cmed, cq3) = _quartiles(parent), _quartiles(change)
    sign = -1.0 if lower else 1.0  # positive: the change reads better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if clean and wins >= 0.9 * pairs and abs(cmed - pmed) > pq3 - pq1:
        verdict = "better"
    elif worse_by > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "held"
    return {
        "parent_median": pmed,
        "parent_quartiles": [pq1, pq3],
        "change_median": cmed,
        "change_quartiles": [cq1, cq3],
        "change_wins": wins,
        "verdict": verdict,
    }


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric, the comparison of the two trees."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["tree"]): r for r in mine}
        pairs = sorted(p for p, tree in by_pair if tree == "parent" and (p, "change") in by_pair)
        failed = {t: sum(r["failed"] or 0 for r in mine if r["tree"] == t) for t in TREES}
        bad = {t: sum(r["correct"] is not True for r in mine if r["tree"] == t) for t in TREES}
        clean = failed["change"] <= failed["parent"] and bad["change"] <= bad["parent"]
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not any(name in r["metrics"] for r in mine):
                continue
            good = [
                p for p in pairs
                if all(by_pair[p, t]["correct"] is True and name in by_pair[p, t]["metrics"] for t in TREES)
            ]
            parent, change = ([by_pair[p, t]["metrics"][name] for p in good] for t in TREES)
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "pairs": len(pairs),
                "parent": parent,
                "change": change,
                **_compare(metric, parent, change, len(pairs), clean),
            }
        summary[workload] = {"failed": failed, "bad_runs": bad, "metrics": metrics}
    return summary


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, str | None]:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    env = next((line[4:] for line in proc.stdout.splitlines() if line.startswith("env ")), None)
    return parse_run(proc.stdout, proc.returncode), env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare against")
    p.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "label": args.label,
        "parent": _git("rev-parse", args.parent),
        "change": tree_state(),
        "seconds": spec["run_seconds"],
        "seed0": SEED0,
        "env": {},
        "runs": [],
    }
    path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(doc["parent"], Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for pair in range(PAIRS):
            for workload in (w["name"] for w in spec["workloads"]):
                for tree in TREES if pair % 2 == 0 else TREES[::-1]:
                    seed = SEED0 + pair
                    result, env = _run(trees[tree], spec["command"], workload, seed, spec["run_seconds"])
                    if env:
                        doc["env"].setdefault(tree, json.loads(env))
                    doc["runs"].append({"workload": workload, "pair": pair, "seed": seed, "tree": tree, **result})
                    doc["summary"] = summarize(doc["runs"], spec)
                    path.write_text(json.dumps(doc, indent=1) + "\n")
                    print(f"pair {pair} {workload} {tree}: correct={result['correct']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
