"""The summary of tools/bench_pairs.py on hand-made benchmark run lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "rate", "unit": "x/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.05},
    ]
}


def line(**metrics) -> str:
    """A last line as the benchmark prints it."""
    values = {n: {"value": v, "unit": "u"} for n, v in metrics.items()}
    return json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": values})


def runs(name, parent, change):
    return [
        {"workload": "w", "pair": pair, "tree": tree, **bench_pairs.parse_run(line(**{name: value}), 0)}
        for pair, values in enumerate(zip(parent, change))
        for tree, value in zip(("parent", "change"), values)
    ]


def test_medians_quartiles_and_wins():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [12.0, 11.0, 15.0, 16.0, 17.0]  # pair 1 ties
    got = bench_pairs.summarize(runs("rate", parent, change), SPEC)["w"]["metrics"]["rate"]
    assert got["parent"] == parent and got["change"] == change
    assert got["parent_median"] == 12.0 and got["parent_quartiles"] == [11.0, 13.0]
    assert got["change_median"] == 15.0 and got["change_quartiles"] == [12.0, 16.0]
    assert got["change_wins"] == 4 and got["pairs"] == 5
    assert got["verdict"] == "unresolved"  # 4 of 5 wins, and a spread above the bound
    assert "rss" not in bench_pairs.summarize(runs("rate", parent, change), SPEC)["w"]["metrics"]


@pytest.mark.parametrize("name, parent, change, verdict", [
    ("rate", [10.0] * 9 + [10.5], [12.0] * 9 + [12.5], "better"),
    ("rss", [50.0] * 10, [49.0] * 10, "better"),
    ("rss", [50.0] * 10, [53.0] * 10, "worse"),
    ("rate", [10.0] * 10, [7.0] * 10, "worse"),
    ("rate", [10.0, 10.1] * 5, [10.1, 10.0] * 5, "held"),
    ("rate", [5.0, 10.0, 15.0, 20.0] * 2, [6.0, 11.0, 14.0, 19.0] * 2, "unresolved"),
])
def test_verdicts_follow_the_metric_direction(name, parent, change, verdict):
    assert bench_pairs.summarize(runs(name, parent, change), SPEC)["w"]["metrics"][name]["verdict"] == verdict


def test_a_run_that_did_not_finish_is_bad_and_not_compared():
    assert bench_pairs.parse_run("env {}\nTraceback ...", 1) == {
        "correct": False, "failed": None, "metrics": {}, "returncode": 1,
    }
    records = runs("rate", [10.0, 11.0, 12.0], [10.5, 11.5, 12.5])
    records[2] = {**records[2], **bench_pairs.parse_run("", 2)}  # pair 1's parent
    got = bench_pairs.summarize(records, SPEC)["w"]
    assert got["bad_runs"] == {"parent": 1, "change": 0}
    assert got["metrics"]["rate"]["pairs"] == 3 and got["metrics"]["rate"]["parent"] == [10.0, 12.0]


def _spoil(records, at, **fields):
    records[at] = {**records[at], **fields}
    return records


@pytest.mark.parametrize("spoil", [
    lambda r: _spoil(r, 3, **bench_pairs.parse_run("Traceback ...", 1)),  # pair 1's change did not finish
    lambda r: _spoil(r, 3, correct=False),  # pair 1's change read correct: false
    lambda r: _spoil(r, 5, failed=1),  # pair 2's change failed an operation
])
def test_a_bad_or_failing_change_run_is_never_better(spoil):
    records = spoil(runs("rate", [10.0] * 9 + [10.5], [12.0] * 9 + [12.5]))
    got = bench_pairs.summarize(records, SPEC)["w"]["metrics"]["rate"]
    assert got["pairs"] == 10 and got["change_wins"] <= 10
    assert got["verdict"] != "better"


def test_a_change_that_never_finished_is_unresolved():
    records = [
        {**r, **bench_pairs.parse_run("", 1)} if r["tree"] == "change" else r
        for r in runs("rate", [10.0] * 10, [12.0] * 10)
    ]
    got = bench_pairs.summarize(records, SPEC)["w"]
    assert got["bad_runs"] == {"parent": 0, "change": 10}
    assert got["metrics"]["rate"] == {
        "unit": "x/s", "better": "higher", "pairs": 10, "parent": [], "change": [],
        "change_wins": 0, "verdict": "unresolved",
    }
