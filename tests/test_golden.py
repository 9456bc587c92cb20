"""Golden fixture: a tiny synthetic run through every CLI stage, in process,
checked byte for byte against stored sha256 digests.

The chain is extract -> loso -> select -> train -> explain --interactions ->
report, plus a ``search_mode: "global"`` loso and select on the same
features. The global pass leaves out liking, which it has pinned since
before global mode searched past a fold whose search trains no candidate;
``test_global_liking_searches_past_the_first_fold`` covers that case. It
runs at --jobs 1 and --jobs 2, and both must give the stored digests. Only
a change that declares changed output bits may re-pin
``golden_hashes.json``, by running ``python tests/test_golden.py`` with the
package on the path.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from physioshap import cli, pipeline
from physioshap.cli import main
from physioshap.dataio import read_features_csv
from physioshap.evaluate import RunAudit
from physioshap.pipeline import run_config_from_dict, run_loso_explained

HASHES = Path(__file__).parent / "golden_hashes.json"

CONFIG = {
    "synthetic": {
        "n_subjects": 4, "trials_per_subject": 6, "seed": 3, "duration_s": 4.0, "baseline_s": 1.0,
    },
    "search_iterations": 2,
    # small leaves and wide GOSS samples so that trees on 18 training rows
    # split and the attributions are not all zero
    "search_space": {
        "min_data_in_leaf": [2, 5],
        "base": {"max_rounds": 20, "early_stop": 5, "goss_a": 0.5, "goss_b": 0.3},
    },
    "seed": 7,
    "max_interaction_samples": 4,
}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, f"physioshap {' '.join(map(str, argv))} exited with {code}"


def _digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def golden_run(tmp: Path, jobs: int, name_features: bool = True) -> dict[str, str]:
    """Digests of every file the chain writes under ``tmp``. Without
    ``name_features`` the commands after extract find its features.csv in
    the run directory."""
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    global_cfg = tmp / "config_global.json"
    global_cfg.write_text(json.dumps({**CONFIG, "search_mode": "global", "targets": ["valence", "arousal"]}))
    out = tmp / "out"
    flags = ("--config", cfg, "--out", out, "--jobs", jobs)
    _cli("extract", *flags)
    features = ("--features", out / "features.csv")
    named = features if name_features else ()
    _cli("loso", *flags, *named)
    _cli("select", *flags, *named)
    _cli("train", *flags, *named, "--target", "valence")
    _cli(
        "explain", *flags, *named,
        "--model", out / "model_valence.json", "--target", "valence", "--interactions",
    )
    _cli("report", *flags, *named)
    gflags = ("--config", global_cfg, "--out", tmp / "out_global", "--jobs", jobs)
    _cli("loso", *gflags, *features)
    _cli("select", *gflags, *features)
    return {
        name: digest for name, digest in _digests(tmp).items() if not name.startswith("config")
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_digests(tmp_path, jobs):
    got = golden_run(tmp_path, jobs)
    expected = json.loads(HASHES.read_text())
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the golden run: {changed}"


def test_later_commands_read_the_run_directory_without_extracting(tmp_path, monkeypatch):
    # every call is extract's: one extract_dataset and one preprocess_trial
    # for each of the 24 trials
    calls = Counter()
    for module, name in ((pipeline, "preprocess_trial"), (pipeline, "extract_dataset"), (cli, "extract_dataset")):
        original = getattr(module, name)
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, lambda *a, _f=original, _k=key, **kw: calls.update([_k]) or _f(*a, **kw))
    got = golden_run(tmp_path, 1, name_features=False)
    assert calls == {"physioshap.pipeline.preprocess_trial": 24, "physioshap.cli.extract_dataset": 1}
    assert got == json.loads(HASHES.read_text())


def test_global_liking_searches_past_the_first_fold(tmp_path):
    # the first fold's liking search trains no candidate; global mode goes
    # on to the second fold's, and only the first fold fails
    doc = {**CONFIG, "search_mode": "global", "targets": ["liking"]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    _cli("extract", "--config", cfg, "--out", out)
    _cli("loso", "--config", cfg, "--out", out, "--features", out / "features.csv")
    report = json.loads((out / "loso_liking.json").read_text())["report"]
    assert report["failed_subjects"] == [1]
    audit = RunAudit()
    run_cfg = run_config_from_dict(doc)
    run = run_loso_explained(
        read_features_csv(out / "features.csv"), "liking", run_cfg.search_iterations, run_cfg.seed,
        space=run_cfg.search_space, audit=audit, search_mode="global",
    )
    assert sorted(k for k in audit.stages if k[1] == "search") == [(1, "search"), (2, "search")]
    assert len({f.config for f in run.report.folds[1:]}) == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        HASHES.write_text(json.dumps(golden_run(Path(tmp), 1), indent=1, sort_keys=True) + "\n")
    print(f"re-pinned {HASHES}", file=sys.stderr)
