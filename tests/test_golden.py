"""Golden fixture: a tiny synthetic run through every CLI stage, in process,
checked byte for byte against stored sha256 digests.

The chain is extract -> loso -> select -> train -> explain --interactions ->
report, plus a ``search_mode: "global"`` loso and select on the same
features. The global pass leaves out liking: on this table the first fold's
liking search cannot train a candidate, and global mode then stops the whole
run (exit 2) where per-fold mode flags that one fold as failed. It runs at --jobs 1 and --jobs 2, and both must give the stored
digests. Only a change that declares changed output bits may re-pin
``golden_hashes.json``, by running ``python tests/test_golden.py`` with the
package on the path.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from physioshap.cli import main

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


def golden_run(tmp: Path, jobs: int) -> dict[str, str]:
    """Digests of every file the chain writes under ``tmp``."""
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    global_cfg = tmp / "config_global.json"
    global_cfg.write_text(json.dumps({**CONFIG, "search_mode": "global", "targets": ["valence", "arousal"]}))
    out = tmp / "out"
    flags = ("--config", cfg, "--out", out, "--jobs", jobs)
    _cli("extract", *flags)
    features = out / "features.csv"
    _cli("loso", *flags, "--features", features)
    _cli("select", *flags, "--features", features)
    _cli("train", *flags, "--features", features, "--target", "valence")
    _cli(
        "explain", *flags, "--features", features,
        "--model", out / "model_valence.json", "--target", "valence", "--interactions",
    )
    _cli("report", *flags, "--features", features)
    gflags = ("--config", global_cfg, "--out", tmp / "out_global", "--jobs", jobs)
    _cli("loso", *gflags, "--features", features)
    _cli("select", *gflags, "--features", features)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        HASHES.write_text(json.dumps(golden_run(Path(tmp), 1), indent=1, sort_keys=True) + "\n")
    print(f"re-pinned {HASHES}", file=sys.stderr)
