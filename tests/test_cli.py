import contextlib
import hashlib
import io
import json
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import small_config
from physioshap import cli, pipeline
from physioshap.cli import main
from physioshap.dataio import read_features_csv, write_features_csv
from physioshap.entropy import FEATURE_NAMES
from physioshap.evaluate import fold_seed
from physioshap.explain import shap_values_batch
from physioshap.gbdt import TrainConfig, inner_holdout_split, predict_margin, save_model, train
from test_evaluate import make_feature_dataset


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "synthetic": {
            "n_subjects": 3,
            "trials_per_subject": 4,
            "effect_strength": 1.0,
            "subject_variance": 0.05,
            "seed": 3,
            "duration_s": 1.0,
            "baseline_s": 0.25,
        },
        "targets": ["valence"],
        "search_iterations": 2,
        "seed": 9,
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


def run(*argv):
    return main([str(a) for a in argv])


#: sha256 of every file `synth` writes for the 2 x 2 spec in test_synth_bytes_are_pinned
SYNTH_DIGESTS = {
    "meta.json": "f3ee01a3b1ca589ef2b9dcb9983282f3d1020530ba4d5914ee70097b7e796a93",
    "subject_1/trial_1.csv": "d7ae67d74bf47396afbb5d176d89a6c2948d316e429eb3e4ba0728de8805fb5e",
    "subject_1/trial_1.labels.csv": "6ebf24db3516e7c95f5d9a2de11251ed793dba5fab0bc1200538a110b356a428",
    "subject_1/trial_2.csv": "33abc5a7a51a3af08dd910e705304fae38d231744322c8041ed223244bcbf983",
    "subject_1/trial_2.labels.csv": "2d36fdf57ea83ff842b891532ea8c6a7605ec9dac3b3919f77a4af720529064d",
    "subject_2/trial_1.csv": "1ace31a4abf7e930dc432214f9492aff45dc93c9098ee82ecb5bc15963f23715",
    "subject_2/trial_1.labels.csv": "1c2a4751068fb398a5bae685f4b47edc02923e99cb5de95bc5199e8e2790dbc7",
    "subject_2/trial_2.csv": "1ff0edf05979276ae1548cdf04304c414e96a19e3f4fa766bcc48f798cf7bfde",
    "subject_2/trial_2.labels.csv": "75d95c2be89fcda88741214c1184c5025d33563a4ef96c0941391e496ee46fc0",
}


#: the commands after extract, with the flags each requires
LATER_COMMANDS = [
    ("loso",), ("select",), ("report",), ("train", "--target", "valence"),
    ("explain", "--model", "model.json", "--target", "valence"),
]


class TestSynthAndIngest:
    def test_synth_then_check(self, workdir):
        tmp, cfg = workdir
        assert run("synth", "--config", cfg, "--out", tmp / "data") == 0
        assert run("ingest-check", "--data", tmp / "data") == 0

    def test_synth_bytes_are_pinned(self, tmp_path):
        # the golden chain starts at extract; this pins what synth writes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": {
            "n_subjects": 2, "trials_per_subject": 2, "seed": 5, "duration_s": 1.0, "baseline_s": 0.25,
        }}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("synth", "--config", cfg, "--out", tmp_path / "data") == 0
        root = tmp_path / "data"
        got = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
        assert got == SYNTH_DIGESTS

    def test_check_missing_dir_is_validation_error(self, workdir):
        tmp, cfg = workdir
        assert run("ingest-check", "--data", tmp / "nope") == 1

    def test_jobs_below_one_is_bad_input(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        run("synth", "--config", cfg, "--out", tmp / "data")
        assert run("ingest-check", "--data", tmp / "data", "--jobs", "0") == 1
        assert run("ingest-check", "--data", tmp / "data", "--jobs", "-3") == 1
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "0")
        assert run("ingest-check", "--data", tmp / "data") == 1
        assert capsys.readouterr().err.count("must be >= 1") == 3

    @pytest.mark.parametrize("bad", [
        {"baseline_samples": "32"}, {"baseline_samples": 31.5}, {"signal_samples": True},
        {"sample_rate_hz": "fast"}, {"sample_rate_hz": 0}, {"sample_rate_hz": False},
    ], ids=["baseline-str", "baseline-float", "signal-bool", "rate-str", "rate-zero", "rate-bool"])
    def test_meta_type_errors_are_bad_input(self, workdir, capsys, bad):
        tmp, cfg = workdir
        run("synth", "--config", cfg, "--out", tmp / "data")
        meta = tmp / "data" / "meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), **bad}))
        capsys.readouterr()
        assert run("ingest-check", "--data", tmp / "data") == 1
        err = capsys.readouterr().err
        assert "meta.json" in err and next(iter(bad)) in err


class TestExtract:
    def test_features_csv_shape(self, workdir):
        tmp, cfg = workdir
        run("synth", "--config", cfg, "--out", tmp / "data")
        assert run("extract", "--config", cfg, "--data", tmp / "data", "--out", tmp / "out") == 0
        header = (tmp / "out" / "features.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 56
        body = (tmp / "out" / "features.csv").read_text().splitlines()[1:]
        assert len(body) == 12
        for line in body:
            for cell in line.split(",")[2:]:
                assert np.isfinite(float(cell))

    def test_validation_fails_fast_without_input(self, workdir, tmp_path):
        tmp, _ = workdir
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"out_dir": str(tmp / "o2")}))
        assert run("extract", "--config", bare) == 1
        assert not (tmp / "o2").exists() or not list((tmp / "o2").iterdir())


class TestLosoPipeline:
    def test_end_to_end_and_determinism(self, workdir, rng):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=6)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        out1 = tmp / "r1"
        out2 = tmp / "r2"
        assert run("loso", "--config", cfg, "--features", feats, "--out", out1) == 0
        assert run("loso", "--config", cfg, "--features", feats, "--out", out2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "loso_valence.json").read_bytes() == (out2 / "loso_valence.json").read_bytes()
        doc = json.loads((out1 / "report.json").read_text())
        assert "valence" in doc["targets"]
        reparsed = json.loads(json.dumps(doc))
        assert reparsed == doc

    def test_warns_when_no_fold_model_splits(self, workdir, rng, capsys):
        # the default search space keeps at least 10 rows in a leaf, more
        # than GOSS samples of 18 training rows can give two leaves
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=4, trials=6)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        assert run("loso", "--config", cfg, "--features", feats, "--out", tmp / "leaves") == 0
        err = capsys.readouterr().err
        assert "warning: valence:" in err and "no fold model ever split" in err
        lines = (tmp / "leaves" / "explanations_valence.csv").read_text().splitlines()[1:]
        assert all(float(v) == 0.0 for line in lines for v in line.split(",")[3:])
        # small leaves and wide GOSS samples let the same folds split
        doc = json.loads(cfg.read_text())
        doc["search_space"] = {
            "min_data_in_leaf": [2, 5], "base": {"goss_a": 0.5, "goss_b": 0.3, "max_rounds": 20},
        }
        splitting = tmp / "splitting.json"
        splitting.write_text(json.dumps(doc))
        assert run("loso", "--config", splitting, "--features", feats, "--out", tmp / "split") == 0
        assert "warning" not in capsys.readouterr().err

    def test_select_and_report(self, workdir, rng):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=6)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        out = tmp / "out"
        assert run("loso", "--config", cfg, "--features", feats, "--out", out) == 0
        assert run("select", "--config", cfg, "--features", feats, "--out", out) == 0
        assert run("report", "--config", cfg, "--features", feats, "--out", out) == 0
        curve = (out / "selection_curve.csv").read_text().splitlines()
        assert curve[0] == "target,k,accuracy,accuracy_se,f1,f1_se"
        assert len(curve) == 1 + 51  # one target, every k
        assert (out / "importance.csv").exists()
        assert (out / "predictions.csv").exists()

    def test_train_and_explain(self, workdir, rng):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=8)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        out = tmp / "out"
        assert run("train", "--config", cfg, "--features", feats, "--target", "valence", "--out", out) == 0
        model = out / "model_valence.json"
        assert model.exists()
        assert (
            run(
                "explain", "--config", cfg, "--features", feats,
                "--model", model, "--target", "valence", "--interactions", "--out", out,
            )
            == 0
        )
        shap_lines = (out / "shap_valence.csv").read_text().splitlines()
        assert len(shap_lines) == 1 + len(ds)
        doc = json.loads((out / "interactions_valence.json").read_text())
        mat = np.array(doc["mean_abs_interaction"])
        assert mat.shape == (51, 51)

    def test_explain_reads_the_model_features_by_name(self, workdir, rng):
        # a model of two of the 51 columns, not the first two, whose trees
        # split on the second one
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=8)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        names = ("hEOG1_SE", "hEOG2_En")
        X = ds.matrix(names)
        y = (X[:, 1] > np.median(X[:, 1])).astype(int)
        model = train(X, y, None, small_config(), feature_names=names)
        assert any(1 in flat.feature for flat in model.trees)
        path = tmp / "model.json"
        save_model(model, path)
        out = tmp / "out"
        argv = ("explain", "--config", cfg, "--features", feats, "--model", path, "--target", "valence")
        assert run(*argv, "--out", out) == 0
        lines = (out / "shap_valence.csv").read_text().splitlines()
        assert lines[0] == "subject,trial,base_value," + ",".join(names)
        written = np.array([[float(c) for c in line.split(",")[2:]] for line in lines[1:]])
        expected = [[e.base_value, *e.values] for e in shap_values_batch(model, X)]
        np.testing.assert_array_equal(written, expected)
        np.testing.assert_allclose(written.sum(axis=1), predict_margin(model, X), atol=1e-6)
        assert run(*argv, "--interactions", "--out", out) == 0
        doc = json.loads((out / "interactions_valence.json").read_text())
        assert doc["feature_names"] == list(names)
        # a model feature the table lacks is a validation error
        save_model(replace(model, feature_names=("hEOG1_SE", "nope")), path)
        assert run(*argv, "--out", tmp / "out2") == 1

    def test_budget_zero_fits_the_configured_base(self, workdir, rng):
        # with nothing searched, loso and train fit search_space.base under
        # the fold's or the run's seed, never under base.seed
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=4, trials=6)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        base = {"max_rounds": 3, "early_stop": 1, "min_data_in_leaf": 2, "goss_a": 0.5, "goss_b": 0.3}
        doc = json.loads(cfg.read_text())
        doc.update(search_iterations=0, search_space={"base": base})
        zero = tmp / "zero.json"
        zero.write_text(json.dumps(doc))
        out = tmp / "out"
        assert run("loso", "--config", zero, "--features", feats, "--out", out) == 0
        folds = [
            f for f in json.loads((out / "loso_valence.json").read_text())["report"]["folds"]
            if not f["failed"]
        ]
        assert folds
        for f in folds:
            assert f["config"] == asdict(TrainConfig(**base, seed=fold_seed(9, f["subject_id"])))
        assert run("train", "--config", zero, "--features", feats, "--target", "valence", "--out", out) == 0
        table = read_features_csv(feats)
        X, y = table.matrix(), table.labels("valence")
        tr, va = inner_holdout_split(table.groups(), 9)
        expected = train(X[tr], y[tr], (X[va], y[va]), TrainConfig(**base, seed=9), FEATURE_NAMES)
        save_model(expected, tmp / "expected.json")
        assert (out / "model_valence.json").read_bytes() == (tmp / "expected.json").read_bytes()

    @pytest.mark.parametrize("command", LATER_COMMANDS, ids=lambda command: command[0])
    def test_missing_features_table_is_bad_input(self, workdir, capsys, command):
        # without --features a later command reads <out>/features.csv, which
        # only `extract` writes
        tmp, cfg = workdir
        out = tmp / "fresh"
        assert run(*command, "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(out / "features.csv") in err and "physioshap extract" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", LATER_COMMANDS, ids=lambda command: command[0])
    def test_only_extract_and_ingest_check_read_trials(self, workdir, capsys, command):
        tmp, _ = workdir
        for reader in ("extract", "ingest-check"):
            assert cli.build_parser().parse_args([reader, "--data", str(tmp)]).data == str(tmp)
        with pytest.raises(SystemExit) as exc:
            run(*command, "--data", tmp)
        assert exc.value.code == 2
        assert "unrecognized arguments: --data" in capsys.readouterr().err

    def test_report_without_loso_artifacts(self, workdir, rng):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        assert run("report", "--config", cfg, "--features", feats, "--out", tmp / "fresh") == 1


class TestBadConfig:
    def test_unknown_key_exit_code(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert run("extract", "--config", bad) == 1

    def test_kept_components_is_an_unknown_key(self, workdir, tmp_path, capsys):
        # the component counts are the feature schema's, not a setting
        _, cfg = workdir
        doc = json.loads(cfg.read_text())
        doc["ssa"] = {"kept_components": {"PPG": 4}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("extract", "--config", bad, "--out", tmp_path / "o") == 1
        assert "config.ssa: unknown keys ['kept_components']" in capsys.readouterr().err

    def test_window_below_widest_channel_fails_before_work(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        doc = json.loads(cfg.read_text())
        doc["ssa"] = {"window_len": 3}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("extract", "--config", bad, "--out", tmp_path / "o") == 1
        assert "window_len must be at least 4" in capsys.readouterr().err
        assert not (tmp_path / "o" / "features.csv").exists()

    def test_window_longer_than_a_trial_fails_before_work(self, workdir, tmp_path, monkeypatch, capsys):
        # 1 s trials have 128 samples; an (m+1)-template pair needs m + 2 of them
        spans = {"SCR": 5000, "Temp": 64, "hEOG": 5, "vEOG": 5, "zEMG": 5, "tEMG": 5, "PPG": 5, "Resp": 5}
        cases = [
            ("ssa", {"window_len": 5000}, "ssa.window_len 5000 exceeds the shortest trial (128 samples)"),
            ("preprocess", {"smooth_span": spans}, "preprocess.smooth_span 5000 exceeds the shortest trial (128 samples)"),
            ("entropy", {"m": 200}, "entropy.m 200 needs trials longer than m + 1 samples; the shortest has 128"),
            ("entropy", {"m": 127}, "entropy.m 127 needs trials longer than m + 1 samples; the shortest has 128"),
        ]
        _, cfg = workdir
        calls = []
        original = pipeline.preprocess_trial
        monkeypatch.setattr(pipeline, "preprocess_trial", lambda *a: calls.append(a) or original(*a))
        for section, value, message in cases:
            doc = json.loads(cfg.read_text())
            doc["synthetic"].update(n_subjects=2, trials_per_subject=2)
            doc[section] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert run("extract", "--config", bad, "--out", tmp_path / "o") == 1
            assert calls == []
            assert not (tmp_path / "o" / "features.csv").exists()
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("m", 126, "at entropy.m 126, entropy.r 0.15"),
        ("r", 1e-300, "at entropy.m 2, entropy.r 1e-300"),
    ])
    def test_fuzzy_membership_underflow_is_bad_input(self, workdir, tmp_path, capsys, key, value, named):
        # both pass the config checks; FuzzyEn's memberships then underflow on 1 s trials
        _, cfg = workdir
        doc = json.loads(cfg.read_text())
        doc["synthetic"].update(n_subjects=2, trials_per_subject=2)
        doc["entropy"] = {key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("extract", "--config", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: subject 1, trial ") and ", channel " in err and ", component " in err
        assert "fuzzy membership averages underflowed to zero " + named in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "features.csv").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("", "jobs", 1.5), ("", "jobs", True), ("", "seed", "x"), ("", "search_iterations", 2.5),
        ("", "out_dir", 5), ("synthetic", "n_subjects", 2.5), ("entropy", "m", 2.5), ("entropy", "r", True),
        ("search_space.base", "seed", "x"), ("search_space", "num_leaves", [5.5, 20]),
        ("search_space", "num_leaves", [5, 20, 30]), ("", "data_dir", 5),
        ("preprocess.smooth_span", "SCR", 5.7), ("preprocess.smooth_span", "SCR", True),
        ("preprocess", "smooth_span", [5]), ("preprocess", "detrend_exempt", "Temp"),
    ])
    def test_value_of_the_wrong_type_is_bad_input(
        self, workdir, tmp_path, monkeypatch, capsys, section, key, value
    ):
        _, cfg = workdir
        doc = json.loads(cfg.read_text())
        doc["synthetic"].update(n_subjects=2, trials_per_subject=2)
        part = doc
        for name in filter(None, section.split(".")):
            part = part.setdefault(name, {})
        part[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        calls = []
        original = pipeline.preprocess_trial
        monkeypatch.setattr(pipeline, "preprocess_trial", lambda *a: calls.append(a) or original(*a))
        assert run("extract", "--config", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert ".".join(filter(None, ("config", section, key))) + ":" in err and "Traceback" not in err
        assert calls == []
        assert not (tmp_path / "o" / "features.csv").exists()

    def test_invalid_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("extract", "--config", bad) == 1

    def test_runtime_failure_exit_code(self, workdir, rng, tmp_path):
        # single-class labels fail inside training, not validation
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        for row in ds.rows:
            row.ratings["valence"] = 8.0
        feats = tmp_path / "f.csv"
        write_features_csv(ds, feats)
        assert run("train", "--config", cfg, "--features", feats, "--target", "valence") == 2


class TestArtifactAndRuntimeErrors:
    @pytest.mark.parametrize(
        "name, text",
        [
            ("loso_valence.json", '{"x": 1}'),
            ("loso_valence.json", "{"),
            ("selection_valence.json", '{"rows": [{"k": 1}]}'),
            ("interactions_valence.json", '{"mean_abs_interaction": [[1, "a"]], "feature_names": []}'),
        ],
    )
    def test_malformed_artifact_is_validation_error(self, workdir, rng, capsys, name, text):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=6)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        out = tmp / "out"
        assert run("loso", "--config", cfg, "--features", feats, "--out", out) == 0
        (out / name).write_text(text)
        capsys.readouterr()
        assert run("report", "--config", cfg, "--features", feats, "--out", out) == 1
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_malformed_model_is_validation_error(self, workdir, rng, capsys):
        tmp, cfg = workdir
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        feats = tmp / "features.csv"
        write_features_csv(ds, feats)
        model = tmp / "model.json"
        model.write_text('{"format": "physioshap-gbdt"}')
        argv = ("explain", "--config", cfg, "--features", feats, "--model", model, "--target", "valence")
        assert run(*argv) == 1
        assert "model.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc", [BrokenProcessPool("a worker died"), np.linalg.LinAlgError("eigh did not converge")]
    )
    def test_unexpected_error_is_runtime_failure(self, workdir, monkeypatch, capsys, exc):
        tmp, cfg = workdir

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "extract_dataset", fail)
        assert run("extract", "--config", cfg, "--out", tmp / "out", "--jobs", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and type(exc).__name__ in err


class TestJobsPrecedence:
    """--jobs > PHYSIO_EXPLAIN_JOBS > config jobs > 1."""

    def _jobs(self, tmp_path, config_jobs, *flags):
        path = tmp_path / "jobs.json"
        doc = {} if config_jobs is None else {"jobs": config_jobs}
        path.write_text(json.dumps(doc))
        args = cli.build_parser().parse_args(["extract", "--config", str(path), *flags])
        return cli._load_config(args).jobs

    @pytest.mark.parametrize("config_jobs", [1, 3])
    def test_order(self, tmp_path, monkeypatch, config_jobs):
        monkeypatch.delenv("PHYSIO_EXPLAIN_JOBS", raising=False)
        assert self._jobs(tmp_path, config_jobs) == config_jobs
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "2")
        assert self._jobs(tmp_path, config_jobs) == 2
        assert self._jobs(tmp_path, config_jobs, "--jobs", "4") == 4

    def test_default_single_process(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PHYSIO_EXPLAIN_JOBS", raising=False)
        assert self._jobs(tmp_path, None) == 1
