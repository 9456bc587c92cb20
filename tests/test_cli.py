import json
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_config
from physioshap import cli
from physioshap.cli import main
from physioshap.dataio import write_features_csv
from physioshap.explain import shap_values_batch
from physioshap.gbdt import predict_margin, save_model, train
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


class TestSynthAndIngest:
    def test_synth_then_check(self, workdir):
        tmp, cfg = workdir
        assert run("synth", "--config", cfg, "--out", tmp / "data") == 0
        assert run("ingest-check", "--data", tmp / "data") == 0

    def test_check_missing_dir_is_validation_error(self, workdir):
        tmp, cfg = workdir
        assert run("ingest-check", "--data", tmp / "nope") == 1


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
