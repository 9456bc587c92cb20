import json
import re
from dataclasses import fields, is_dataclass, replace
from enum import Enum

import numpy as np
import pytest

from physioshap.entropy import FEATURE_NAMES
from conftest import small_config
from physioshap.errors import ConfigError, SchemaMismatchError
from physioshap import pipeline
from physioshap.gbdt import SearchSpace
from physioshap.pipeline import (
    RunConfig,
    apply_paper_mode,
    decompose_trial,
    extract_dataset,
    resolve_jobs,
    run_config_from_dict,
    trial_features,
)
from physioshap.signals import ChannelKind, preprocess_trial
from physioshap.synthetic import SyntheticSpec, generate_synthetic
from test_signals import make_trial


class TestDecomposeTrial:
    def test_component_counts_match_schema(self):
        trial = preprocess_trial(make_trial(n_signal=512))
        comps = decompose_trial(trial)
        counts = {tag: len(v) for tag, v in comps.items()}
        assert counts == {
            "hEOG": 2, "vEOG": 2, "zEMG": 1, "tEMG": 3,
            "GSR": 2, "PPG": 4, "Resp": 2, "Temp": 1,
        }

    def test_requires_preprocessed_trial(self):
        with pytest.raises(SchemaMismatchError):
            decompose_trial(make_trial())

    def test_gsr_second_component_is_tonic(self):
        trial = preprocess_trial(make_trial(n_signal=512))
        comps = decompose_trial(trial)
        from physioshap.signals import SCR_TONIC_KEY

        np.testing.assert_array_equal(
            comps["GSR"][1], trial.extras[SCR_TONIC_KEY]
        )


class TestExtractDataset:
    def test_full_extraction(self):
        spec = SyntheticSpec(
            n_subjects=2, trials_per_subject=2, seed=1, duration_s=2.0, baseline_s=0.5
        )
        trials = generate_synthetic(spec)
        ds = extract_dataset(trials)
        assert len(ds) == 4
        X = ds.matrix()
        assert X.shape == (4, 51)
        assert np.all(np.isfinite(X))

    def test_parallel_matches_serial(self):
        spec = SyntheticSpec(
            n_subjects=2, trials_per_subject=2, seed=2, duration_s=1.0, baseline_s=0.25
        )
        trials = generate_synthetic(spec)
        a = extract_dataset(trials, jobs=1).matrix()
        b = extract_dataset(trials, jobs=2).matrix()
        np.testing.assert_array_equal(a, b)

    def test_matches_single_trial_path(self):
        spec = SyntheticSpec(
            n_subjects=2, trials_per_subject=2, seed=3, duration_s=1.0, baseline_s=0.25
        )
        trials = generate_synthetic(spec)
        ds = extract_dataset(trials)
        fv = trial_features(trials[0])
        np.testing.assert_array_equal(ds.rows[0].features.as_array(), fv.as_array())


class TestFanOut:
    def test_one_job_or_one_task_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        assert pipeline.fan_out(divmod, [(7, 2), (9, 4), (1, 3)], 1) == [(3, 1), (2, 1), (0, 1)]
        assert pipeline.fan_out(divmod, [(7, 2)], 4) == [(3, 1)]
        assert pipeline.fan_out(divmod, [], 4) == []
        for jobs in (0, -1):
            assert pipeline.fan_out(divmod, [(7, 2), (9, 4)], jobs) == [(3, 1), (2, 1)]

    def test_pool_keeps_task_order(self):
        tasks = [(n, 3) for n in range(10, 0, -1)]
        assert pipeline.fan_out(divmod, tasks, 2) == [divmod(*t) for t in tasks]


class TestParallelFolds:
    def test_parallel_loso_matches_serial(self, rng):
        from physioshap.pipeline import run_loso_explained
        from test_evaluate import make_feature_dataset

        ds = make_feature_dataset(rng, n_subjects=4, trials=10)
        cfg = small_config(max_rounds=8)
        serial = run_loso_explained(ds, "valence", 0, seed=2, fixed_config=cfg, jobs=1)
        parallel = run_loso_explained(ds, "valence", 0, seed=2, fixed_config=cfg, jobs=3)
        assert serial.report == parallel.report
        assert serial.importance == parallel.importance
        assert serial.predictions == parallel.predictions
        for a, b in zip(serial.explanations, parallel.explanations):
            np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("search_mode", ["per-fold", "global"])
    def test_parallel_searched_loso_matches_serial(self, rng, search_mode):
        from physioshap.pipeline import run_loso_explained
        from test_evaluate import make_feature_dataset

        ds = make_feature_dataset(rng, n_subjects=4, trials=10)
        space = SearchSpace(min_data_in_leaf=(2, 5), base=small_config(max_rounds=8))
        serial, parallel = (
            run_loso_explained(
                ds, "valence", 2, seed=6, space=space, jobs=jobs, search_mode=search_mode
            )
            for jobs in (1, 2)
        )
        assert serial.report == parallel.report
        assert serial.importance == parallel.importance
        assert serial.predictions == parallel.predictions
        assert serial.row_ids == parallel.row_ids
        assert len(serial.explanations) == len(parallel.explanations) == len(ds)
        for a, b in zip(serial.explanations, parallel.explanations):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.base_value == b.base_value


def _to_json(value):
    """The JSON form of a config value: dataclasses as objects, enums by value,
    tuples and frozensets as lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_to_json(k): _to_json(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(map(_to_json, value))
    if isinstance(value, tuple):
        return list(map(_to_json, value))
    return value


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict({"bogus": 1})
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict({"synthetic": {"bogus": 1}})
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict({"entropy": {"bogus": 1}})

    def test_round_trip_of_nested_sections(self):
        doc = {
            "synthetic": {"n_subjects": 4, "trials_per_subject": 5, "seed": 2},
            "targets": ["valence", "liking"],
            "entropy": {"m": 2, "r": 0.15, "n": 2},
            "ssa": {"window_len": 16},
            "preprocess": {"smooth_span": {"SCR": 64, "Temp": 64, "hEOG": 5, "vEOG": 5,
                                            "zEMG": 5, "tEMG": 5, "PPG": 5, "Resp": 5}},
            "search_space": {"learning_rate": [0.05, 0.3], "num_leaves": [5, 10]},
            "search_iterations": 7,
            "seed": 11,
        }
        cfg = run_config_from_dict(doc)
        assert cfg.synthetic.n_subjects == 4
        assert cfg.targets == ("valence", "liking")
        assert cfg.ssa.window_len == 16
        assert cfg.preprocess.smooth_span[ChannelKind.SCR] == 64
        assert cfg.search_space.learning_rate == (0.05, 0.3)
        assert cfg.search_iterations == 7
        # a JSON dump of a full RunConfig, every field of every section, reads back equal
        full = replace(RunConfig(), data_dir="data", synthetic=SyntheticSpec(n_subjects=4))
        assert run_config_from_dict(json.loads(json.dumps(_to_json(full)))) == full

    @pytest.mark.parametrize("doc, message", [
        ({"search_space": {"feature_fraction": [0.0, 0.0]}}, "config.search_space: feature_fraction"),
        ({"search_space": {"num_leaves": [20, 5]}}, "config.search_space: num_leaves range [20, 5] needs lo <= hi"),
        ({"search_space": {"min_data_in_leaf": [0, 5]}}, "config.search_space: min_data_in_leaf"),
        ({"targets": ["valence", "valence"]}, "config: targets must be distinct"),
    ], ids=["feature_fraction", "num_leaves", "min_data_in_leaf", "targets"])
    def test_infeasible_search_range_or_repeated_target_is_refused(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_config_from_dict(doc)

    def test_invalid_values_surface_as_config_error(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"targets": ["nope"]})
        with pytest.raises(ConfigError):
            run_config_from_dict({"synthetic": {"n_subjects": 1}})

    def test_paper_mode_pins_parameters(self):
        cfg = run_config_from_dict({"search_iterations": 2, "entropy": {"m": 3}})
        pinned = apply_paper_mode(cfg)
        assert pinned.entropy.m == 2
        assert pinned.entropy.r == 0.15
        assert pinned.ssa.window_len == 12
        assert pinned.search_iterations == 300
        assert pinned.search_space.num_leaves == (5, 20)


class TestResolveJobs:
    def test_cli_wins(self, monkeypatch):
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("PHYSIO_EXPLAIN_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs(None)

    def test_below_one_rejected_from_every_source(self, monkeypatch):
        monkeypatch.delenv("PHYSIO_EXPLAIN_JOBS", raising=False)
        for cli_jobs in (0, -3):
            with pytest.raises(ConfigError, match="--jobs"):
                resolve_jobs(cli_jobs)
        with pytest.raises(ConfigError, match="config jobs"):
            resolve_jobs(None, 0)
        monkeypatch.setenv("PHYSIO_EXPLAIN_JOBS", "0")
        with pytest.raises(ConfigError, match="PHYSIO_EXPLAIN_JOBS"):
            resolve_jobs(None)


class TestGlobalSearchMode:
    def test_single_config_shared_across_folds(self, rng):
        from physioshap.pipeline import run_loso_explained
        from test_evaluate import make_feature_dataset

        ds = make_feature_dataset(rng, n_subjects=5, trials=10)
        run = run_loso_explained(ds, "valence", search_budget=2, seed=4, search_mode="global")
        configs = {f.config for f in run.report.folds if not f.failed}
        assert len(configs) == 1

    def test_unknown_mode_rejected(self, rng):
        from physioshap.pipeline import run_loso_explained
        from test_evaluate import make_feature_dataset

        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        with pytest.raises(ConfigError, match="search_mode"):
            run_loso_explained(ds, "valence", 0, seed=0, search_mode="both")
