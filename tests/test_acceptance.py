"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The end-to-end criteria share session fixtures so the expensive synthetic
extraction runs once per configuration.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from physioshap.entropy import FEATURE_NAMES, EntropyConfig, fuzzy_entropy, sample_entropy
from physioshap.entropy import FeatureVector
from physioshap.evaluate import (
    Dataset,
    DatasetRow,
    RunAudit,
    compute_metrics,
)
from physioshap.explain import brute_force_shapley, shap_interactions, shap_values_batch
from physioshap.gbdt import (
    GbdtModel,
    binary_logloss,
    goss_sample,
    predict_margin,
    train,
    tree_from_dict,
)
from physioshap.pipeline import extract_dataset, run_loso_explained, selection_sweep
from physioshap.ssa import SsaConfig, decompose
from physioshap.synthetic import SyntheticSpec, generate_synthetic

from conftest import leaf, random_model, small_config, split
from reference import fuzzy_entropy_reference, sample_entropy_reference

SPEC_SEED = 21
RUN_SEED = 5
FAMILIES = {
    "valence": ("vEOG",),
    "arousal": ("vEOG", "Resp"),
    "liking": ("PPG", "Temp"),
}


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def synthetic_spec(effect_strength, seed=SPEC_SEED):
    return SyntheticSpec(
        n_subjects=8,
        trials_per_subject=20,
        effect_strength=effect_strength,
        subject_variance=0.05,
        seed=seed,
    )


@pytest.fixture(scope="module")
def es1_runs():
    """Criterion 9/10/12 shared artifact: full-budget runs on the planted
    dataset, with audit instrumentation."""
    t0 = time.perf_counter()
    ds = extract_dataset(generate_synthetic(synthetic_spec(1.0)))
    audit = RunAudit()
    runs = {
        target: run_loso_explained(ds, target, search_budget=30, seed=RUN_SEED, audit=audit)
        for target in ("valence", "arousal", "liking")
    }
    elapsed = time.perf_counter() - t0
    return ds, runs, audit, elapsed


def test_criterion_01_ssa_identity(rng):
    with criterion(1, "ssa-reconstruction-identity"):
        t0 = time.perf_counter()
        for _ in range(100):
            x = rng.normal(size=1024)
            d = decompose(x, SsaConfig(window_len=12))
            total = sum(d.components)
            rel = np.linalg.norm(total - x) / np.linalg.norm(x)
            assert rel < 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_entropy_oracle_equivalence(rng):
    with criterion(2, "entropy-oracle-equivalence"):
        t0 = time.perf_counter()
        for i in range(50):
            n = int(rng.integers(200, 2001))
            if i % 3 == 0:
                x = rng.normal(size=n)
            elif i % 3 == 1:
                t = np.arange(n)
                x = np.sin(2 * np.pi * t / 40) + 0.5 * rng.normal(size=n)
            else:
                x = np.cumsum(rng.normal(size=n))
            r = 0.15 * x.std()
            cfg = EntropyConfig(r=r, tolerance_mode="absolute")
            assert abs(sample_entropy(x, cfg) - sample_entropy_reference(x, 2, r)) <= 1e-12
            assert abs(fuzzy_entropy(x, cfg) - fuzzy_entropy_reference(x, 2, r, 2)) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_03_entropy_ordering():
    with criterion(3, "entropy-noise-vs-sine-ordering"):
        cfg = EntropyConfig()
        wins = 0
        for seed in range(20):
            g = np.random.default_rng(seed)
            noise = g.normal(size=512)
            t = np.arange(512)
            sine = np.sin(2 * np.pi * t / 32)
            sine = sine * noise.std() / sine.std()
            if sample_entropy(noise, cfg) > sample_entropy(sine, cfg):
                wins += 1
        assert wins >= 19, f"only {wins}/20"


def test_criterion_04_shap_local_accuracy(rng):
    with criterion(4, "shap-local-accuracy"):
        for _ in range(20):
            model, X = random_model(rng)
            margins = predict_margin(model, X)
            for i, exp in enumerate(shap_values_batch(model, X)):
                assert abs(exp.base_value + exp.values.sum() - margins[i]) < 1e-6


def test_criterion_05_shap_oracle_equivalence(rng):
    with criterion(5, "shap-oracle-equivalence"):
        t0 = time.perf_counter()
        for i in range(50):
            n_features = int(rng.integers(2, 13))
            model, X = random_model(
                rng, n_features=n_features, max_rounds=int(rng.integers(2, 21)), max_depth=int(rng.integers(1, 5))
            )
            x = X[int(rng.integers(X.shape[0]))]
            (fast,) = shap_values_batch(model, x)
            slow = brute_force_shapley(model, x)
            assert np.abs(fast.values - slow.values).max() <= 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_06_interaction_consistency(rng):
    with criterion(6, "interaction-consistency"):
        for _ in range(20):
            model, X = random_model(rng, n_features=int(rng.integers(2, 7)), max_rounds=6, max_depth=3)
            x = X[int(rng.integers(X.shape[0]))]
            im = shap_interactions(model, x)
            assert np.abs(im.matrix - im.matrix.T).max() <= 1e-9
            (sv,) = shap_values_batch(model, x)
            assert np.abs(im.matrix.sum(axis=1) - sv.values).max() <= 1e-6
        # additive two-feature model: no interactions
        t0 = tree_from_dict(split(0, 0.0, leaf(-1.0, 1.0), leaf(1.0, 1.0)), 2)
        t1 = tree_from_dict(split(1, 0.0, leaf(0.5, 1.0), leaf(-0.5, 1.0)), 2)
        model = GbdtModel([t0, t1], 0.4, 0.1, ("f0", "f1"), 2)
        im = shap_interactions(model, np.array([0.3, -0.2]))
        off = im.matrix - np.diag(np.diag(im.matrix))
        assert np.abs(off).max() < 1e-8


def test_criterion_07_gbdt_sanity(rng):
    with criterion(7, "gbdt-training-sanity"):
        for _ in range(5):
            X = rng.normal(size=(150, 5))
            w = rng.normal(size=5)
            y = (X @ w + 0.3 * rng.normal(size=150) > 0).astype(float)
            if y.sum() < 2 or (1 - y).sum() < 2:
                y[:2], y[2:4] = 1.0, 0.0
            cfg = small_config(learning_rate=0.1, goss_a=1.0, goss_b=0.0, max_rounds=25)
            model = train(X, y, None, cfg)
            margins = np.full(150, model.base_score)
            prev = binary_logloss(y, margins)
            for flat in model.trees:
                margins = margins + model.learning_rate * flat.predict(X)
                cur = binary_logloss(y, margins)
                assert cur <= prev + 1e-12
                prev = cur
        # separable 1-D data reaches perfect training accuracy
        x = np.sort(rng.normal(size=100))
        y = (x >= x[50]).astype(float)
        cfg = small_config(learning_rate=0.3, max_rounds=50, num_leaves=2, min_data_in_leaf=1)
        model = train(x[:, None], y, None, cfg)
        pred = (predict_margin(model, x[:, None]) > 0).astype(float)
        assert (pred == y).all()


def test_criterion_08_goss_unbiasedness():
    with criterion(8, "goss-unbiasedness"):
        g = np.random.default_rng(0).normal(0.5, 1.0, size=1000)
        exact = g.sum()
        sums = [
            float((w * g[idx]).sum())
            for idx, w in (goss_sample(g, 0.2, 0.1, seed) for seed in range(1000))
        ]
        rel = abs(np.mean(sums) - exact) / abs(exact)
        assert rel < 0.02, f"relative deviation {rel:.4f}"


def test_criterion_09_end_to_end_synthetic(es1_runs):
    with criterion(9, "end-to-end-synthetic-loso"):
        ds, runs, _, elapsed = es1_runs
        for target, run in runs.items():
            s = run.report.summary
            assert s.f1 >= 0.9, f"{target} f1 {s.f1:.3f}"
            assert s.accuracy >= 0.8, f"{target} accuracy {s.accuracy:.3f}"
        assert elapsed < 600.0, f"planted run took {elapsed:.0f} s"
        # no-effect control: close to the all-positive baseline
        ds0 = extract_dataset(generate_synthetic(synthetic_spec(0.0)))
        for target in ("valence", "arousal", "liking"):
            y = ds0.labels(target)
            baseline = compute_metrics(y, np.ones_like(y)).f1
            rep = run_loso_explained(ds0, target, search_budget=30, seed=RUN_SEED).report
            assert abs(rep.summary.f1 - baseline) <= 0.1, (
                f"{target}: f1 {rep.summary.f1:.3f} vs baseline {baseline:.3f}"
            )


def test_criterion_10_explanation_recovery(es1_runs):
    with criterion(10, "explanation-recovery"):
        _, first_runs, _, _ = es1_runs
        hits = {target: 0 for target in FAMILIES}
        seeds = [SPEC_SEED, 31, 41, 51, 61]
        for seed in seeds:
            if seed == SPEC_SEED:
                runs = first_runs
            else:
                ds = extract_dataset(generate_synthetic(synthetic_spec(1.0, seed=seed)))
                runs = {
                    t: run_loso_explained(ds, t, search_budget=8, seed=RUN_SEED)
                    for t in FAMILIES
                }
            for target, fams in FAMILIES.items():
                top5 = [name for name, _ in runs[target].importance.entries[:5]]
                if any(name.startswith(f) for name in top5 for f in fams):
                    hits[target] += 1
        for target, n in hits.items():
            assert n >= 4, f"{target}: planted family in top-5 for only {n}/5 seeds"


_VOTE_WEIGHTS = (3.0, 2.4, 1.9, 1.5, 1.2)
_VOTE_THRESHOLD = 5.25  # mid-gap of the subset-sum lattice: labels are noiseless


def _planted_feature_dataset(seed=0, n_subjects=8, trials=60):
    """5 informative features and 46 noise features.

    The label is a weighted vote over the signs of the informative
    features. The vote is axis-aligned (tree-friendly), every informative
    feature carries its own weight (so each earns attribution credit), and
    the threshold sits inside a gap of the subset-sum lattice (so labels
    are deterministic).
    """
    rng = np.random.default_rng(seed)
    informative = FEATURE_NAMES[:5]
    rows = []
    rid = 0
    for s in range(1, n_subjects + 1):
        for t in range(1, trials + 1):
            feats = {name: float(rng.normal()) for name in FEATURE_NAMES}
            score = sum(w for w, n in zip(_VOTE_WEIGHTS, informative) if feats[n] > 0)
            rating = 5.0 + (2.0 if score > _VOTE_THRESHOLD else -2.0)
            rows.append(
                DatasetRow(rid, s, t, FeatureVector(feats),
                           {"valence": rating, "arousal": rating, "liking": rating})
            )
            rid += 1
    return Dataset(rows)


def test_criterion_11_selection_plateau():
    with criterion(11, "feature-selection-plateau"):
        ds = _planted_feature_dataset()
        run = run_loso_explained(
            ds, "valence", search_budget=0, seed=3,
            fixed_config=small_config(num_leaves=8, min_data_in_leaf=15, max_rounds=150,
                                      learning_rate=0.15),
        )
        top5 = {name for name, _ in run.importance.entries[:5]}
        assert top5 == set(FEATURE_NAMES[:5]), f"ranking missed planted features: {top5}"
        result = selection_sweep(ds, "valence", run, seed=3)
        f1s = {row.k: row.f1 for row in result.rows}
        best = max(f1s.values())
        for k in range(5, 52):
            assert f1s[k] >= best - 0.02, f"k={k}: f1 {f1s[k]:.3f} vs best {best:.3f}"


def test_criterion_12_no_leakage_audit(es1_runs):
    with criterion(12, "no-leakage-audit"):
        ds, runs, audit, _ = es1_runs
        ids_by_subject = {}
        for r in ds.rows:
            ids_by_subject.setdefault(r.subject_id, set()).add(r.row_id)
        checked = 0
        for (subject, stage), touched in audit.stages.items():
            assert touched.isdisjoint(ids_by_subject[subject]), (
                f"subject {subject} stage {stage} saw its own test rows"
            )
            checked += 1
        # every fold of every target audited both stages
        assert checked == 2 * len(ds.subjects)
        for run in runs.values():
            assert not run.report.failed_subjects


DEAP_DIR = os.environ.get("PHYSIOSHAP_DEAP_DIR")


@pytest.mark.skipif(not DEAP_DIR, reason="set PHYSIOSHAP_DEAP_DIR to run the DEAP replication")
def test_criterion_13_deap_replication():
    with criterion(13, "deap-replication"):
        from physioshap.dataio import ingest_dataset

        jobs = int(os.environ.get("PHYSIO_EXPLAIN_JOBS", "1"))
        trials = ingest_dataset(DEAP_DIR)
        ds = extract_dataset(trials, jobs=jobs)
        published = {"valence": 0.814, "arousal": 0.823, "liking": 0.860}
        for target, expected in published.items():
            rep = run_loso_explained(ds, target, search_budget=300, seed=RUN_SEED).report
            assert abs(rep.summary.f1 - expected) <= 0.05
