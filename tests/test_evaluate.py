import math

import numpy as np
import pytest

from conftest import small_config
from physioshap.entropy import FEATURE_NAMES, FeatureVector
from physioshap.errors import (
    DegenerateComparisonError,
    InvalidArgumentError,
)
from physioshap.evaluate import (
    Dataset,
    DatasetRow,
    FoldPlan,
    RunAudit,
    binarize_label,
    compute_metrics,
    fold_seed,
    loso_split,
    run_fold,
    summarize_folds,
    wilcoxon_signed_rank,
)
from physioshap.pipeline import run_loso_explained
from reference import wilcoxon_exact_reference


def make_feature_dataset(rng, n_subjects=4, trials=8, informative=True, seed_ratings=None):
    """Rows whose first feature tracks the valence rating when informative."""
    rows = []
    rid = 0
    for s in range(1, n_subjects + 1):
        for t in range(1, trials + 1):
            rating = float(rng.uniform(1, 9))
            feats = {}
            for j, name in enumerate(FEATURE_NAMES):
                if informative and j == 0:
                    feats[name] = rating + 0.01 * rng.normal()
                else:
                    feats[name] = float(rng.normal())
            rows.append(
                DatasetRow(
                    row_id=rid,
                    subject_id=s,
                    trial_id=t,
                    features=FeatureVector(feats),
                    ratings={"valence": rating, "arousal": rating, "liking": rating},
                )
            )
            rid += 1
    return Dataset(rows)


class TestBinarize:
    def test_boundaries(self):
        assert binarize_label(9.0) == 1
        assert binarize_label(1.0) == 0
        assert binarize_label(5.0) == 0  # strict inequality
        assert binarize_label(5.0001) == 1

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            binarize_label(0.2)
        with pytest.raises(InvalidArgumentError):
            binarize_label(9.5)


class TestMetrics:
    def test_perfect(self):
        m = compute_metrics([1, 0, 1], [1, 0, 1])
        assert m.accuracy == 1.0 and m.f1 == 1.0

    def test_all_positive_predictor(self):
        y = np.array([1] * 62 + [0] * 38)
        m = compute_metrics(y, np.ones_like(y))
        assert m.accuracy == pytest.approx(0.62)
        assert m.f1 == pytest.approx(2 * 0.62 / 1.62)

    def test_no_positives_anywhere(self):
        m = compute_metrics([0, 0, 0], [0, 0, 0])
        assert m.accuracy == 1.0 and m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compute_metrics([1, 0], [1])


class TestLosoSplit:
    def test_deap_scale_shape(self, rng):
        ds = make_feature_dataset(rng, n_subjects=8, trials=5)
        folds = loso_split(ds)
        assert len(folds) == 8
        for f in folds:
            assert f.train_idx.size == 35 and f.test_idx.size == 5

    def test_two_subjects_complementary(self, rng):
        ds = make_feature_dataset(rng, n_subjects=2, trials=3)
        folds = loso_split(ds)
        assert len(folds) == 2
        np.testing.assert_array_equal(np.sort(folds[0].test_idx), np.sort(folds[1].train_idx))

    def test_partition_property(self, rng):
        ds = make_feature_dataset(rng, n_subjects=5, trials=4)
        folds = loso_split(ds)
        all_test = np.concatenate([f.test_idx for f in folds])
        assert np.sort(all_test).tolist() == list(range(len(ds)))
        for f in folds:
            assert np.intersect1d(f.train_idx, f.test_idx).size == 0


class TestRunLoso:
    def test_separable_dataset_perfect(self, rng):
        ds = make_feature_dataset(rng, n_subjects=4, trials=10, informative=True)
        report = run_loso_explained(ds, "valence", search_budget=0, seed=1,
                                    fixed_config=small_config(max_rounds=30)).report
        assert all(f.accuracy == 1.0 for f in report.folds)

    def test_deterministic(self, rng):
        ds = make_feature_dataset(rng, n_subjects=4, trials=8)
        a = run_loso_explained(ds, "valence", search_budget=2, seed=3).report
        b = run_loso_explained(ds, "valence", search_budget=2, seed=3).report
        assert a == b

    def test_failed_fold_flagged_and_excluded(self, rng):
        # subject 1 holds every positive label: its own fold must train on
        # the all-negative remainder and fail; other folds can also fail
        # when the inner holdout removes subject 1, but never all of them
        rows = []
        rid = 0
        for s in (1, 2, 3, 4):
            for t in range(1, 7):
                rating = 8.0 if s == 1 else 2.0
                feats = {n: float(rng.normal()) for n in FEATURE_NAMES}
                rows.append(DatasetRow(rid, s, t, FeatureVector(feats),
                                       {"valence": rating, "arousal": 5.0, "liking": 5.0}))
                rid += 1
        ds = Dataset(rows)
        report = run_loso_explained(ds, "valence", search_budget=0, seed=0,
                                    fixed_config=small_config()).report
        assert 1 in report.failed_subjects
        ok = [f for f in report.folds if not f.failed]
        assert ok, "expected at least one successful fold"
        assert len(report.folds) == 4
        assert math.isfinite(report.summary.accuracy)

    def test_audit_no_leakage(self, rng):
        ds = make_feature_dataset(rng, n_subjects=5, trials=10)
        audit = RunAudit()
        report = run_loso_explained(ds, "valence", search_budget=2, seed=5, audit=audit).report
        ids_by_subject = {}
        for r in ds.rows:
            ids_by_subject.setdefault(r.subject_id, set()).add(r.row_id)
        audited_train = 0
        for subject in ds.subjects:
            test_ids = ids_by_subject[subject]
            for stage in ("search", "train"):
                touched = audit.touched(subject, stage)
                if touched:
                    assert touched.isdisjoint(test_ids)
                if stage == "train" and touched:
                    audited_train += 1
        ok = [f for f in report.folds if not f.failed]
        assert audited_train == len(ok) and audited_train > 0

    def test_standard_error_recomputable(self, rng):
        ds = make_feature_dataset(rng, n_subjects=5, trials=6)
        report = run_loso_explained(ds, "valence", search_budget=0, seed=2,
                                    fixed_config=small_config(max_rounds=10)).report
        acc = report.per_fold("accuracy")
        assert report.summary.accuracy_se == pytest.approx(
            acc.std(ddof=1) / math.sqrt(acc.size), abs=1e-12
        )
        summary2 = summarize_folds(report.folds)
        assert summary2 == report.summary


class TestFoldPlan:
    def test_built_once_from_the_dataset(self, rng):
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        plan = FoldPlan.build(ds, "valence", seed=9)
        np.testing.assert_array_equal(plan.X, ds.matrix())
        np.testing.assert_array_equal(plan.y, ds.labels("valence"))
        np.testing.assert_array_equal(plan.groups, ds.groups())
        assert plan.row_ids.tolist() == [r.row_id for r in ds.rows]
        assert [f.subject_id for f in plan.folds] == ds.subjects
        assert plan.seeds == tuple(fold_seed(9, s) for s in ds.subjects)

    def test_columns_share_everything_but_the_matrix(self, rng):
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        plan = FoldPlan.build(ds, "valence", seed=0)
        names = ("PPG1_SE", "hEOG1_SE")
        prefix = plan.columns(names)
        np.testing.assert_array_equal(prefix.X, ds.matrix(names))
        assert prefix.feature_names == names
        assert prefix.y is plan.y and prefix.folds is plan.folds
        with pytest.raises(InvalidArgumentError):
            plan.columns(["nope"])

    def test_run_fold_returns_model_and_stages(self, rng):
        ds = make_feature_dataset(rng, n_subjects=4, trials=8)
        plan = FoldPlan.build(ds, "valence", seed=1)
        result, model, stages = run_fold(plan, 2, 1)
        assert not result.failed and model is not None
        train_ids = plan.row_ids[plan.folds[2].train_idx]
        assert [s for s, _ in stages] == ["search", "train"]
        for _, ids in stages:
            np.testing.assert_array_equal(ids, train_ids)
        _, _, stages = run_fold(plan, 2, 0, fixed_config=small_config())
        assert [s for s, _ in stages] == ["train"]
        # a fold that cannot train: a search that trains nothing records
        # the search only, a fixed config the train stage
        for row in ds.rows:
            row.ratings["valence"] = 8.0 if row.subject_id == 3 else 2.0
        plan = FoldPlan.build(ds, "valence", seed=1)
        assert plan.folds[2].subject_id == 3
        for budget, fixed, expected in ((2, None, ["search"]), (0, small_config(), ["train"])):
            result, model, stages = run_fold(plan, 2, budget, fixed_config=fixed)
            assert result.failed and model is None
            assert [s for s, _ in stages] == expected


class TestWilcoxon:
    def test_identical_inputs_degenerate(self):
        with pytest.raises(DegenerateComparisonError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_six_positive_differences(self):
        p = wilcoxon_signed_rank([2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6])
        assert p == pytest.approx(2 * (1 / 2**6))

    def test_exact_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            a = rng.normal(0.3, 1, 10)
            b = rng.normal(0.0, 1, 10)
            p = wilcoxon_signed_rank(a, b)
            p_ref = wilcoxon_exact_reference(a - b)
            assert p == pytest.approx(p_ref, abs=1e-12)

    def test_exact_close_to_approximation(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.4, 1, 10)
        b = rng.normal(0.0, 1, 10)
        p_exact = wilcoxon_signed_rank(a, b)
        # force the approximation path by replicating the pairs 13 ways is
        # not comparable; instead evaluate the approximation formula directly
        from physioshap.evaluate import _midranks

        diff = a - b
        diff = diff[diff != 0]
        n = diff.size
        ranks = _midranks(np.abs(diff))
        w = ranks[diff > 0].sum()
        mu = n * (n + 1) / 4
        var = n * (n + 1) * (2 * n + 1) / 24
        z = max(abs(w - mu) - 0.5, 0.0) / math.sqrt(var)
        p_approx = math.erfc(z / math.sqrt(2))
        assert abs(p_exact - p_approx) < 0.02

    def test_large_n_uses_approximation(self, rng):
        a = rng.normal(0.5, 1, 40)
        b = rng.normal(0.0, 1, 40)
        p = wilcoxon_signed_rank(a, b)
        assert 0.0 <= p <= 1.0

    def test_too_few_nonzero(self):
        with pytest.raises(InvalidArgumentError):
            wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])


class TestDataset:
    def test_needs_two_subjects(self, rng):
        feats = {n: 0.0 for n in FEATURE_NAMES}
        rows = [
            DatasetRow(0, 1, 1, FeatureVector(feats), {"valence": 5, "arousal": 5, "liking": 5})
        ]
        with pytest.raises(InvalidArgumentError):
            Dataset(rows)

    def test_matrix_subset(self, rng):
        ds = make_feature_dataset(rng, n_subjects=2, trials=3)
        sub = ds.matrix(["vEOG1_FE", "PPG1_SE"])
        assert sub.shape == (6, 2)
        with pytest.raises(InvalidArgumentError):
            ds.matrix(["nope"])
