from dataclasses import replace

import numpy as np
import pytest

from physioshap.dataio import (
    ingest_dataset,
    read_features_csv,
    write_csv,
    write_dataset,
    write_features_csv,
    written_whole,
)
from physioshap.errors import IngestionError, InvalidArgumentError
from physioshap.pipeline import trial_features
from physioshap.signals import CHANNEL_ORDER, ChannelKind
from physioshap.synthetic import SyntheticSpec, generate_synthetic
from test_evaluate import make_feature_dataset


@pytest.fixture
def dataset_dir(tmp_path):
    spec = SyntheticSpec(
        n_subjects=2, trials_per_subject=2, seed=4, duration_s=1.0, baseline_s=0.25
    )
    trials = generate_synthetic(spec)
    root = tmp_path / "data"
    write_dataset(trials, root)
    return root, trials


class TestRoundTrip:
    def test_ingest_recovers_trials(self, dataset_dir, tmp_path):
        spec = SyntheticSpec(
            n_subjects=2, trials_per_subject=2, seed=4, sample_rate_hz=64.0, duration_s=2.0, baseline_s=0.5
        )
        slow = generate_synthetic(spec)
        write_dataset(slow, tmp_path / "slow")
        for root, trials in (dataset_dir, (tmp_path / "slow", slow)):
            loaded = ingest_dataset(root)
            assert len(loaded) == len(trials)
            for a, b in zip(loaded, trials):
                assert (a.subject_id, a.trial_id) == (b.subject_id, b.trial_id)
                assert a.ratings == b.ratings
                assert a.sample_rate_hz == b.sample_rate_hz
                for kind in CHANNEL_ORDER:
                    np.testing.assert_array_equal(a.channels[kind], b.channels[kind])
                    np.testing.assert_array_equal(a.baselines[kind], b.baselines[kind])
                np.testing.assert_array_equal(trial_features(a).as_array(), trial_features(b).as_array())

    def test_write_refuses_trials_of_another_rate(self, dataset_dir, tmp_path):
        _, trials = dataset_dir
        odd = replace(trials[1], sample_rate_hz=64.0)
        with pytest.raises(InvalidArgumentError, match=r"\(1, 2\)"):
            write_dataset([trials[0], odd], tmp_path / "mixed")
        assert not (tmp_path / "mixed").exists()

    def test_stable_ordering(self, dataset_dir):
        root, _ = dataset_dir
        loaded = ingest_dataset(root)
        keys = [(t.subject_id, t.trial_id) for t in loaded]
        assert keys == sorted(keys)


class TestIngestValidation:
    def test_missing_channel_named(self, dataset_dir):
        root, _ = dataset_dir
        path = root / "subject_1" / "trial_1.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("Resp")
        rewritten = [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines]
        path.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(IngestionError, match="Resp"):
            ingest_dataset(root)

    def test_wrong_row_count_cited(self, dataset_dir):
        root, _ = dataset_dir
        path = root / "subject_1" / "trial_1.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(IngestionError, match="expected 160 data rows"):
            ingest_dataset(root)

    def test_non_numeric_cell_located(self, dataset_dir):
        root, _ = dataset_dir
        path = root / "subject_1" / "trial_1.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "oops"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="row 4, column zEMG"):
            ingest_dataset(root)

    def test_missing_labels_file(self, dataset_dir):
        root, _ = dataset_dir
        (root / "subject_1" / "trial_1.labels.csv").unlink()
        with pytest.raises(IngestionError, match="missing labels file"):
            ingest_dataset(root)

    def test_default_deap_shape_without_meta(self, dataset_dir):
        root, _ = dataset_dir
        (root / "meta.json").unlink()
        with pytest.raises(IngestionError, match="expected 8064 data rows"):
            ingest_dataset(root)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_dataset(tmp_path / "nope")


class TestFeatureTable:
    def test_round_trip_exact(self, rng, tmp_path):
        ds = make_feature_dataset(rng, n_subjects=3, trials=4)
        path = tmp_path / "features.csv"
        write_features_csv(ds, path)
        loaded = read_features_csv(path)
        assert len(loaded) == len(ds)
        np.testing.assert_array_equal(loaded.matrix(), ds.matrix())
        for a, b in zip(loaded.rows, sorted(ds.rows, key=lambda r: (r.subject_id, r.trial_id))):
            assert a.ratings == b.ratings

    def test_header_and_width(self, rng, tmp_path):
        ds = make_feature_dataset(rng, n_subjects=2, trials=2)
        path = tmp_path / "features.csv"
        write_features_csv(ds, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:5] == ["subject", "trial", "valence", "arousal", "liking"]
        assert len(header) == 5 + 51

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IngestionError):
            read_features_csv(path)


class TestWholeWrites:
    def test_failed_row_stream_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "features.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (3, 4.5)])
        before = path.read_bytes()

        def rows():
            yield (5, 6.5)
            yield (7, 8.5)
            raise OSError("No space left on device")

        with pytest.raises(OSError, match="No space left"):
            write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]

    def test_failed_first_write_creates_no_file(self, tmp_path):
        def rows():
            raise KeyError("cell")
            yield

        with pytest.raises(KeyError):
            write_csv(tmp_path / "out.csv", ["a"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_whole_write_replaces_the_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("old and longer than the new text")
        with written_whole(path) as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
