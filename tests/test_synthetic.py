import numpy as np
import pytest

from physioshap.errors import InvalidArgumentError
from physioshap.signals import CHANNEL_ORDER, ChannelKind
from physioshap.synthetic import SyntheticSpec, generate_synthetic


def small_spec(**kw):
    base = dict(
        n_subjects=3,
        trials_per_subject=4,
        effect_strength=1.0,
        subject_variance=0.05,
        seed=5,
        duration_s=2.0,
        baseline_s=0.5,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticSpec(n_subjects=1)
        with pytest.raises(InvalidArgumentError):
            SyntheticSpec(trials_per_subject=1)
        with pytest.raises(InvalidArgumentError):
            SyntheticSpec(effect_strength=1.5)
        with pytest.raises(InvalidArgumentError):
            SyntheticSpec(subject_variance=-0.1)

    def test_sample_counts(self):
        spec = small_spec()
        assert spec.n_signal == 256
        assert spec.n_baseline == 64


class TestGeneration:
    def test_shapes_and_schema(self):
        trials = generate_synthetic(small_spec())
        assert len(trials) == 12
        for t in trials:
            assert set(t.channels) == set(CHANNEL_ORDER)
            assert t.n_samples == 256
            assert len(t.baselines[ChannelKind.PPG]) == 64
            for name in ("valence", "arousal", "liking"):
                assert 1.0 <= t.ratings[name] <= 9.0

    def test_bit_identical_per_seed(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        for ta, tb in zip(a, b):
            assert ta.ratings == tb.ratings
            for kind in CHANNEL_ORDER:
                np.testing.assert_array_equal(ta.channels[kind], tb.channels[kind])

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_spec(seed=1))
        b = generate_synthetic(small_spec(seed=2))
        assert not np.array_equal(
            a[0].channels[ChannelKind.vEOG], b[0].channels[ChannelKind.vEOG]
        )

    def test_zero_effect_strength_decouples_channels(self):
        # same seed, different effect strengths: ratings differ through the
        # latents but a no-effect generator yields label-independent channels;
        # verified end-to-end in the acceptance suite, structurally here
        spec0 = small_spec(effect_strength=0.0)
        trials = generate_synthetic(spec0)
        assert len(trials) == 12

    def test_subject_offsets_shift_baseline_mean(self):
        trials = generate_synthetic(small_spec(subject_variance=0.3))
        means = {}
        for t in trials:
            means.setdefault(t.subject_id, []).append(
                float(t.baselines[ChannelKind.Temp].mean())
            )
        subject_means = [np.mean(v) for v in means.values()]
        assert np.std(subject_means) > 0.1
