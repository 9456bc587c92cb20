import pickle
import tracemalloc

import numpy as np
import pytest

from physioshap.errors import (
    DegenerateSignalError,
    InvalidArgumentError,
    SchemaMismatchError,
)
from physioshap.signals import (
    CHANNEL_ORDER,
    SCR_PHASIC_KEY,
    SCR_TONIC_KEY,
    ChannelKind,
    PreprocessConfig,
    Trial,
    baseline_correct,
    detrend_quadratic,
    moving_average_smooth,
    preprocess_trial,
    scr_split,
    znormalize,
)


def make_trial(n_signal=512, n_baseline=128, rate=128.0, seed=0):
    rng = np.random.default_rng(seed)
    channels = {}
    baselines = {}
    for kind in CHANNEL_ORDER:
        full = np.cumsum(rng.normal(size=n_baseline + n_signal)) + rng.normal() * 3
        baselines[kind] = full[:n_baseline]
        channels[kind] = full[n_baseline:]
    ratings = {"valence": 6.0, "arousal": 4.0, "liking": 5.0}
    return Trial(1, 1, channels, baselines, ratings, sample_rate_hz=rate)


class TestTrial:
    def test_rejects_empty_and_nonfinite(self):
        trial = make_trial()
        for bad in (np.array([]), np.full(trial.n_samples, np.nan)):
            with pytest.raises(InvalidArgumentError, match="channel Resp"):
                Trial(1, 1, {**trial.channels, ChannelKind.Resp: bad}, trial.baselines, trial.ratings)
        with pytest.raises(InvalidArgumentError, match="baseline SCR"):
            Trial(1, 1, trial.channels, {**trial.baselines, ChannelKind.SCR: [1.0, np.inf]}, trial.ratings)
        for rate in (0.0, -128.0, np.inf):
            with pytest.raises(InvalidArgumentError, match="sample_rate_hz"):
                Trial(1, 1, trial.channels, trial.baselines, trial.ratings, sample_rate_hz=rate)

    def test_values_read_only(self):
        x = np.arange(512, dtype=float)
        trial = make_trial()
        trial = Trial(1, 1, {**trial.channels, ChannelKind.PPG: x}, trial.baselines, trial.ratings)
        x[0] = -1.0  # the trial holds a copy
        assert trial.channels[ChannelKind.PPG][0] == 0.0
        for signals in (trial.channels, trial.baselines, preprocess_trial(trial).extras):
            for values in signals.values():
                assert values.dtype == np.float64
                with pytest.raises(ValueError):
                    values[0] = 5.0

    def test_unpickled_trial_is_checked_and_read_only(self):
        trial = preprocess_trial(make_trial(rate=64.0))
        copy = pickle.loads(pickle.dumps(trial))
        assert (copy.subject_id, copy.trial_id, copy.sample_rate_hz) == (1, 1, 64.0)
        assert dict(copy.ratings) == dict(trial.ratings)
        for attr in ("channels", "baselines", "extras"):
            original, copied = getattr(trial, attr), getattr(copy, attr)
            assert copied.keys() == original.keys() and copied
            for key, values in copied.items():
                np.testing.assert_array_equal(values, original[key])
                assert values.flags.writeable is False

    def test_requires_all_channels(self):
        trial = make_trial()
        channels = dict(trial.channels)
        channels.pop(ChannelKind.Temp)
        with pytest.raises(SchemaMismatchError):
            Trial(1, 1, channels, trial.baselines, trial.ratings)

    def test_rejects_out_of_range_rating(self):
        trial = make_trial()
        with pytest.raises(InvalidArgumentError):
            Trial(1, 1, trial.channels, trial.baselines, {"valence": 0.5, "arousal": 5, "liking": 5})


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        x = np.full(100, 3.25)
        for span in (1, 2, 5, 64):
            out = moving_average_smooth(x, span)
            np.testing.assert_allclose(out, x)

    def test_span_one_is_identity(self, rng):
        x = rng.normal(size=50)
        out = moving_average_smooth(x, 1)
        np.testing.assert_array_equal(out, x)

    def test_impulse_span3(self):
        out = moving_average_smooth(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 3)
        np.testing.assert_allclose(out, [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0])

    def test_even_span_window_convention(self, rng):
        # interior window for span 4 is [i-2, i+1]
        x = rng.normal(size=20)
        out = moving_average_smooth(x, 4)
        i = 10
        assert out[i] == pytest.approx(x[i - 2 : i + 2].mean(), abs=1e-12)

    def test_span_longer_than_signal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            moving_average_smooth(np.array([1.0, 2.0]), 3)


class TestBaselineCorrect:
    def test_zero_mean_baseline_is_identity(self, rng):
        x = rng.normal(size=30)
        out = baseline_correct(x, np.array([-1.0, 1.0]))
        np.testing.assert_array_equal(out, x)

    def test_constant_matches_baseline_gives_zero(self):
        out = baseline_correct(np.full(10, 2.5), np.full(4, 2.5))
        np.testing.assert_allclose(out, 0.0)

    def test_three_second_baseline_shape(self):
        # 384 samples at 128 Hz cover exactly the 3 s pre-stimulus window
        trial = make_trial(n_baseline=384, rate=128.0)
        assert trial.baselines[ChannelKind.SCR].size / trial.sample_rate_hz == pytest.approx(3.0)


class TestZnormalize:
    def test_two_point_example(self):
        out = znormalize(np.array([1.0, 3.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_idempotent(self, rng):
        x = rng.normal(size=200) * 4 + 7
        once = znormalize(x)
        twice = znormalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)
        assert abs(once.mean()) < 1e-10
        assert abs(once.std() - 1.0) < 1e-10

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSignalError):
            znormalize(np.full(10, 2.0))


class TestDetrendQuadratic:
    def test_exact_quadratic_removed(self):
        t = np.arange(200, dtype=float)
        x = 2.0 + 0.3 * t - 0.001 * t**2
        out = detrend_quadratic(x)
        assert np.abs(out).max() < 1e-8

    def test_linear_removed(self):
        t = np.arange(100, dtype=float)
        out = detrend_quadratic(5.0 - 0.7 * t)
        assert np.abs(out).max() < 1e-8

    def test_recovers_sine_under_trend(self):
        # generator: a sine orthogonalized against {1, t, t^2} plus a known
        # quadratic trend; detrending must give back the oscillation
        t = np.arange(1000, dtype=float)
        raw = np.sin(2 * np.pi * t / 50)
        basis = np.column_stack([np.ones_like(t), t, t**2])
        coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
        sine = raw - basis @ coef
        trend = 1.0 + 0.01 * t + 2e-5 * t**2
        out = detrend_quadratic(sine + trend)
        assert np.abs(out - sine).max() < 1e-3

    def test_residual_orthogonal_to_quadratic_basis(self, rng):
        x = rng.normal(size=300)
        out = detrend_quadratic(x)
        t = np.arange(300, dtype=float)
        for basis in (np.ones_like(t), t, t**2):
            # normalized inner product vanishes for least squares residuals
            assert abs(out @ basis) / (np.linalg.norm(basis) * 300) < 1e-8

    def test_too_short_rejected(self):
        with pytest.raises(InvalidArgumentError):
            detrend_quadratic(np.array([1.0, 2.0]))


class TestScrSplit:
    def test_exact_additive_decomposition(self, rng):
        # exact up to the one unavoidable rounding of the float subtraction:
        # error bounded by machine epsilon at the component magnitude
        for scale in (1.0, 1e-6, 1e6):
            x = rng.normal(size=600).cumsum() * scale
            phasic, tonic = scr_split(x, 1.0, 128.0)
            err = np.abs(phasic + tonic - x)
            bound = 2 * np.finfo(float).eps * (np.abs(phasic) + np.abs(tonic))
            assert np.all(err <= bound)

    def test_constant_input(self):
        phasic, tonic = scr_split(np.full(300, 4.0), 1.0, 128.0)
        np.testing.assert_allclose(tonic, 4.0)
        np.testing.assert_allclose(phasic, 0.0)

    def test_tonic_tracks_slow_ramp(self, rng):
        n = 1280
        ramp = np.linspace(0, 5, n)
        spikes = np.zeros(n)
        spikes[rng.integers(0, n, size=12)] = 3.0
        _, tonic = scr_split(ramp + spikes, 2.0, 128.0)
        corr = np.corrcoef(tonic, ramp)[0, 1]
        assert corr > 0.99

    @pytest.mark.parametrize("n, window_s", [(7680, 4.0), (3001, 4.0), (1000, 3.0), (600, 4.0078125), (515, 4.0)])
    def test_tonic_equals_one_median_over_every_window(self, rng, n, window_s):
        # the direct form: one np.median over all interior windows, then
        # the shrinking symmetric windows at the edges; the windows are 512
        # or 513 samples (even and odd), and n - w + 1 spans several blocks
        x = rng.normal(size=n).cumsum()
        w = int(round(window_s * 128.0))
        left, right = w // 2, (w - 1) // 2
        expected = np.empty(n)
        expected[left : n - right] = np.median(np.lib.stride_tricks.sliding_window_view(x, w), axis=1)
        for i in (*range(left), *range(n - right, n)):
            r = min(i, n - 1 - i)
            expected[i] = np.median(x[i - r : i + r + 1])
        np.testing.assert_array_equal(scr_split(x, window_s, 128.0)[1], expected)

    def test_memory_stays_bounded_at_paper_length(self, rng):
        # one median over every window of a 60 s channel would copy a
        # 7169 x 512 float64 matrix, 28 MiB
        x = rng.normal(size=7680)
        tracemalloc.start()
        try:
            scr_split(x, 4.0, 128.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scr_split(np.ones(10), 1.0, 128.0)  # 128 samples > 10

    def test_window_under_three_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scr_split(np.ones(100), 0.01, 128.0)


class TestPreprocessTrial:
    def test_matches_manual_composition_bitwise(self):
        trial = make_trial()
        cfg = PreprocessConfig()
        out = preprocess_trial(trial, cfg)
        for kind in CHANNEL_ORDER:
            ts = moving_average_smooth(trial.channels[kind], cfg.smooth_span[kind])
            ts = baseline_correct(ts, trial.baselines[kind])
            ts = znormalize(ts)
            if kind not in cfg.detrend_exempt:
                ts = detrend_quadratic(ts)
            np.testing.assert_array_equal(out.channels[kind], ts)

    def test_scr_split_retained(self):
        out = preprocess_trial(make_trial())
        assert SCR_PHASIC_KEY in out.extras and SCR_TONIC_KEY in out.extras
        np.testing.assert_allclose(
            out.extras[SCR_PHASIC_KEY] + out.extras[SCR_TONIC_KEY],
            out.channels[ChannelKind.SCR],
        )

    def test_scr_window_follows_the_trial_rate(self):
        trial = make_trial(n_signal=1024, rate=64.0)
        out = preprocess_trial(trial)
        assert out.sample_rate_hz == 64.0
        _, tonic = scr_split(out.channels[ChannelKind.SCR], 4.0, 64.0)
        np.testing.assert_array_equal(out.extras[SCR_TONIC_KEY], tonic)

    def test_temp_never_detrended(self):
        # a strong quadratic trend survives on Temp but not on vEOG
        trial = make_trial()
        out = preprocess_trial(trial)
        t = np.arange(out.n_samples, dtype=float)
        basis = t - t.mean()
        temp_slope = abs(out.channels[ChannelKind.Temp] @ basis)
        veog_slope = abs(out.channels[ChannelKind.vEOG] @ basis)
        assert veog_slope < 1e-6 * basis.size
        assert temp_slope > veog_slope

    def test_deap_shaped_lengths(self):
        trial = make_trial(n_signal=7680, n_baseline=384)
        out = preprocess_trial(trial)
        assert out.n_samples == 7680

    def test_error_names_channel_and_step(self):
        trial = make_trial()
        channels = dict(trial.channels)
        channels[ChannelKind.Resp] = np.full(trial.n_samples, 1.0)
        bad = Trial(1, 1, channels, trial.baselines, trial.ratings)
        with pytest.raises(DegenerateSignalError, match="channel Resp, step normalize"):
            preprocess_trial(bad)

    def test_pure_same_input_same_output(self):
        trial = make_trial(seed=5)
        a = preprocess_trial(trial)
        b = preprocess_trial(trial)
        for kind in CHANNEL_ORDER:
            np.testing.assert_array_equal(a.channels[kind], b.channels[kind])
