import numpy as np
import pytest

from physioshap import entropy
from physioshap.entropy import (
    FEATURE_NAMES,
    EntropyConfig,
    FeatureVector,
    energy,
    extract_feature_vector,
    fuzzy_entropy,
    sample_entropy,
)
from physioshap.errors import InvalidArgumentError, SchemaMismatchError
from reference import fuzzy_entropy_reference, sample_entropy_reference

ABS = EntropyConfig(tolerance_mode="absolute")


class TestSampleEntropy:
    def test_constant_signal_zero(self):
        assert sample_entropy(np.full(60, 2.0), ABS) == 0.0

    def test_matches_reference_exactly(self, rng):
        x = rng.uniform(size=200)
        r = 0.2 * x.std()
        cfg = EntropyConfig(r=r, tolerance_mode="absolute")
        assert sample_entropy(x, cfg) == sample_entropy_reference(x, 2, r)

    def test_reference_battery(self, rng):
        for _ in range(10):
            n = int(rng.integers(40, 600))
            x = rng.normal(size=n)
            r = 0.15 * x.std()
            cfg = EntropyConfig(r=r, tolerance_mode="absolute")
            assert sample_entropy(x, cfg) == sample_entropy_reference(x, 2, r)

    def test_noise_above_sine(self):
        cfg = EntropyConfig()
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noise = rng.normal(size=400)
            t = np.arange(400)
            sine = np.sin(2 * np.pi * t / 32)
            sine = sine * noise.std() / sine.std()
            if sample_entropy(noise, cfg) > sample_entropy(sine, cfg):
                wins += 1
        assert wins >= 19

    def test_too_short_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_entropy(np.ones(3), EntropyConfig())

    def test_zero_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_entropy(np.full(50, 1.0), EntropyConfig())  # std-scaled on a constant

    def test_translation_invariant(self, rng):
        x = rng.normal(size=300)
        cfg = EntropyConfig()
        assert sample_entropy(x + 3.5, cfg) == sample_entropy(x, cfg)

    def test_scale_invariant_when_std_scaled(self, rng):
        x = rng.normal(size=300)
        cfg = EntropyConfig()
        assert sample_entropy(3.0 * x, cfg) == pytest.approx(sample_entropy(x, cfg), abs=1e-10)

    def test_degenerate_no_m1_matches_capped(self):
        # strictly increasing ramp with tiny tolerance: B > 0 requires some
        # m-template pair inside r, so craft one near-duplicate pair
        x = np.concatenate([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0 + 5.0]]).astype(float)
        x = np.concatenate([x, [50.0, 90.0]])
        cfg = EntropyConfig(r=0.5, tolerance_mode="absolute")
        v = sample_entropy(x, cfg)
        assert np.isfinite(v)

    def test_accepts_read_only_arrays(self, rng):
        # a Trial hands the kernels read-only arrays; a list is accepted too
        x = rng.normal(size=120)
        frozen = x.copy()
        frozen.flags.writeable = False
        assert sample_entropy(frozen, ABS) == sample_entropy(x, ABS) == sample_entropy(list(x), ABS)


class TestFuzzyEntropy:
    def test_constant_signal_zero(self):
        assert fuzzy_entropy(np.full(60, 2.0), ABS) == 0.0

    def test_matches_reference_exactly(self, rng):
        x = rng.normal(size=200)
        r = 0.15 * x.std()
        cfg = EntropyConfig(r=r, tolerance_mode="absolute")
        assert abs(fuzzy_entropy(x, cfg) - fuzzy_entropy_reference(x, 2, r, 2)) < 1e-12

    def test_reference_battery(self, rng):
        for _ in range(10):
            n = int(rng.integers(40, 600))
            x = rng.normal(size=n)
            r = 0.15 * x.std()
            cfg = EntropyConfig(r=r, tolerance_mode="absolute")
            assert abs(fuzzy_entropy(x, cfg) - fuzzy_entropy_reference(x, 2, r, 2)) < 1e-12

    def test_noise_amplitude_monotone(self):
        cfg = EntropyConfig()
        mono = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            t = np.arange(400)
            sine = np.sin(2 * np.pi * t / 32)
            noise = rng.normal(size=400)
            vals = [fuzzy_entropy(sine + a * noise, cfg) for a in (0.1, 0.4, 1.0)]
            if vals[0] <= vals[1] <= vals[2]:
                mono += 1
        assert mono >= 19

    def test_translation_invariant(self, rng):
        x = rng.normal(size=250)
        cfg = EntropyConfig()
        assert fuzzy_entropy(x + 7.25, cfg) == pytest.approx(fuzzy_entropy(x, cfg), abs=1e-12)

    def test_scale_invariant_when_std_scaled(self, rng):
        x = rng.normal(size=250)
        cfg = EntropyConfig()
        assert fuzzy_entropy(2.5 * x, cfg) == pytest.approx(fuzzy_entropy(x, cfg), abs=1e-10)

    def test_nonnegative_on_random_battery(self, rng):
        cfg = EntropyConfig()
        for _ in range(100):
            n = int(rng.integers(30, 200))
            x = rng.normal(size=n)
            assert fuzzy_entropy(x, cfg) >= 0.0
            assert sample_entropy(x, cfg) >= 0.0


def _assert_kernels_match_reference(x, cfg):
    """SampEn equals the O(N^2) reference exactly; FuzzyEn agrees within 1e-12."""
    x = np.asarray(x, dtype=float)
    if cfg.tolerance_mode == "std_scaled":
        r_se, x_fe = cfg.r * x.std(), x / x.std()
    else:
        r_se, x_fe = cfg.r, x
    assert sample_entropy(x, cfg) == sample_entropy_reference(x, cfg.m, r_se)
    assert abs(fuzzy_entropy(x, cfg) - fuzzy_entropy_reference(x_fe, cfg.m, cfg.r, cfg.n)) < 1e-12


class TestBlockedKernelEdges:
    """The banded and blocked kernels at band edges, ties, and block boundaries."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integer_gaps_equal_to_r(self, rng, m):
        # gaps of exactly r sit on the band edge and must not match (strict <)
        x = rng.integers(0, 6, size=300).astype(float)
        _assert_kernels_match_reference(x, EntropyConfig(m=m, r=1.0, tolerance_mode="absolute"))

    @pytest.mark.parametrize("step", [0.1, 0.25, 0.3])
    def test_quantized_gaps_near_r(self, rng, step):
        # multiples of 0.1 or 0.3 differ by r give or take an ulp after rounding
        x = np.round(rng.normal(size=400) / step) * step
        _assert_kernels_match_reference(x, EntropyConfig(r=step, tolerance_mode="absolute"))

    def test_heavy_ties(self, rng):
        x = rng.choice([-1.0, 0.0, 0.0, 0.0, 2.0], size=500)
        for r in (0.5, 1.0, 2.0, 3.5):
            _assert_kernels_match_reference(x, EntropyConfig(r=r, tolerance_mode="absolute"))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_smallest_length(self, rng, m):
        x = rng.normal(size=m + 2)
        _assert_kernels_match_reference(x, EntropyConfig(m=m, r=2.0, tolerance_mode="absolute"))

    @pytest.mark.parametrize("budget", [64, 1000, entropy._BLOCK_ELEMS])
    @pytest.mark.parametrize("n_templates", [255, 256, 257, 211])
    def test_lengths_around_block_boundaries(self, rng, monkeypatch, budget, n_templates):
        # 256 x 256 pairs fill one default block exactly; 211 is prime
        monkeypatch.setattr(entropy, "_BLOCK_ELEMS", budget)
        x = rng.normal(size=n_templates + 2)
        _assert_kernels_match_reference(x, EntropyConfig(tolerance_mode="absolute", r=0.3))

    @pytest.mark.parametrize("mode", ["absolute", "std_scaled"])
    def test_both_tolerance_modes(self, rng, mode):
        x = 3.0 * np.cumsum(rng.normal(size=350))
        _assert_kernels_match_reference(x, EntropyConfig(r=0.2, tolerance_mode=mode))

    @pytest.mark.parametrize("n_power", [1, 3])
    def test_fuzzy_exponents_other_than_two(self, rng, n_power):
        # n = 2 squares each coordinate gap; other exponents take abs then power
        x = rng.normal(size=300)
        _assert_kernels_match_reference(x, EntropyConfig(r=0.3, n=n_power, tolerance_mode="absolute"))

    @pytest.mark.parametrize("n", [4, 257, 700])
    def test_constant_signal_zero(self, n):
        x = np.full(n, -1.5)
        assert sample_entropy(x, ABS) == 0.0
        assert fuzzy_entropy(x, ABS) == 0.0

    @pytest.mark.parametrize("budget", [1, 50, 4096])
    def test_blocks_tile_the_upper_band(self, rng, monkeypatch, budget):
        monkeypatch.setattr(entropy, "_BLOCK_ELEMS", budget)
        n = 300
        stops = np.maximum.accumulate(np.minimum(np.arange(n) + rng.integers(1, 90, size=n), n))
        seen = np.zeros(n, dtype=int)
        for i0, i1, j1, view in entropy._upper_blocks(stops, (float,)):
            assert view.shape == (i1 - i0, j1 - i0)
            assert j1 == stops[i1 - 1]
            assert view.size <= budget or i1 - i0 == 1
            seen[i0:i1] += 1
        np.testing.assert_array_equal(seen, 1)


class TestEnergy:
    def test_zeros(self):
        assert energy(np.zeros(10)) == 0.0

    def test_small_example(self):
        assert energy([1.0, 2.0, 3.0]) == pytest.approx(14.0 / 3.0)

    def test_quadratic_homogeneity(self, rng):
        x = rng.normal(size=50)
        assert energy(3.0 * x) == pytest.approx(9.0 * energy(x), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            energy(np.array([]))


def component_map(rng, n=256):
    from physioshap.entropy import COMPONENT_SCHEMA

    return {
        tag: [rng.normal(size=n) for _ in range(count)] for _, tag, count in COMPONENT_SCHEMA
    }


class TestFeatureVector:
    def test_canonical_size_and_order(self):
        assert len(FEATURE_NAMES) == 51
        assert FEATURE_NAMES[0] == "hEOG1_SE"
        assert FEATURE_NAMES[1] == "hEOG1_FE"
        assert FEATURE_NAMES[2] == "hEOG1_En"
        assert "GSR2_En" in FEATURE_NAMES
        assert "PPG4_FE" in FEATURE_NAMES
        assert FEATURE_NAMES[-1] == "Temp1_En"

    def test_rejects_missing_feature(self):
        values = {n: 0.0 for n in FEATURE_NAMES[:-1]}
        with pytest.raises(SchemaMismatchError):
            FeatureVector(values)

    def test_rejects_nonfinite(self):
        values = {n: 0.0 for n in FEATURE_NAMES}
        values["PPG1_SE"] = float("nan")
        with pytest.raises(InvalidArgumentError):
            FeatureVector(values)


class TestExtractFeatureVector:
    def test_full_extraction(self, rng):
        fv = extract_feature_vector(component_map(rng), ABS)
        arr = fv.as_array()
        assert arr.shape == (51,)
        assert np.all(np.isfinite(arr))

    def test_deterministic(self, rng):
        comps = component_map(rng)
        a = extract_feature_vector(comps, ABS).as_array()
        b = extract_feature_vector(comps, ABS).as_array()
        np.testing.assert_array_equal(a, b)

    def test_missing_channel_rejected(self, rng):
        comps = component_map(rng)
        comps.pop("Temp")
        with pytest.raises(SchemaMismatchError, match="Temp"):
            extract_feature_vector(comps, ABS)

    def test_wrong_count_rejected(self, rng):
        comps = component_map(rng)
        comps["PPG"] = comps["PPG"][:3]
        with pytest.raises(SchemaMismatchError, match="PPG"):
            extract_feature_vector(comps, ABS)
