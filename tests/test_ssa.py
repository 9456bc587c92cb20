import numpy as np
import pytest

from physioshap.errors import InvalidArgumentError
from physioshap.ssa import (
    SsaConfig,
    decompose,
    diagonal_average,
    embed,
    hard_threshold_rank,
    reconstruct_selected,
)
from reference import diagonal_average_reference


def ppg_like(rng, n=7680, rate=128.0):
    """Pulse-like waveform: fundamental plus two harmonics plus light noise."""
    t = np.arange(n) / rate
    x = (
        np.sin(2 * np.pi * 1.2 * t)
        + 0.5 * np.sin(2 * np.pi * 2.4 * t + 0.7)
        + 0.35 * np.sin(2 * np.pi * 4.8 * t + 1.3)
        + 0.03 * rng.normal(size=n)
    )
    return (x - x.mean()) / x.std()


class TestEmbed:
    def test_small_example(self):
        m = embed(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert m.shape == (2, 3)
        np.testing.assert_array_equal(m, [[1, 2, 3], [2, 3, 4]])

    def test_window_equals_length(self):
        x = np.array([5.0, 6.0, 7.0])
        m = embed(x, 3)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], x)

    def test_hankel_property(self, rng):
        x = rng.normal(size=40)
        m = embed(x, 7)
        rows, cols = m.shape
        for i in range(1, rows):
            for j in range(cols - 1):
                assert m[i, j] == m[i - 1, j + 1]

    def test_window_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            embed(np.ones(5), 1)
        with pytest.raises(InvalidArgumentError):
            embed(np.ones(5), 6)


class TestDiagonalAverage:
    def test_inverts_embedding(self, rng):
        x = rng.normal(size=100)
        out = diagonal_average(embed(x, 12))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_single_cell(self):
        out = diagonal_average(np.array([[3.5]]))
        np.testing.assert_array_equal(out, [3.5])

    def test_matches_brute_force(self, rng):
        m = rng.normal(size=(3, 4))
        out = diagonal_average(m)
        np.testing.assert_array_equal(out, diagonal_average_reference(m))


class TestDecompose:
    def test_constant_signal_rank_one(self):
        x = np.full(200, 3.0)
        d = decompose(x, SsaConfig())
        assert d.rank == 1
        np.testing.assert_allclose(d.components[0], x, atol=1e-8)

    def test_reconstruction_identity(self, rng):
        x = rng.normal(size=512)
        d = decompose(x, SsaConfig())
        total = sum(d.components)
        assert np.linalg.norm(total - x) / np.linalg.norm(x) < 1e-8

    def test_sinusoid_concentrates_in_two_components(self, rng):
        t = np.arange(2048)
        x = np.sin(2 * np.pi * t / 16)
        d = decompose(x, SsaConfig(window_len=12))
        energies = np.array([np.sum(c**2) for c in d.components])
        assert energies[:2].sum() / energies.sum() > 0.999

    def test_singular_values_descending_nonnegative(self, rng):
        d = decompose(rng.normal(size=300), SsaConfig())
        sv = d.singular_values
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 0)

    def test_component_energy_follows_singular_order(self, rng):
        for _ in range(5):
            d = decompose(rng.normal(size=400), SsaConfig())
            e = [float(np.sum(c**2)) for c in d.components]
            assert e[0] >= e[-1]

    def test_identity_across_window_lengths(self, rng):
        x = rng.normal(size=256)
        for L in (2, 5, 12, 32):
            d = decompose(x, SsaConfig(window_len=L))
            total = sum(d.components)
            assert np.linalg.norm(total - x) / np.linalg.norm(x) < 1e-8


class TestHardThresholdRank:
    def test_all_zero_spectrum(self):
        assert hard_threshold_rank(np.zeros(12), 12, 7669) == 0

    def test_rank_one_plus_noise_floor(self):
        sv = np.array([100.0] + [0.01] * 11)
        # direct evaluation: beta = 12/7669, omega ~ 1.43, tau ~ 0.0143
        beta = 12 / 7669
        omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
        tau = omega * np.median(sv)
        assert (sv > tau).sum() == 1
        assert hard_threshold_rank(sv, 12, 7669) == 1

    def test_ppg_like_keeps_four(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = ppg_like(rng)
            d = decompose(x, SsaConfig())
            s = hard_threshold_rank(d.singular_values, 12, x.size - 11)
            assert s == 4

    def test_scale_invariant(self, rng):
        sv = np.sort(np.abs(rng.normal(size=12)))[::-1]
        s1 = hard_threshold_rank(sv, 12, 500)
        for c in (1e-6, 3.0, 1e9):
            assert hard_threshold_rank(sv * c, 12, 500) == s1


class TestReconstructSelected:
    def test_all_indices_give_original(self, rng):
        x = rng.normal(size=300)
        d = decompose(x, SsaConfig())
        rec = reconstruct_selected(d, range(1, d.rank + 1))
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-8

    def test_empty_selection_is_zero(self, rng):
        d = decompose(rng.normal(size=100), SsaConfig())
        rec = reconstruct_selected(d, [])
        np.testing.assert_array_equal(rec, np.zeros(100))

    def test_ppg_first_four_close(self):
        rng = np.random.default_rng(7)
        x = ppg_like(rng)
        d = decompose(x, SsaConfig())
        rec = reconstruct_selected(d, [1, 2, 3, 4])
        rel = np.linalg.norm(rec - x) / np.linalg.norm(x)
        assert rel < 0.05

    def test_out_of_range_rejected(self, rng):
        d = decompose(rng.normal(size=100), SsaConfig())
        with pytest.raises(InvalidArgumentError):
            reconstruct_selected(d, [0])
        with pytest.raises(InvalidArgumentError):
            reconstruct_selected(d, [d.rank + 1])


def test_identity_property_battery(rng):
    # 100 random signals, N = 1024, L = 12: exact additive reconstruction
    for _ in range(100):
        x = rng.normal(size=1024)
        d = decompose(x, SsaConfig(window_len=12))
        total = sum(d.components)
        assert np.linalg.norm(total - x) / np.linalg.norm(x) < 1e-8
