"""Deterministic synthetic trial generator with planted, recoverable effects.

Each channel is a small sum of sinusoids plus autoregressive noise. Trial
latents u_valence/u_arousal/u_liking in [-1, 1] drive both the ratings and,
scaled by ``effect_strength``, channel properties that the feature pipeline
can see after per-channel normalization:

  valence -> vEOG noise-to-signal ratio (irregularity)
  arousal -> dominant frequency of vEOG and Resp
  liking  -> PPG noise-to-signal ratio and Temp drift-to-noise ratio

Per-subject multiplicative offsets scaled by ``subject_variance`` perturb
frequencies and noise floors, and a per-subject DC shift exercises baseline
correction. With effect_strength = 0 the channels carry no label signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .signals import ChannelKind, Trial


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, effect strength, and timing of a generated dataset."""

    n_subjects: int = 8
    trials_per_subject: int = 20
    effect_strength: float = 1.0
    subject_variance: float = 0.1
    seed: int = 0
    sample_rate_hz: float = 128.0
    duration_s: float = 4.0
    baseline_s: float = 1.0

    def __post_init__(self):
        if self.n_subjects < 2:
            raise InvalidArgumentError("n_subjects must be >= 2")
        if self.trials_per_subject < 2:
            raise InvalidArgumentError("trials_per_subject must be >= 2")
        if not (0.0 <= self.effect_strength <= 1.0):
            raise InvalidArgumentError("effect_strength must lie in [0, 1]")
        if self.subject_variance < 0:
            raise InvalidArgumentError("subject_variance must be >= 0")
        if self.sample_rate_hz <= 0 or self.duration_s <= 0 or self.baseline_s <= 0:
            raise InvalidArgumentError("sample_rate_hz, duration_s, baseline_s must be positive")

    @property
    def n_signal(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def n_baseline(self) -> int:
        return int(round(self.baseline_s * self.sample_rate_hz))


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.6) -> np.ndarray:
    e = rng.normal(size=n)
    x = np.empty(n)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x * math.sqrt(1.0 - phi * phi)  # unit stationary variance


def _jitter(rng: np.random.Generator, scale: float) -> float:
    return float(np.clip(1.0 + scale * rng.normal(), 0.3, 3.0))


def generate_synthetic(spec: SyntheticSpec) -> list[Trial]:
    """Generate the full trial list, bit-identical for a given spec."""
    trials = []
    for subj in range(1, spec.n_subjects + 1):
        subj_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7001, subj]))
        sv = spec.subject_variance
        subj_freq = _jitter(subj_rng, 0.5 * sv)
        subj_noise = _jitter(subj_rng, sv)
        dc_offsets = subj_rng.normal(0.0, 5.0, size=len(ChannelKind))
        for trial_id in range(1, spec.trials_per_subject + 1):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, subj, trial_id]))
            trials.append(
                _generate_trial(spec, subj, trial_id, rng, subj_freq, subj_noise, dc_offsets)
            )
    return trials


def _generate_trial(
    spec: SyntheticSpec,
    subject_id: int,
    trial_id: int,
    rng: np.random.Generator,
    subj_freq: float,
    subj_noise: float,
    dc_offsets: np.ndarray,
) -> Trial:
    es = spec.effect_strength
    u_v, u_a, u_l = rng.uniform(-1.0, 1.0, size=3)
    n_total = spec.n_baseline + spec.n_signal
    t = np.arange(n_total) / spec.sample_rate_hz

    def tone(freq: float, amp: float = 1.0) -> np.ndarray:
        return amp * np.sin(2 * math.pi * freq * t + rng.uniform(0, 2 * math.pi))

    signals: dict[ChannelKind, np.ndarray] = {}

    signals[ChannelKind.hEOG] = (
        tone(0.4 * subj_freq) + 0.5 * tone(1.3 * subj_freq) + 0.3 * subj_noise * _ar1(rng, n_total)
    )

    # valence: noise/signal ratio; arousal: dominant frequency
    veog_freq = 1.0 * (1.0 + 0.45 * es * u_a) * subj_freq
    veog_noise = 0.35 * (1.0 + 0.85 * es * u_v) * subj_noise
    signals[ChannelKind.vEOG] = tone(veog_freq) + veog_noise * _ar1(rng, n_total)

    signals[ChannelKind.zEMG] = tone(9.0 * subj_freq, 0.6) + 0.8 * subj_noise * _ar1(
        rng, n_total, phi=0.2
    )

    signals[ChannelKind.tEMG] = (
        tone(2.1 * subj_freq)
        + 0.7 * tone(5.3 * subj_freq)
        + 0.5 * tone(11.0 * subj_freq)
        + 0.4 * subj_noise * _ar1(rng, n_total, phi=0.3)
    )

    # slow tonic ramp plus sparse phasic bumps
    tonic = 0.8 * tone(0.08 * subj_freq) + 0.4 * (t / t[-1])
    phasic = np.zeros(n_total)
    n_events = rng.integers(2, 6)
    decay = np.exp(-np.arange(n_total) / (0.4 * spec.sample_rate_hz))
    for _ in range(n_events):
        start = int(rng.integers(0, n_total))
        phasic[start:] += 0.6 * decay[: n_total - start]
    signals[ChannelKind.SCR] = tonic + phasic + 0.05 * subj_noise * _ar1(rng, n_total)

    # liking: PPG noise ratio
    ppg_noise = 0.30 * (1.0 + 0.85 * es * u_l) * subj_noise
    signals[ChannelKind.PPG] = (
        tone(1.2 * subj_freq)
        + 0.45 * tone(2.4 * subj_freq)
        + 0.25 * tone(3.6 * subj_freq)
        + 0.12 * tone(4.8 * subj_freq)
        + ppg_noise * _ar1(rng, n_total, phi=0.3)
    )

    # arousal: breathing frequency
    resp_freq = 0.30 * (1.0 + 0.60 * es * u_a) * subj_freq
    signals[ChannelKind.Resp] = tone(resp_freq) + 0.5 * tone(2.5 * resp_freq) + 0.15 * subj_noise * _ar1(rng, n_total)

    # liking: drift-to-noise ratio (Temp is never detrended, so drift survives)
    drift_amp = 1.0 * (1.0 + 0.8 * es * u_l)
    ramp = np.linspace(-1.0, 1.0, n_total)
    signals[ChannelKind.Temp] = drift_amp * (ramp + 0.3 * ramp**2) + 0.5 * subj_noise * _ar1(
        rng, n_total, phi=0.8
    )

    channels: dict[ChannelKind, np.ndarray] = {}
    baselines: dict[ChannelKind, np.ndarray] = {}
    for i, kind in enumerate(ChannelKind):
        full = signals[kind] + dc_offsets[i]
        baselines[kind] = full[: spec.n_baseline]
        channels[kind] = full[spec.n_baseline :]

    rating_noise = rng.normal(0.0, 0.15, size=3)
    ratings = {
        "valence": float(np.clip(5.7 + 3.2 * u_v + rating_noise[0], 1.0, 9.0)),
        "arousal": float(np.clip(5.7 + 3.2 * u_a + rating_noise[1], 1.0, 9.0)),
        "liking": float(np.clip(5.7 + 3.2 * u_l + rating_noise[2], 1.0, 9.0)),
    }
    return Trial(
        subject_id=subject_id,
        trial_id=trial_id,
        channels=channels,
        baselines=baselines,
        ratings=ratings,
        sample_rate_hz=spec.sample_rate_hz,
    )
