"""Trial data model and the per-channel preprocessing chain.

Every signal is a 1-D float64 array of uniformly spaced samples. A trial
bundles the eight peripheral channels of one subject watching one video, the
pre-stimulus baseline segments and the continuous 9-point affect ratings, and
states the one sampling rate they share. All operations are pure: the same
input always produces the bit-identical output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .errors import DegenerateSignalError, InvalidArgumentError, SchemaMismatchError


class ChannelKind(enum.Enum):
    """The eight peripheral channels, in canonical order."""

    hEOG = "hEOG"
    vEOG = "vEOG"
    zEMG = "zEMG"
    tEMG = "tEMG"
    SCR = "SCR"
    PPG = "PPG"
    Resp = "Resp"
    Temp = "Temp"


CHANNEL_ORDER: tuple[ChannelKind, ...] = tuple(ChannelKind)
RATING_NAMES: tuple[str, ...] = ("valence", "arousal", "liking")

SCR_PHASIC_KEY = "SCR_phasic"
SCR_TONIC_KEY = "SCR_tonic"


def _as_values(x) -> np.ndarray:
    """Return a 1-D array-like as float64 values."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-D signal, got shape {arr.shape}")
    return arr


def _checked_signal(name: str, x) -> np.ndarray:
    """A read-only, non-empty, finite float64 copy of a 1-D signal."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"signal {name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"signal {name} has non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Trial:
    """One subject x video recording with per-channel baselines and ratings.

    Every channel, baseline and extra is stored as a read-only, non-empty,
    finite float64 copy, all sampled at the one ``sample_rate_hz``.
    """

    subject_id: int
    trial_id: int
    channels: Mapping[ChannelKind, np.ndarray]
    baselines: Mapping[ChannelKind, np.ndarray]
    ratings: Mapping[str, float]
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)
    sample_rate_hz: float = 128.0

    def __post_init__(self):
        missing = [k.value for k in CHANNEL_ORDER if k not in self.channels]
        if missing:
            raise SchemaMismatchError(f"trial is missing channels: {missing}")
        extra = [k for k in self.channels if k not in CHANNEL_ORDER]
        if extra:
            raise SchemaMismatchError(f"trial has unknown channels: {extra}")
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise InvalidArgumentError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        for role, attr in (("channel", "channels"), ("baseline", "baselines"), ("extra", "extras")):
            signals = getattr(self, attr).items()
            checked = {k: _checked_signal(f"{role} {getattr(k, 'value', k)}", x) for k, x in signals}
            object.__setattr__(self, attr, checked)
        lengths = {len(ts) for ts in self.channels.values()}
        if len(lengths) != 1:
            raise SchemaMismatchError(f"channel lengths differ: {sorted(lengths)}")
        if self.baselines:
            blen = {len(ts) for ts in self.baselines.values()}
            if len(blen) != 1:
                raise SchemaMismatchError(f"baseline lengths differ: {sorted(blen)}")
        for name in RATING_NAMES:
            if name not in self.ratings:
                raise SchemaMismatchError(f"trial is missing rating '{name}'")
            r = self.ratings[name]
            if not (1.0 <= r <= 9.0):
                raise InvalidArgumentError(f"rating '{name}'={r} outside [1, 9]")

    def __reduce__(self):
        # rebuild through the constructor: pickle keeps neither the checks
        # nor the read-only flags, and pool workers receive trials by pickle
        return Trial, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))


def default_smooth_spans() -> dict[ChannelKind, int]:
    """Per-channel smoothing spans: 64 points for SCR/Temp, 5 otherwise."""
    spans = {kind: 5 for kind in CHANNEL_ORDER}
    spans[ChannelKind.SCR] = 64
    spans[ChannelKind.Temp] = 64
    return spans


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the preprocessing chain.

    Quadratic detrending is skipped for the channels in ``detrend_exempt``.
    The SCR channel is additionally split into phasic/tonic parts using a
    centered moving median of ``scr_tonic_window_s`` seconds as the tonic.
    """

    smooth_span: Mapping[ChannelKind, int] = field(default_factory=default_smooth_spans)
    detrend_exempt: frozenset[ChannelKind] = frozenset({ChannelKind.Temp, ChannelKind.SCR})
    scr_tonic_window_s: float = 4.0

    def __post_init__(self):
        for kind in CHANNEL_ORDER:
            span = self.smooth_span.get(kind)
            if span is None or int(span) < 1:
                raise InvalidArgumentError(f"smooth span for {kind.value} must be >= 1")
        if not (self.scr_tonic_window_s > 0):
            raise InvalidArgumentError("scr_tonic_window_s must be positive")


def _window_bounds(n: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    # Interior window is [i - span//2, i + (span-1)//2]; where that window
    # would spill over an edge it shrinks to the symmetric odd window
    # [i - r, i + r] with r = min(i, n-1-i).
    left = span // 2
    right = (span - 1) // 2
    i = np.arange(n)
    lo = i - left
    hi = i + right
    shrink = (i < left) | (i > n - 1 - right)
    r = np.minimum(i, n - 1 - i)
    lo = np.where(shrink, i - r, lo)
    hi = np.where(shrink, i + r, hi)
    return lo, hi


def moving_average_smooth(x, span: int) -> np.ndarray:
    """Centered moving-average filter with edge windows shrinking symmetrically.

    span=1 is the identity; a constant series is unchanged for any span.
    """
    x = _as_values(x)
    span = int(span)
    if span < 1:
        raise InvalidArgumentError(f"span must be >= 1, got {span}")
    if span > x.size:
        raise InvalidArgumentError(f"span {span} exceeds signal length {x.size}")
    if span == 1:
        return x
    lo, hi = _window_bounds(x.size, span)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def baseline_correct(x, baseline) -> np.ndarray:
    """Subtract the mean of the pre-stimulus baseline segment."""
    x = _as_values(x)
    b = _as_values(baseline)
    if b.size == 0:
        raise InvalidArgumentError("baseline must be non-empty")
    return x - b.mean()


def znormalize(x) -> np.ndarray:
    """Center to zero mean and scale to unit population standard deviation."""
    x = _as_values(x)
    sd = x.std()
    if sd == 0.0:
        raise DegenerateSignalError("cannot z-normalize a zero-variance signal")
    return (x - x.mean()) / sd


def detrend_quadratic(x) -> np.ndarray:
    """Remove the least-squares quadratic trend over the sample index.

    The residual is orthogonal to {1, t, t^2}; exact quadratics (and
    therefore linear ramps and constants) map to zero.
    """
    x = _as_values(x)
    if x.size < 3:
        raise InvalidArgumentError("quadratic detrend needs at least 3 samples")
    t = np.arange(x.size, dtype=np.float64)
    fit = np.polynomial.Polynomial.fit(t, x, deg=2)
    return x - fit(t)


def scr_split(x, tonic_window_s: float, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Split skin conductance sampled at ``sample_rate_hz`` into (phasic, tonic).

    The tonic part is a centered moving median over ``tonic_window_s``
    seconds (same edge convention as the smoother); the phasic part is the
    remainder, so phasic + tonic reproduces the input exactly.
    """
    x = _as_values(x)
    w = int(round(tonic_window_s * sample_rate_hz))
    if w < 3:
        raise InvalidArgumentError(
            f"tonic window of {tonic_window_s} s is under 3 samples at {sample_rate_hz} Hz"
        )
    if w > x.size:
        raise InvalidArgumentError(f"tonic window ({w} samples) exceeds signal length {x.size}")
    tonic = np.empty_like(x)
    left = w // 2
    right = (w - 1) // 2
    # np.median copies the windows it is given, so the interior goes in
    # blocks of 256: all at once is a (n - w + 1) x w matrix, 28 MiB for a
    # 60 s channel at 128 Hz with a 4 s window
    windows = np.lib.stride_tricks.sliding_window_view(x, w)
    for start in range(0, len(windows), 256):
        block = windows[start : start + 256]
        np.median(block, axis=1, out=tonic[left + start : left + start + len(block)])
    for i in (*range(left), *range(x.size - right, x.size)):
        r = min(i, x.size - 1 - i)
        tonic[i] = np.median(x[i - r : i + r + 1])
    return x - tonic, tonic


def preprocess_trial(trial: Trial, cfg: PreprocessConfig | None = None) -> Trial:
    """Run the full per-channel chain: smooth, baseline-correct, z-normalize,
    then quadratic detrend (except exempt channels). SCR is additionally
    split into phasic/tonic, kept under trial.extras for the decomposition
    stage. Any per-channel failure is re-raised naming the channel and step.
    """
    cfg = cfg or PreprocessConfig()
    if not trial.baselines:
        raise InvalidArgumentError("preprocess_trial needs baseline segments")
    rate = trial.sample_rate_hz
    processed: dict[ChannelKind, np.ndarray] = {}
    extras: dict[str, np.ndarray] = dict(trial.extras)
    for kind in CHANNEL_ORDER:
        x = trial.channels[kind]
        step = "smooth"
        try:
            x = moving_average_smooth(x, cfg.smooth_span[kind])
            step = "baseline"
            x = baseline_correct(x, trial.baselines[kind])
            step = "normalize"
            x = znormalize(x)
            if kind not in cfg.detrend_exempt:
                step = "detrend"
                x = detrend_quadratic(x)
            if kind is ChannelKind.SCR:
                step = "scr-split"
                # cap the tonic window at the recording length so short
                # trials stay processable; scr_split itself stays strict
                window_s = min(cfg.scr_tonic_window_s, x.size / rate)
                phasic, tonic = scr_split(x, window_s, rate)
                extras[SCR_PHASIC_KEY] = phasic
                extras[SCR_TONIC_KEY] = tonic
        except Exception as exc:
            exc.args = (f"channel {kind.value}, step {step}: {exc}",)
            raise
        processed[kind] = x
    return Trial(
        subject_id=trial.subject_id,
        trial_id=trial.trial_id,
        channels=processed,
        baselines=trial.baselines,
        ratings=trial.ratings,
        extras=extras,
        sample_rate_hz=rate,
    )
