"""Time-series/trial data model and the per-channel preprocessing chain.

Every recording is a uniformly sampled scalar series. A trial bundles the
eight peripheral channels of one subject watching one video, the pre-stimulus
baseline segments, and the continuous 9-point affect ratings. All operations
are pure: the same input always produces the bit-identical output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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


def _as_values(ts) -> np.ndarray:
    """Accept a TimeSeries or a plain 1-D array-like and return float64 values."""
    if isinstance(ts, TimeSeries):
        return ts.values
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-D signal, got shape {arr.shape}")
    return arr


def _sample_rate(ts) -> float:
    """The rate of a TimeSeries; a plain array takes TimeSeries's default."""
    return ts.sample_rate_hz if isinstance(ts, TimeSeries) else TimeSeries.sample_rate_hz


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A uniformly sampled scalar signal.

    values : 1-D float64 array, length >= 1, all finite (stored read-only)
    sample_rate_hz : positive sampling rate, 128 Hz by default
    """

    values: np.ndarray
    sample_rate_hz: float = 128.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidArgumentError("TimeSeries needs a non-empty 1-D value array")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("TimeSeries values must all be finite")
        if not (self.sample_rate_hz > 0):
            raise InvalidArgumentError("sample_rate_hz must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        return TimeSeries(values, self.sample_rate_hz)

    @property
    def duration_s(self) -> float:
        return self.values.size / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class Trial:
    """One subject x video recording with per-channel baselines and ratings."""

    subject_id: int
    trial_id: int
    channels: Mapping[ChannelKind, TimeSeries]
    baselines: Mapping[ChannelKind, TimeSeries]
    ratings: Mapping[str, float]
    extras: Mapping[str, TimeSeries] = field(default_factory=dict)

    def __post_init__(self):
        missing = [k.value for k in CHANNEL_ORDER if k not in self.channels]
        if missing:
            raise SchemaMismatchError(f"trial is missing channels: {missing}")
        extra = [k for k in self.channels if k not in CHANNEL_ORDER]
        if extra:
            raise SchemaMismatchError(f"trial has unknown channels: {extra}")
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
    detrend_exempt: frozenset = frozenset({ChannelKind.Temp, ChannelKind.SCR})
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


def moving_average_smooth(ts: TimeSeries, span: int) -> TimeSeries:
    """Centered moving-average filter with edge windows shrinking symmetrically.

    span=1 is the identity; a constant series is unchanged for any span.
    """
    x = _as_values(ts)
    span = int(span)
    if span < 1:
        raise InvalidArgumentError(f"span must be >= 1, got {span}")
    if span > x.size:
        raise InvalidArgumentError(f"span {span} exceeds signal length {x.size}")
    if span == 1:
        return ts if isinstance(ts, TimeSeries) else TimeSeries(x)
    lo, hi = _window_bounds(x.size, span)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    out = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    rate = _sample_rate(ts)
    return TimeSeries(out, rate)


def baseline_correct(ts: TimeSeries, baseline: TimeSeries) -> TimeSeries:
    """Subtract the mean of the pre-stimulus baseline segment."""
    x = _as_values(ts)
    b = _as_values(baseline)
    if b.size == 0:
        raise InvalidArgumentError("baseline must be non-empty")
    rate = _sample_rate(ts)
    return TimeSeries(x - b.mean(), rate)


def znormalize(ts: TimeSeries) -> TimeSeries:
    """Center to zero mean and scale to unit population standard deviation."""
    x = _as_values(ts)
    sd = x.std()
    if sd == 0.0:
        raise DegenerateSignalError("cannot z-normalize a zero-variance signal")
    rate = _sample_rate(ts)
    return TimeSeries((x - x.mean()) / sd, rate)


def detrend_quadratic(ts: TimeSeries) -> TimeSeries:
    """Remove the least-squares quadratic trend over the sample index.

    The residual is orthogonal to {1, t, t^2}; exact quadratics (and
    therefore linear ramps and constants) map to zero.
    """
    x = _as_values(ts)
    if x.size < 3:
        raise InvalidArgumentError("quadratic detrend needs at least 3 samples")
    t = np.arange(x.size, dtype=np.float64)
    fit = np.polynomial.Polynomial.fit(t, x, deg=2)
    rate = _sample_rate(ts)
    return TimeSeries(x - fit(t), rate)


def scr_split(ts: TimeSeries, tonic_window_s: float) -> tuple[TimeSeries, TimeSeries]:
    """Split skin conductance into (phasic, tonic) parts.

    The tonic part is a centered moving median over ``tonic_window_s``
    seconds (same edge convention as the smoother); the phasic part is the
    remainder, so phasic + tonic reproduces the input exactly.
    """
    x = _as_values(ts)
    rate = _sample_rate(ts)
    w = int(round(tonic_window_s * rate))
    if w < 3:
        raise InvalidArgumentError(
            f"tonic window of {tonic_window_s} s is under 3 samples at {rate} Hz"
        )
    if w > x.size:
        raise InvalidArgumentError(f"tonic window ({w} samples) exceeds signal length {x.size}")
    tonic = np.empty_like(x)
    left = w // 2
    right = (w - 1) // 2
    lo_full = left
    hi_full = x.size - 1 - right
    if lo_full <= hi_full:
        windows = np.lib.stride_tricks.sliding_window_view(x, w)
        tonic[lo_full : hi_full + 1] = np.median(windows, axis=1)
    for i in range(x.size):
        if lo_full <= i <= hi_full:
            continue
        r = min(i, x.size - 1 - i)
        tonic[i] = np.median(x[i - r : i + r + 1])
    phasic = x - tonic
    return TimeSeries(phasic, rate), TimeSeries(tonic, rate)


def preprocess_trial(trial: Trial, cfg: PreprocessConfig | None = None) -> Trial:
    """Run the full per-channel chain: smooth, baseline-correct, z-normalize,
    then quadratic detrend (except exempt channels). SCR is additionally
    split into phasic/tonic, kept under trial.extras for the decomposition
    stage. Any per-channel failure is re-raised naming the channel and step.
    """
    cfg = cfg or PreprocessConfig()
    if not trial.baselines:
        raise InvalidArgumentError("preprocess_trial needs baseline segments")
    processed: dict[ChannelKind, TimeSeries] = {}
    extras: dict[str, TimeSeries] = dict(trial.extras)
    for kind in CHANNEL_ORDER:
        ts = trial.channels[kind]
        step = "smooth"
        try:
            ts = moving_average_smooth(ts, cfg.smooth_span[kind])
            step = "baseline"
            ts = baseline_correct(ts, trial.baselines[kind])
            step = "normalize"
            ts = znormalize(ts)
            if kind not in cfg.detrend_exempt:
                step = "detrend"
                ts = detrend_quadratic(ts)
            if kind is ChannelKind.SCR:
                step = "scr-split"
                # cap the tonic window at the recording length so short
                # trials stay processable; scr_split itself stays strict
                window_s = min(cfg.scr_tonic_window_s, len(ts) / ts.sample_rate_hz)
                phasic, tonic = scr_split(ts, window_s)
                extras[SCR_PHASIC_KEY] = phasic
                extras[SCR_TONIC_KEY] = tonic
        except Exception as exc:
            exc.args = (f"channel {kind.value}, step {step}: {exc}",)
            raise
        processed[kind] = ts
    return Trial(
        subject_id=trial.subject_id,
        trial_id=trial.trial_id,
        channels=processed,
        baselines=trial.baselines,
        ratings=trial.ratings,
        extras=extras,
    )
