"""Complexity and energy features of decomposed components.

Sample entropy is -log(A/B) where B counts template pairs of length m whose
Chebyshev distance stays below the tolerance and A counts the same for
length m+1. Fuzzy entropy replaces the hard indicator with the membership
exp(-d^n / r) computed on mean-centered templates, and takes the log-ratio
of the average memberships at the two lengths.

Distances are symmetric bit for bit (|fl(a-b)| = |fl(b-a)|), so both kernels
evaluate each unordered template pair once: they walk the upper triangle of
the pair matrix in row blocks of at most ``_BLOCK_ELEMS`` pairs, whose
buffers stay in a core's L2 cache.

Sample entropy sorts the templates by their first coordinate, after Manis,
Aktaruzzaman & Sassi, "Low computational cost for sample entropy" (Entropy
20(1):61, 2018). A pair whose first coordinates differ by r or more cannot
match, so each block visits only the band of columns within r of its rows.
B and A stay exact integer counts, so the result equals the all-pairs count
bit for bit. Fuzzy entropy has no cut-off and visits the whole triangle; it
sums the memberships block by block instead of row by row, which moves the
result by a few ulps at most against the one-shot reference.

Everything here is pure and safe to call from many workers at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvalidArgumentError, NumericalFailureError, SchemaMismatchError
from .signals import ChannelKind, _as_values

#: Pairs per block. A block's two float64 buffers take 1 MiB together, which
#: fits a 2 MiB L2 cache (on such a core 32K and 64K pairs ran alike, 128K and
#: up slower); rows per block follow from the width of its band.
_BLOCK_ELEMS = 1 << 16

#: The components that feed the features, per channel in canonical order:
#: (channel, feature-name tag, component count). This table is the feature
#: schema; decomposition and extraction both read it. SCR appears under its
#: GSR tag with two components: its leading phasic SSA component, then its
#: tonic part.
COMPONENT_SCHEMA: tuple[tuple[ChannelKind, str, int], ...] = (
    (ChannelKind.hEOG, "hEOG", 2),
    (ChannelKind.vEOG, "vEOG", 2),
    (ChannelKind.zEMG, "zEMG", 1),
    (ChannelKind.tEMG, "tEMG", 3),
    (ChannelKind.SCR, "GSR", 2),
    (ChannelKind.PPG, "PPG", 4),
    (ChannelKind.Resp, "Resp", 2),
    (ChannelKind.Temp, "Temp", 1),
)

FEATURE_KINDS: tuple[str, ...] = ("SE", "FE", "En")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{tag}{idx}_{kind}"
    for _, tag, count in COMPONENT_SCHEMA
    for idx in range(1, count + 1)
    for kind in FEATURE_KINDS
)

N_FEATURES = len(FEATURE_NAMES)  # 17 components x 3 feature kinds = 51


@dataclass(frozen=True)
class EntropyConfig:
    """Embedding dimension, tolerance, and fuzzy membership exponent.

    With ``tolerance_mode="std_scaled"``, sample entropy widens its match
    tolerance to r times the population standard deviation, and fuzzy
    entropy evaluates its membership on the std-normalized signal; both
    choices make the measures scale-free. "absolute" uses r as given on
    the raw signal.
    """

    m: int = 2
    r: float = 0.15
    n: int = 2
    tolerance_mode: str = "std_scaled"

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("embedding dimension m must be >= 1")
        if not (self.r > 0):
            raise InvalidArgumentError("tolerance r must be positive")
        if self.n < 1:
            raise InvalidArgumentError("fuzzy exponent n must be >= 1")
        if self.tolerance_mode not in ("absolute", "std_scaled"):
            raise InvalidArgumentError(f"unknown tolerance_mode {self.tolerance_mode!r}")


def _effective_tolerance(x: np.ndarray, cfg: EntropyConfig) -> float:
    r = cfg.r * x.std() if cfg.tolerance_mode == "std_scaled" else cfg.r
    if not (r > 0):
        raise InvalidArgumentError("effective tolerance is zero (constant signal?)")
    return float(r)


def _check_length(x: np.ndarray, m: int):
    if x.size <= m + 1:
        raise InvalidArgumentError(f"signal length {x.size} too short for m={m}")


def _upper_blocks(stops: np.ndarray, dtypes):
    """Row blocks of the upper band of a pair matrix, with a buffer view per dtype.

    Row i pairs with columns i..stops[i]-1, and ``stops`` never decreases, so
    rows i0..i1-1 need columns i0..j1-1 with j1 = stops[i1-1]. Yields
    ``(i0, i1, j1, *views)``, each view an (i1-i0, j1-i0) window of a buffer
    allocated once. A block holds at most _BLOCK_ELEMS pairs unless a single
    row is wider than that.
    """
    n = stops.size
    buffers = [np.empty(max(_BLOCK_ELEMS, n), dtype=dt) for dt in dtypes]
    i0 = 0
    while i0 < n:
        cap = min(n - i0, max(1, _BLOCK_ELEMS // int(stops[i0] - i0)))
        cost = (stops[i0 : i0 + cap] - i0) * np.arange(1, cap + 1)
        i1 = i0 + max(1, int(np.searchsorted(cost, _BLOCK_ELEMS, side="right")))
        j1 = int(stops[i1 - 1])
        size = (i1 - i0) * (j1 - i0)
        yield (i0, i1, j1, *(buf[:size].reshape(i1 - i0, j1 - i0) for buf in buffers))
        i0 = i1


def _chebyshev(coords, i0: int, i1: int, j1: int, out: np.ndarray, tmp: np.ndarray, norm=np.abs):
    """Chebyshev distance from templates i0..i1-1 to templates i0..j1-1.

    ``coords`` holds one array per template coordinate. ``out`` receives the
    distances; ``tmp`` is scratch of the same shape, unused for one coordinate.
    With ``norm=np.square`` ``out`` receives the squared distances, bit for bit,
    since rounding a square is monotone in |a|.
    """
    np.subtract.outer(coords[0][i0:i1], coords[0][i0:j1], out=out)
    norm(out, out=out)
    for col in coords[1:]:
        np.subtract.outer(col[i0:i1], col[i0:j1], out=tmp)
        norm(tmp, out=tmp)
        np.maximum(out, tmp, out=out)
    return out


def _pairs_within(dist: np.ndarray, r: float, hit: np.ndarray) -> int:
    """Unordered pairs closer than r in a block whose first columns are its rows."""
    np.less(dist, r, out=hit)
    c = dist.shape[0]
    # the leading c x c square is symmetric and its diagonal (self-pairs) all match
    return (int(np.count_nonzero(hit[:, :c])) - c) // 2 + int(np.count_nonzero(hit[:, c:]))


def sample_entropy(ts, cfg: EntropyConfig | None = None) -> float:
    """Sample entropy -log(A/B) with strict Chebyshev matching, no self-pairs.

    Both template lengths run over the same N-m start positions. If no
    (m+1)-pairs match (A = 0) the finite cap log(B) + log(N-m) is returned
    instead of infinity so downstream feature vectors stay finite; a B of
    zero is capped the same way with B treated as 1.
    """
    cfg = cfg or EntropyConfig()
    x = _as_values(ts)
    _check_length(x, cfg.m)
    r = _effective_tolerance(x, cfg)
    m = cfg.m
    n_templates = x.size - m
    order = np.argsort(x[:n_templates], kind="stable")
    coords = [x[k : k + n_templates][order] for k in range(m + 1)]
    # fl(|a - b|) < r implies b <= fl(a + r) by monotone rounding, so no match
    # lies right of a row's stop and the band needs no safety margin
    stops = np.searchsorted(coords[0], coords[0] + r, side="right")
    b = 0
    a = 0
    for i0, i1, j1, d, t, hit in _upper_blocks(stops, (float, float, bool)):
        b += _pairs_within(_chebyshev(coords[:m], i0, i1, j1, d, t), r, hit)
        np.maximum(d, _chebyshev(coords[m:], i0, i1, j1, t, t), out=d)
        a += _pairs_within(d, r, hit)
    if a == 0:
        return math.log(max(b, 1)) + math.log(n_templates)
    return math.log(b) - math.log(a)


def fuzzy_entropy(ts, cfg: EntropyConfig | None = None) -> float:
    """Fuzzy entropy ln(phi_m) - ln(phi_{m+1}) on mean-centered templates.

    The membership exp(-d^n / r) is applied to the raw signal in absolute
    mode and to the std-normalized signal in std_scaled mode; normalizing
    the signal (rather than multiplying r by std) is what keeps the d^n
    exponent scale-free.
    """
    cfg = cfg or EntropyConfig()
    x = _as_values(ts)
    _check_length(x, cfg.m)
    if cfg.tolerance_mode == "std_scaled":
        sd = x.std()
        if not (sd > 0):
            raise InvalidArgumentError("effective tolerance is zero (constant signal?)")
        x = x / sd
    r = cfg.r
    m = cfg.m
    n_templates = x.size - m
    phi_m = _fuzzy_phi(x, m, n_templates, r, cfg.n)
    phi_m1 = _fuzzy_phi(x, m + 1, n_templates, r, cfg.n)
    if phi_m1 <= 0.0 or phi_m <= 0.0:
        raise NumericalFailureError("fuzzy membership averages underflowed to zero")
    return math.log(phi_m) - math.log(phi_m1)


def _fuzzy_phi(x: np.ndarray, length: int, n_templates: int, r: float, n_power: int) -> float:
    """Mean membership over ordered pairs of distinct templates.

    The mean of row means equals (sum of all memberships - N) / (N (N-1)),
    since each row holds N-1 pairs plus its self-match exp(0) = 1.
    """
    templates = np.lib.stride_tricks.sliding_window_view(x, length)[:n_templates]
    centered = templates - templates.mean(axis=1, keepdims=True)
    coords = [np.ascontiguousarray(centered[:, k]) for k in range(length)]
    squared = n_power == 2
    norm = np.square if squared else np.abs
    total = 0.0
    for i0, i1, j1, d, t in _upper_blocks(np.full(n_templates, n_templates), (float, float)):
        _chebyshev(coords, i0, i1, j1, d, t, norm)
        # membership exp(-(d^n)/r); for n = 2 the distances arrive squared,
        # which spares a pass over the block (about 5% of this kernel's time)
        if not squared:
            np.power(d, n_power, out=d)
        np.divide(d, -r, out=d)
        np.exp(d, out=d)
        c = i1 - i0
        # the leading c x c square is symmetric; pairs right of it stand for two
        total += float(d[:, :c].sum()) + 2.0 * float(d[:, c:].sum())
    return (total - n_templates) / (n_templates * (n_templates - 1))


def energy(ts) -> float:
    """Mean squared amplitude of the signal."""
    x = _as_values(ts)
    if x.size == 0:
        raise InvalidArgumentError("energy of an empty signal is undefined")
    return float(np.mean(x**2))


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """The 51 named scalar features of one trial, in canonical order."""

    values: Mapping[str, float]

    def __post_init__(self):
        keys = tuple(self.values.keys())
        if keys != FEATURE_NAMES:
            missing = [k for k in FEATURE_NAMES if k not in self.values]
            unexpected = [k for k in keys if k not in FEATURE_NAMES]
            if missing or unexpected:
                raise SchemaMismatchError(
                    f"feature schema mismatch: missing={missing[:4]} unexpected={unexpected[:4]}"
                )
            raise SchemaMismatchError("feature names are out of canonical order")
        vals = np.array([float(self.values[k]) for k in FEATURE_NAMES])
        if not np.all(np.isfinite(vals)):
            bad = [k for k, v in zip(FEATURE_NAMES, vals) if not np.isfinite(v)]
            raise InvalidArgumentError(f"non-finite features: {bad}")
        object.__setattr__(self, "values", dict(zip(FEATURE_NAMES, map(float, vals))))

    def as_array(self) -> np.ndarray:
        return np.array([self.values[k] for k in FEATURE_NAMES])

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def extract_feature_vector(
    trial_components: Mapping[str, Sequence], cfg: EntropyConfig | None = None
) -> FeatureVector:
    """Compute SE, FE, and En for each of the 17 components of one trial.

    ``trial_components`` maps the channel tag (GSR for skin conductance) to
    its ordered component list; counts must match COMPONENT_SCHEMA exactly.
    """
    cfg = cfg or EntropyConfig()
    for _, tag, count in COMPONENT_SCHEMA:
        if tag not in trial_components:
            raise SchemaMismatchError(f"missing components for channel {tag}")
        have = len(trial_components[tag])
        if have != count:
            raise SchemaMismatchError(f"channel {tag}: expected {count} components, got {have}")
    unknown = [t for t in trial_components if t not in {tag for _, tag, _ in COMPONENT_SCHEMA}]
    if unknown:
        raise SchemaMismatchError(f"unknown channel tags: {unknown}")
    values: dict[str, float] = {}
    for _, tag, count in COMPONENT_SCHEMA:
        for idx in range(1, count + 1):
            comp = trial_components[tag][idx - 1]
            values[f"{tag}{idx}_SE"] = sample_entropy(comp, cfg)
            try:
                values[f"{tag}{idx}_FE"] = fuzzy_entropy(comp, cfg)
            except NumericalFailureError as exc:
                # the memberships exp(-d^n / r) of this m and r do not fit in a float
                raise ConfigError(
                    f"channel {tag}, component {idx}: {exc} at entropy.m {cfg.m}, entropy.r {cfg.r}"
                ) from exc
            values[f"{tag}{idx}_En"] = energy(comp)
    return FeatureVector(values)
