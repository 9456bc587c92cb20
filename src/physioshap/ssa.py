"""Singular spectrum analysis: embedding, eigendecomposition, diagonal
averaging, data-driven rank selection, and reconstruction.

A signal of length N is embedded into an L x K Hankel trajectory matrix
(K = N - L + 1), decomposed through the symmetric eigenproblem of Y Y^T
into rank-1 elementary matrices sigma_i * U_i V_i^T, and each elementary
matrix is diagonally averaged back into a series. Summing all elementary
series reproduces the input to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .signals import _as_values


@dataclass(frozen=True)
class SsaConfig:
    """Window length L of the trajectory matrix.

    How many components each channel keeps is the feature schema's
    (``entropy.COMPONENT_SCHEMA``), not a decomposition setting.
    """

    window_len: int = 12

    def __post_init__(self):
        if self.window_len < 2:
            raise InvalidArgumentError("window_len must be at least 2")


@dataclass(frozen=True, eq=False)
class SsaDecomposition:
    """Elementary series and singular values of one signal."""

    components: tuple[np.ndarray, ...]
    singular_values: np.ndarray
    window_len: int
    rank: int

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise InvalidArgumentError("singular values must be non-negative and descending")
        object.__setattr__(self, "singular_values", sv)
        if self.rank != len(self.components):
            raise InvalidArgumentError("rank must equal the number of components")


def embed(x, window_len: int) -> np.ndarray:
    """Build the L x K Hankel trajectory matrix of lagged windows."""
    x = _as_values(x)
    n = x.size
    if not (2 <= window_len <= n):
        raise InvalidArgumentError(f"window_len must be in [2, {n}], got {window_len}")
    k = n - window_len + 1
    # column j holds x[j : j+L]; rows are lags, so the matrix is Hankel
    return np.lib.stride_tricks.sliding_window_view(x, window_len)[:k].T.copy()


def diagonal_average(mat: np.ndarray) -> np.ndarray:
    """Average a matrix over its anti-diagonals (i + j = const) into a series.

    This is the exact inverse of ``embed`` on Hankel inputs.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidArgumentError("diagonal_average expects a non-empty 2-D matrix")
    rows, cols = mat.shape
    n = rows + cols - 1
    sums = np.zeros(n)
    idx = np.add.outer(np.arange(rows), np.arange(cols)).ravel()
    np.add.at(sums, idx, mat.ravel())
    counts = np.bincount(idx, minlength=n).astype(np.float64)
    return sums / counts


def _antidiagonal_counts(rows: int, cols: int) -> np.ndarray:
    n = rows + cols - 1
    d = np.arange(n)
    return np.minimum(np.minimum(d + 1, n - d), min(rows, cols)).astype(np.float64)


def decompose(x, cfg: SsaConfig | None = None) -> SsaDecomposition:
    """Full SSA decomposition into elementary diagonally-averaged series.

    Eigendecomposition is applied to S = Y Y^T (L x L); with
    V_i = Y^T U_i / sigma_i the elementary matrices sigma_i U_i V_i^T are
    diagonally averaged. Components are ordered by descending singular
    value; rank counts eigenvalues above 1e-12 times the largest.
    """
    cfg = cfg or SsaConfig()
    traj = embed(x, cfg.window_len)
    s = traj @ traj.T
    try:
        eigvals, eigvecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    if eigvals[0] <= 0.0:
        # all-zero signal: rank 0, nothing to average
        return SsaDecomposition((), np.zeros(0), cfg.window_len, 0)
    d = int(np.count_nonzero(eigvals > 1e-12 * eigvals[0]))
    sigma = np.sqrt(eigvals[:d])
    counts = _antidiagonal_counts(*traj.shape)
    components = []
    for i in range(d):
        u = eigvecs[:, i]
        w = traj.T @ u  # sigma_i * V_i
        components.append(np.convolve(u, w) / counts)
    # exactly tied singular values: order those components by descending energy
    for start, stop in _tied_runs(sigma):
        run = sorted(components[start:stop], key=lambda c: -float(np.mean(c**2)))
        components[start:stop] = run
    return SsaDecomposition(tuple(components), sigma, cfg.window_len, d)


def _tied_runs(sigma: np.ndarray):
    runs = []
    start = 0
    for i in range(1, sigma.size):
        if sigma[i] != sigma[start]:
            if i - start > 1:
                runs.append((start, i))
            start = i
    if sigma.size - start > 1:
        runs.append((start, sigma.size))
    return runs


def hard_threshold_rank(singular_values, rows: int, cols: int) -> int:
    """Data-driven rank: count singular values above omega(beta) * median.

    beta is the matrix aspect ratio min/max; omega uses the cubic
    approximation 0.56 b^3 - 0.95 b^2 + 1.82 b + 1.43 for unknown noise
    level. Scale-invariant by construction.
    """
    sv = np.asarray(singular_values, dtype=np.float64)
    if sv.size == 0:
        return 0
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        raise InvalidArgumentError("singular values must be non-negative and descending")
    if rows < 1 or cols < 1:
        raise InvalidArgumentError("matrix dimensions must be positive")
    beta = min(rows, cols) / max(rows, cols)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    tau = omega * np.median(sv)
    return int(np.count_nonzero(sv > tau))


def reconstruct_selected(decomp: SsaDecomposition, indices: Iterable[int]) -> np.ndarray:
    """Sum the selected elementary components (1-based indices).

    An empty selection yields the zero series of matching length.
    """
    idx = sorted(set(int(i) for i in indices))
    bad = [i for i in idx if not (1 <= i <= decomp.rank)]
    if bad:
        raise InvalidArgumentError(f"component indices {bad} outside [1, {decomp.rank}]")
    if decomp.rank == 0:
        raise InvalidArgumentError("decomposition has no components")
    total = np.zeros(decomp.components[0].size)
    for i in idx:
        total += decomp.components[i - 1]
    return total
