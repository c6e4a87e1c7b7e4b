"""Exact simulation of multidimensional fractional Brownian motion.

A d-dimensional fBm with Hurst parameter H has independent centered
Gaussian components with covariance

    R_H(s, t) = (s^{2H} + t^{2H} - |t - s|^{2H}) / 2.

Sampling is exact in law on a uniform grid: a dense Cholesky factor of the
covariance on short grids, Davies-Harte circulant embedding of the
fractional Gaussian noise on long ones (Davies & Harte 1987; Dietrich &
Newsam 1997), O(n log n) per path.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError

#: Largest grid accepted by the samplers.
CHOLESKY_CAP = 4097

#: Shortest grid sampled by circulant embedding, which draws twice the normals
#: of Cholesky.  Best of 3 on one BLAS thread (2.1 GHz Xeon), (points, columns):
#: Cholesky / Davies-Harte (33, 100k) 0.10 / 0.26 s; (1025, 6000) 0.40 / 0.60 s;
#: (2049, 6000) 1.36 / 1.42 s; (4097, 300) 1.74 / 0.11 s.  A cut at 1025 also
#: raised the peak RSS of the 2000-path ``norris-stats`` default, 115 -> 150 MB.
DH_MIN_POINTS = 2049

#: Normals per column block of ``sample_fbm_array``'s in-place transport, which bounds
#: its temporaries: a block holds the largest power of two of k-normal columns that fits.
TRANSPORT_FLOATS = 2**18

#: Escalating diagonal jitter tried before giving up on a factorization.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)


@dataclass(frozen=True)
class HurstParam:
    """Hurst regularity index, constrained to (0, 1)."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise DomainError(f"Hurst parameter must lie in (0,1), got {self.value}")

    @property
    def in_rough_regime(self) -> bool:
        """True iff 1/3 < H < 1/2, the regime all level-2 machinery assumes."""
        return 1.0 / 3.0 < self.value < 0.5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with ``n_points`` nodes, first node 0, kept in ``times``."""

    horizon: float
    n_points: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.n_points < 2:
            raise DomainError(f"need at least 2 grid points, got {self.n_points}")
        object.__setattr__(self, "times", np.linspace(0.0, self.horizon, self.n_points))

    @property
    def mesh(self) -> float:
        return self.horizon / (self.n_points - 1)

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; raises DomainError for off-grid times."""
        k = int(round(t / self.mesh))
        if k < 0 or k >= self.n_points or abs(self.times[k] - t) > 1e-9 * max(1.0, self.horizon):
            raise DomainError(f"time {t} is not a grid point")
        return k


@dataclass(frozen=True)
class SamplePath:
    """Values of a d-dimensional path on a grid, with sampling metadata.

    ``values`` has shape (n_points, d).  Paths carrying Hurst metadata are
    fBm samples and must vanish at the origin; solver outputs reuse the
    container with ``hurst=None`` and are free to start anywhere.
    """

    grid: TimeGrid
    values: np.ndarray
    hurst: HurstParam | None = None
    seed: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.n_points:
            raise DomainError(
                f"values have {v.shape[0]} rows for a {self.grid.n_points}-point grid"
            )
        if self.hurst is not None and not np.all(v[0] == 0.0):
            raise DomainError("fBm sample paths must vanish at the origin")

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def covariance(s: float, t: float, hurst: HurstParam | float) -> float:
    """fBm covariance R_H(s, t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2."""
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    if s < 0 or t < 0:
        raise DomainError(f"covariance needs nonnegative times, got ({s}, {t})")
    two_h = 2.0 * H
    return 0.5 * (s**two_h + t**two_h - abs(t - s) ** two_h)


def covariance_matrix(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """Covariance matrix of (B_{t_1}, ..., B_{t_{n-1}}), origin excluded."""
    t = grid.times[1:]
    two_h = 2.0 * hurst.value
    s_pow = t**two_h
    return 0.5 * (s_pow[:, None] + s_pow[None, :] - np.abs(t[:, None] - t[None, :]) ** two_h)


def _cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, retrying with escalating diagonal jitter."""
    scale = float(np.max(np.diag(cov)))
    for eps in JITTER_LADDER:
        try:
            return np.linalg.cholesky(cov + eps * scale * np.eye(cov.shape[0])), eps
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance matrix is not positive definite even after jitter "
        f"{JITTER_LADDER[-1]:g} (n={cov.shape[0]}, diag scale={scale:g})"
    )


def _embedding_eigenvalues(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """Eigenvalues 0..n of the fGn autocovariance embedded in a 2n circulant."""
    j = np.arange(grid.n_points, dtype=float)
    two_h = 2.0 * hurst.value
    gamma = 0.5 * ((j + 1) ** two_h - 2 * j**two_h + np.abs(j - 1) ** two_h) * grid.mesh**two_h
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if np.any(lam < 0):
        raise FactorizationError(f"circulant embedding has an eigenvalue {lam.min():g} < 0")
    return lam


def _transport(grid: TimeGrid, hurst: HurstParam) -> tuple[int, Callable]:
    """Linear map from k normals to the n path values after the origin, as (k, apply).

    ``apply`` maps normals (k, cols), a column per (path, component), to values (n, cols).
    """
    if grid.n_points > CHOLESKY_CAP:
        raise DomainError(f"grid has {grid.n_points} points, above the Cholesky cap {CHOLESKY_CAP}")
    n = grid.n_points - 1
    if grid.n_points < DH_MIN_POINTS:
        L, _ = _cholesky_with_jitter(covariance_matrix(grid, hurst))
        return n, lambda z: L @ z
    # Hermitian coefficients: real parts from z[:n+1], imaginary parts of modes
    # 1..n-1 from z[n+1:]; the real modes 0 and n carry twice the variance.
    scale = np.sqrt(n * _embedding_eigenvalues(grid, hurst))
    scale[[0, n]] *= math.sqrt(2.0)

    def apply(z: np.ndarray) -> np.ndarray:
        coef = np.empty((n + 1, z.shape[1]), dtype=complex)
        np.multiply(scale[:, None], z[: n + 1], out=coef.real)
        np.multiply(scale[1:n, None], z[n + 1 :], out=coef.imag[1:n])
        coef.imag[[0, n]] = 0.0
        return np.cumsum(np.fft.irfft(coef, n=2 * n, axis=0)[:n], axis=0)

    return 2 * n, apply


def sample_fbm(
    hurst: HurstParam,
    grid: TimeGrid,
    d: int = 1,
    n_paths: int = 1,
    seed: int = 0,
) -> list[SamplePath]:
    """Exact fBm sample paths: ``sample_fbm_array`` wrapped path by path."""
    return [SamplePath(grid, v, hurst, seed) for v in sample_fbm_array(hurst, grid, d, n_paths, seed)]


def sample_fbm_array(
    hurst: HurstParam,
    grid: TimeGrid,
    d: int,
    n_paths: int,
    seed: int = 0,
) -> np.ndarray:
    """Exact fBm sample paths by a linear transport of white noise: (n_paths, n_points, d).

    One counter-based stream keyed by ``seed`` feeds a fixed (normal, path,
    component) draw layout, so a draw is deterministic for fixed (seed,
    n_paths, d, grid) and depends on the batch size.  The result is a
    time-major view: the normals are drawn into one (k + 1, n_paths * d)
    buffer and transported in place.  On the Cholesky route (k = n) the result
    views that buffer; on the Davies-Harte route (k = 2n) its n + 1 path rows
    are copied out, so a path does not keep the other n normals alive.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    k, apply = _transport(grid, hurst)
    n, cols = grid.n_points - 1, n_paths * d
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # Time-major buffer: row 0 is the origin, rows 1.. take the normals and
    # then, block by block, the path values they transport to.
    buf = np.empty((k + 1, cols))
    buf[0] = 0.0
    rng.standard_normal(out=buf[1:])
    # Power-of-two column blocks, the last one taking the remainder: BLAS treats each
    # column as in one product over the whole batch, so the blocking changes no value.
    step = 1 << (TRANSPORT_FLOATS // k).bit_length() - 1
    for c in range(0, max(cols - step, 0) + 1, step):
        stop = c + step if c + 2 * step <= cols else cols
        buf[1 : n + 1, c:stop] = apply(buf[1:, c:stop])
    paths = buf[: n + 1] if k == n else buf[: n + 1].copy()
    return paths.reshape(grid.n_points, n_paths, d).transpose(1, 0, 2)
