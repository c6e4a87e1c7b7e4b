"""Fourth-variation statistics, Hermite moments, and the dichotomy probe.

The quantitative smallness machinery rests on block statistics of a fine
partition t_n = n delta grouped into coarse blocks of length Delta = r delta:

    X_N = sum_{n=(N-1) r}^{N r - 1} |x^1_{t_n t_{n+1}}|^4,   Y_N = X_N^{1/4}.

For a unit-variance fBm increment sequence the fourth power decomposes over
Hermite polynomials, x^4 = H_4(x) + 6 H_2(x) + 3, and the orthogonality
E[H_k(U) H_l(V)] = k! (E[UV])^k 1_{k=l} turns moments of

    Xhat_K = sum_{n=1}^K |x^1_{n,n+1}|^4

into closed forms in the increment correlation

    alpha(m) = ( |m+1|^{2H} + |m-1|^{2H} - 2 |m|^{2H} ) / 2:

    E[Xhat_K] = 3 K,
    Var(Xhat_K) = sum_{n1,n2=1}^{K} ( 4! alpha^4 + 6^2 2! alpha^2 ),

i.e. weights 24 and 72.  (A compact form with weights 2*(12, 1) circulates;
the Isserlis enumeration oracle in the tests adjudicates in favor of
24/72.)  Scaling by delta^{4H} transports both to the fine-mesh statistic.

The dichotomy probe estimates P(||y|| < eps, ||z|| > eps^q) over a shrinking
ladder of eps for the integral/integrand pair of a bracket pairing process,
asserting only monotone decay and a positive fitted exponent; the
constants of the underlying tail bound are not desk-reproducible.  The
pairings Z^U_t = <J_{0,t}^{-1} U(y_t), eta> = w_t . U(y_t) read J^{-1} only
through w_t = eta^T J_{0,t}^{-1}, so the probe solves the cotangent lift
(y, w) on R^{2m} (``FieldFamily.cotangent``) instead of (y, J, J^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fbm import HurstParam, TimeGrid, sample_fbm_array
from .liefields import FieldFamily, PolyVectorField, bracket
from .controlled import rde_solve_batch

# ---------------------------------------------------------------------------
# Increment correlations and Hermite moments
# ---------------------------------------------------------------------------


def alpha_matrix(K: int, hurst: HurstParam | float) -> np.ndarray:
    """Correlations alpha(|i - j|) of K unit-spaced fBm increments: (K, K)."""
    lags = np.abs(np.arange(K)[:, None] - np.arange(K)[None, :])
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    two_h = 2.0 * H
    return 0.5 * (
        (lags + 1.0) ** two_h + np.abs(lags - 1.0) ** two_h - 2.0 * lags**two_h
    )


def hermite_moments(K: int, hurst: HurstParam | float, delta: float = 1.0) -> tuple[float, float]:
    """(mean, variance) of the fourth-variation sum over K fine increments.

    Closed form from the Hermite decomposition; ``delta`` applies the
    self-similarity scaling (mean ~ delta^{4H}, variance ~ delta^{8H}).
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    a = alpha_matrix(K, H)
    var_hat = float(np.sum(24.0 * a**4 + 72.0 * a**2))
    return 3.0 * K * delta ** (4.0 * H), var_hat * delta ** (8.0 * H)


def s_k(K: int, hurst: HurstParam | float) -> float:
    """The quadratic/quartic correlation sum S_K = sum (12 a^4 + a^2).

    Kept in the compact printed normalization so its K-linearity can be
    probed directly; the shipped variance uses the oracle-validated weights
    (see :func:`hermite_moments`).
    """
    a = alpha_matrix(K, hurst)
    return float(np.sum(12.0 * a**4 + a**2))


# ---------------------------------------------------------------------------
# Two-scale block statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoScale:
    """Fine/coarse scale pair delta << Delta with integer ratio r."""

    delta: float
    Delta: float

    def __post_init__(self):
        if not 0 < self.delta < self.Delta:
            raise DomainError("need 0 < delta < Delta")
        if self.Delta > 1.0 + 1e-12:
            raise DomainError("Delta must be <= 1")
        r = self.Delta / self.delta
        if abs(r - round(r)) > 1e-9 or round(r) < 2:
            raise DomainError(f"Delta/delta must be an integer >= 2, got {r}")

    @property
    def r(self) -> int:
        return int(round(self.Delta / self.delta))


def block_stats_mc(
    hurst: HurstParam,
    scales: TwoScale,
    n_paths: int,
    seed: int = 0,
    horizon: float = 1.0,
) -> dict:
    """Monte-Carlo block statistics of one scalar fBm against their closed-form targets."""
    n_points = int(round(horizon / scales.delta)) + 1
    grid = TimeGrid(horizon, n_points)
    incr = np.diff(sample_fbm_array(hurst, grid, 1, n_paths, seed)[:, :, 0], axis=1)
    fourth = (incr * incr) ** 2
    r = scales.r
    n_blocks = fourth.shape[1] // r
    x = fourth[:, : n_blocks * r].reshape(n_paths, n_blocks, r).sum(axis=2)
    mean_target, var_target = hermite_moments(r, hurst, scales.delta)
    est_mean = float(np.mean(x))
    stderr = float(np.std(x.mean(axis=1)) / np.sqrt(n_paths))
    return {
        "mean": est_mean,
        "mean_stderr": stderr,
        "mean_target": mean_target,
        "variance": float(np.var(x)),
        "variance_target": var_target,
        "x_samples": x,
    }


def concentration_table(
    x_blocks: np.ndarray,
    hurst: HurstParam | float,
    scales: TwoScale,
    u_grid: np.ndarray,
) -> dict:
    """Exceedance frequencies of the centered, rescaled block statistic.

    Frequencies of |X_N - 3 Delta delta^{4H-1}| >= Delta^{1/2} delta^{4H-1/2} u
    per u, plus a log-log shape fit of -log(freq) against u (slope near 1/2
    matches a stretched-exponential tail).
    """
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    center = 3.0 * scales.Delta * scales.delta ** (4.0 * H - 1.0)
    scale = scales.Delta**0.5 * scales.delta ** (4.0 * H - 0.5)
    dev = np.abs(np.ravel(x_blocks) - center)
    freqs = np.array([float(np.mean(dev >= scale * u)) for u in u_grid])
    mask = (freqs > 0) & (freqs < 1) & (np.asarray(u_grid) > 0)
    slope = float("nan")
    if np.sum(mask) >= 2:
        slope = float(
            np.polyfit(np.log(np.asarray(u_grid)[mask]), np.log(-np.log(freqs[mask])), 1)[0]
        )
    return {
        "u": np.asarray(u_grid, dtype=float),
        "frequency": freqs,
        "center": center,
        "scale": scale,
        "loglog_shape_slope": slope,
    }


# ---------------------------------------------------------------------------
# The dichotomy probe
# ---------------------------------------------------------------------------


def _path_norms(paths: np.ndarray) -> np.ndarray:
    """Sup norm per path of time-major paths, (n, P) scalar or (d, n, P) vector valued."""
    if paths.ndim == 2:
        paths = paths[None]
    return np.max(np.linalg.norm(paths, axis=0), axis=0)


def norris_dichotomy_mc(
    fields: list[PolyVectorField] | FieldFamily,
    u_field: PolyVectorField,
    eta: np.ndarray,
    hurst: HurstParam,
    eps_list: list[float],
    q: float,
    n_paths: int,
    a=None,
    horizon: float = 0.01,
    grid_points: int = 65,
    seed: int = 0,
) -> dict:
    """Estimate P(||y|| < eps and ||z|| > eps^q) on a shrinking eps ladder.

    y_t = Z^U_t - Z^U_0 and z collects the integrand paths Z^{[V_j, U]} of
    its expansion; the norms are sup norms over the grid (the Hoelder
    seminorms of the ||.||_{gamma,infty} norms add events that are
    unobservably rare at desk scale at the listed eps).
    Returns per-eps frequencies and the fitted decay exponent over the
    rows with at least one event; zero-count rows are flagged
    ``upper_bound_only``, their frequency being below 1/n_paths.
    """
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if np.any(eps_arr <= 0) or np.any(eps_arr[1:] == eps_arr[:-1]):
        raise DomainError(f"eps values must be positive and distinct, got {list(eps_list)}")
    family = FieldFamily.of(fields)
    m = family.m
    a = family.initial(np.zeros(m) if a is None else a)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (m,):
        raise DomainError(f"eta must be shape ({m},), got {eta.shape}")
    norm = np.linalg.norm(eta)
    if not norm:
        raise DomainError("eta must be a nonzero direction")
    eta = eta / norm

    grid = TimeGrid(horizon, grid_points)
    # The cotangent lift carries w_t = eta^T J_{0,t}^{-1} beside y_t; .T reads
    # its state component-major, (2m, n, P), without a copy.  The drivers are
    # not kept: the pairings below never read them.
    drivers = sample_fbm_array(hurst, grid, family.d, n_paths, seed)
    states = rde_solve_batch(family.cotangent, np.concatenate([a, eta]), grid, drivers).T
    del drivers
    y_sol, w = states[:m], states[m:]

    def pairing(field: PolyVectorField) -> np.ndarray:
        return np.einsum("btp,btp->tp", w, field.compiled(y_sol))

    z_u = pairing(u_field)
    y_paths = z_u - z_u[:1]
    z_paths = np.stack([pairing(bracket(vj, u_field)) for vj in family.fields])

    y_norms = _path_norms(y_paths)
    z_norms = _path_norms(z_paths)

    rows = []
    for eps in eps_arr:
        hits = int(np.sum((y_norms < eps) & (z_norms > eps**q)))
        freq = hits / n_paths
        rows.append(
            {
                "eps": float(eps),
                "eps_q": float(eps**q),
                "count": hits,
                "frequency": freq,
                "stderr": float(np.sqrt(max(freq * (1 - freq), 0.0) / n_paths)),
                "upper_bound_only": hits == 0,
            }
        )
    pos = [(r["eps"], r["frequency"]) for r in rows if r["count"] > 0]
    exponent = float("nan")
    if len(pos) >= 2:
        le = np.log([p[0] for p in pos])
        lf = np.log([p[1] for p in pos])
        exponent = float(np.polyfit(le, lf, 1)[0])
    freqs = [r["frequency"] for r in rows]
    return {
        "rows": rows,
        "fitted_exponent": exponent,
        "non_increasing": all(
            freqs[k] >= freqs[k + 1] - 1e-15 for k in range(len(freqs) - 1)
        ),
        "y_norms": y_norms,
        "z_norms": z_norms,
    }
