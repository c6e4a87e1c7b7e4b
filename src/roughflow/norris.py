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
constants of the underlying tail bound are not desk-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fbm import HurstParam, SamplePath, TimeGrid, sample_fbm_array
from .increments import Increment1
from .liefields import FieldFamily, PolyVectorField, bracket
from .controlled import rde_solve_batch

# ---------------------------------------------------------------------------
# Hermite polynomials and increment correlations
# ---------------------------------------------------------------------------

MAX_HERMITE = 6


def hermite(k: int, x):
    """Probabilists' Hermite polynomial H_k, k <= 6, by the recurrence."""
    if not 0 <= k <= MAX_HERMITE:
        raise DomainError(f"hermite supports 0 <= k <= {MAX_HERMITE}, got {k}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * h_prev, h
    return h if h.ndim else float(h)


def alpha(m: int, hurst: HurstParam | float) -> float:
    """Correlation of unit-spaced fBm increments at lag m >= 0."""
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    if m < 0:
        raise DomainError(f"lag must be nonnegative, got {m}")
    two_h = 2.0 * H
    return 0.5 * ((m + 1) ** two_h + abs(m - 1) ** two_h - 2.0 * m**two_h)


def alpha_matrix(K: int, hurst: HurstParam | float) -> np.ndarray:
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


def isserlis_even_moment(cov: np.ndarray, idx: list[int]) -> float:
    """E[x_{i_1} ... x_{i_{2n}}] for a centered Gaussian vector, by pairings."""
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for pos in range(len(rest)):
        pair = cov[first, rest[pos]]
        remaining = rest[:pos] + rest[pos + 1 :]
        total += pair * isserlis_even_moment(cov, remaining)
    return total


def isserlis_fourth_variation_moments(cov: np.ndarray) -> tuple[float, float]:
    """Exact (mean, variance) of sum_i x_i^4 by brute-force pairing sums."""
    K = cov.shape[0]
    mean = sum(isserlis_even_moment(cov, [i] * 4) for i in range(K))
    second = 0.0
    for i in range(K):
        for j in range(K):
            second += isserlis_even_moment(cov, [i] * 4 + [j] * 4)
    return mean, second - mean**2


def sample_fourth_variation(
    K: int, hurst: HurstParam | float, n_samples: int, seed: int = 0
) -> np.ndarray:
    """Monte-Carlo samples of Xhat_K from the exact increment covariance."""
    L = np.linalg.cholesky(alpha_matrix(K, hurst) + 1e-12 * np.eye(K))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((n_samples, K)) @ L.T
    return np.sum(g**4, axis=1)


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


@dataclass(frozen=True)
class BlockStats:
    """Per-block fourth variations of one path and their global summaries."""

    scales: TwoScale
    x_blocks: np.ndarray
    y_blocks: np.ndarray
    x_total: float
    mean: float
    variance: float


def block_stats(p: SamplePath, scales: TwoScale) -> BlockStats:
    """Fourth-variation blocks X_N and their quartic roots Y_N.

    The fine scale must align with the path grid (delta an integer multiple
    of the mesh).
    """
    mesh = p.grid.mesh
    stride_f = scales.delta / mesh
    if abs(stride_f - round(stride_f)) > 1e-9 or round(stride_f) < 1:
        raise DomainError(
            f"delta = {scales.delta} is not an integer multiple of the mesh {mesh}"
        )
    stride = int(round(stride_f))
    fine = p.values[::stride]
    incr = np.diff(fine, axis=0)
    fourth = np.sum(incr * incr, axis=1) ** 2  # |increment|^4
    r = scales.r
    n_blocks = fourth.shape[0] // r
    if n_blocks < 1:
        raise DomainError("horizon too short for one coarse block")
    x = fourth[: n_blocks * r].reshape(n_blocks, r).sum(axis=1)
    return BlockStats(
        scales=scales,
        x_blocks=x,
        y_blocks=x**0.25,
        x_total=float(np.sum(fourth)),
        mean=float(np.mean(x)),
        variance=float(np.var(x)),
    )


def block_stats_mc(
    hurst: HurstParam,
    scales: TwoScale,
    n_paths: int,
    seed: int = 0,
    horizon: float = 1.0,
    d: int = 1,
) -> dict:
    """Monte-Carlo block statistics against their closed-form targets."""
    n_points = int(round(horizon / scales.delta)) + 1
    grid = TimeGrid(horizon, n_points)
    paths = sample_fbm_array(hurst, grid, d, n_paths, seed)
    incr = np.diff(paths, axis=1)
    fourth = np.sum(incr * incr, axis=2) ** 2
    r = scales.r
    n_blocks = fourth.shape[1] // r
    x = fourth[:, : n_blocks * r].reshape(n_paths, n_blocks, r).sum(axis=2)
    mean_target, var_target = hermite_moments(r, hurst, scales.delta)
    est_mean = float(np.mean(x))
    stderr = float(np.std(x.mean(axis=1)) / np.sqrt(n_paths))
    return {
        "hurst": hurst.value,
        "delta": scales.delta,
        "Delta": scales.Delta,
        "r": r,
        "n_paths": n_paths,
        "n_blocks": n_blocks,
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
# Interpolation inequality report
# ---------------------------------------------------------------------------


def l1_norm(b: Increment1) -> float:
    """Trapezoid integral of |b| over the grid."""
    mags = np.linalg.norm(np.atleast_2d(b.values.T), axis=0)
    return float(np.trapezoid(mags, b.grid.times))


def interpolation_check(
    b: Increment1, alpha_: float, rho: float, eta_grid: np.ndarray | None = None
) -> dict:
    """Check the explicit-constant interpolation bound and report eta form.

    The inner inequality ||b||_a <= 2^{1-a/r} ||b||_inf^{1-a/r} ||b||_r^{a/r}
    is evaluated on discrete norms; for each eta the implied constant of
    the two-term form ||b||_{a,inf} <= C [eta ||b||_{r,inf} +
    eta^{-1/(r-a)} ||b||_{L1}] is reported.
    """
    from .increments import interpolation_chain_check, path_holder_sup_norm

    report = interpolation_chain_check(b, alpha_, rho)
    lhs_full = path_holder_sup_norm(b, alpha_)
    rho_full = path_holder_sup_norm(b, rho)
    l1 = l1_norm(b)
    if eta_grid is None:
        eta_grid = np.logspace(-3, 0, 13)
    implied = []
    for eta in eta_grid:
        denom = eta * rho_full + eta ** (-1.0 / (rho - alpha_)) * l1
        implied.append(lhs_full / denom if denom > 0 else float("inf"))
    report.update(
        {
            "l1": l1,
            "lhs_full": lhs_full,
            "rho_full": rho_full,
            "eta": np.asarray(eta_grid, dtype=float),
            "implied_C": np.asarray(implied),
        }
    )
    return report


# ---------------------------------------------------------------------------
# The dichotomy probe
# ---------------------------------------------------------------------------


def _path_norms(paths: np.ndarray, times: np.ndarray, exponent: float) -> np.ndarray:
    """||.||_{exponent, infty} per path; exponent 0 reduces to the sup norm.

    ``paths`` is (P, n) scalar or (P, n, d) vector valued.
    """
    if paths.ndim == 2:
        paths = paths[:, :, None]
    mags_sup = np.max(np.linalg.norm(paths, axis=2), axis=1)
    if exponent == 0.0:
        return mags_sup
    n = paths.shape[1]
    i, j = np.triu_indices(n, k=1)
    diffs = np.linalg.norm(paths[:, j, :] - paths[:, i, :], axis=2)
    weights = (times[j] - times[i]) ** exponent
    return mags_sup + np.max(diffs / weights[None, :], axis=1)


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
    gamma_y: float = 0.0,
    alpha_z: float = 0.0,
    seed: int = 0,
) -> dict:
    """Estimate P(||y|| < eps and ||z|| > eps^q) on a shrinking eps ladder.

    y_t = Z^U_t - Z^U_0 and z collects the integrand paths Z^{[V_j, U]} of
    its expansion; the norms are ||.||_{gamma,infty} with exponent 0 meaning
    the plain sup norm (Hoelder-seminorm events at the listed eps are
    unobservably rare at desk scale, so the probe defaults to sup norms).
    Returns per-eps frequencies and the fitted decay exponent over the
    rows with at least one event; zero-count rows carry the resolution
    bound 1/n_paths as an upper-bound marker.
    """
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if np.any(eps_arr <= 0):
        raise DomainError("eps values must be positive")
    family = FieldFamily.of(fields)
    m = family.m
    a = np.zeros(m) if a is None else np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    eta = eta / np.linalg.norm(eta)

    grid = TimeGrid(horizon, grid_points)
    drivers = sample_fbm_array(hurst, grid, family.d, n_paths, seed)
    eye = np.eye(m).ravel()
    state0 = np.concatenate([a, eye, eye])
    states = rde_solve_batch(family.augmented, state0, drivers)
    y_sol = states[:, :, :m]
    j_inv = states[:, :, m + m * m :].reshape(n_paths, grid_points, m, m)

    def pairing(field: PolyVectorField) -> np.ndarray:
        vals = field(y_sol.reshape(-1, m)).reshape(n_paths, grid_points, m)
        return np.einsum("ptab,ptb,a->pt", j_inv, vals, eta)

    z_u = pairing(u_field)
    y_paths = z_u - z_u[:, :1]
    z_paths = np.stack([pairing(bracket(vj, u_field)) for vj in family.fields], axis=2)

    y_norms = _path_norms(y_paths, grid.times, gamma_y)
    z_norms = _path_norms(z_paths, grid.times, alpha_z)

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
                "resolution": 1.0 / n_paths,
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
        "q": q,
        "gamma_y": gamma_y,
        "alpha_z": alpha_z,
        "horizon": horizon,
        "n_paths": n_paths,
        "seed": seed,
        "y_norms": y_norms,
        "z_norms": z_norms,
    }
