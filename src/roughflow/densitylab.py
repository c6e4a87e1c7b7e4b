"""Worked nilpotent example on R^3 and Monte-Carlo density probes.

The example system (due to Yamato) drives R^3 with

    A_1 = 0,   A_2 = d/dx1 + 2 x2 d/dx3,   A_3 = d/dx2 - 2 x1 d/dx3.

Its brackets are [A_2, A_3] = -4 d/dx3 and all order-3 brackets vanish, so
the family is 3-nilpotent with constant higher brackets and satisfies the
spanning condition everywhere.  The solution is explicit: with initial
condition (y1, y2, y3),

    y^1_t = y1 + B^2_t,
    y^2_t = y2 + B^3_t,
    y^3_t = y3 + 2 y2 B^2_t - 2 y1 B^3_t + 2 (B^{2,32}_{0t} - B^{2,23}_{0t}).

(The two initial-condition cross terms follow from integrating
dy^3 = 2 y^2 dB^2 - 2 y^1 dB^3 and vanish when the start is the origin;
they are confirmed independently by the nilpotent-flow route and by
finite-difference Jacobians.)

Density smoothness itself is not decidable numerically; this module checks
the bracket hypotheses exactly and probes the law of y_t with kernel
density estimates, finite-difference smoothness proxies and distributional
comparisons against the explicit formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .fbm import HurstParam, TimeGrid, sample_fbm_array
from .liefields import FieldFamily, PolyVectorField, Polynomial, fields_hash, hormander_rank, parse_polynomial
from .signature import batch_signature_levels
from .strichartz import build_Z_batch, exp_flow_batch, flow_route


def yamato_fields() -> list[PolyVectorField]:
    """The three fields of the example system; the first is genuinely zero."""
    m = 3
    a2 = PolyVectorField(
        (
            Polynomial.constant(m, 1),
            Polynomial.zero(m),
            parse_polynomial("2*x2", m),
        )
    )
    a3 = PolyVectorField(
        (
            Polynomial.zero(m),
            Polynomial.constant(m, 1),
            parse_polynomial("-2*x1", m),
        )
    )
    return [PolyVectorField.zero(m), a2, a3]


def yamato_explicit_batch(values: np.ndarray, initial) -> np.ndarray:
    """Explicit endpoint law for a batch of drivers (n_paths, n_points, 3)."""
    if values.shape[2] != 3:
        raise DomainError("batch drivers must have 3 components")
    y1, y2, y3 = (float(v) for v in np.asarray(initial, dtype=float))
    # (B^{2,32}_{0t}, B^{2,23}_{0t}) by the per-segment Chen update area += b1 (x) dv + dv (x) dv / 2
    # of those two entries, independent of batch_signature_levels; b1 is B^1 of components 2 and 3.
    area = np.zeros((values.shape[0], 2))
    b1 = np.zeros((values.shape[0], 2))
    for k in range(values.shape[1] - 1):
        dv = values[:, k + 1, 1:] - values[:, k, 1:]
        area = area + b1[:, ::-1] * dv + 0.5 * (dv[:, 1] * dv[:, 0])[:, None]
        b1 = b1 + dv
    b = values[:, -1] - values[:, 0]
    out = np.empty((values.shape[0], 3))
    out[:, 0] = y1 + b[:, 1]
    out[:, 1] = y2 + b[:, 2]
    out[:, 2] = y3 + 2.0 * y2 * b[:, 1] - 2.0 * y1 * b[:, 2] + 2.0 * (area[:, 0] - area[:, 1])
    return out


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density estimate on a uniform evaluation grid."""

    xs: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_samples: int

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.xs))

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)


#: Scratch bound of the exact KDE: at most grid_points * KDE_CHUNK floats.
KDE_CHUNK = 2048
#: Grid rows that share one window of samples.
KDE_BLOCK = 16
#: Window half-width in bandwidths; a kernel term beyond it is below e^{-72} of the peak.
KDE_RADIUS = 12.0
#: Evaluation grid margin beyond the extreme samples, in bandwidths.
KDE_SPAN = 4.0


def kde(
    samples: np.ndarray,
    bandwidth: float | None = None,
    grid_points: int = 512,
) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman's default bandwidth.

    Degenerate samples (zero spread) signal an atom in the law, which is
    reported as an error rather than smoothed over; so is a spread that is
    not finite.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 100:
        raise DomainError(f"kde needs at least 100 samples, got {x.size}")
    if grid_points < 2:
        raise DomainError(f"kde needs grid_points >= 2, got {grid_points}")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(np.std(x))
    if not np.isfinite(sigma):
        raise DomainError(f"sample spread is not finite (std {sigma}); no density to estimate")
    if sigma == 0.0:
        raise DomainError("samples are a single atom; no density to estimate")
    if bandwidth is None:
        bandwidth = 1.06 * sigma * x.size ** (-0.2)
    if not bandwidth > 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    x = np.sort(x)
    xs = np.linspace(x[0] - KDE_SPAN * bandwidth, x[-1] + KDE_SPAN * bandwidth, grid_points)
    # Exact up to rounding: each block of grid rows sums the kernel over the sorted
    # samples within KDE_RADIUS bandwidths of it, formed in place in one scratch buffer.
    rows = min(KDE_BLOCK, grid_points)
    width = min(x.size, grid_points * KDE_CHUNK // rows)
    scratch = np.empty(rows * width)
    reach = KDE_RADIUS * bandwidth
    vals = np.zeros(grid_points)
    for r in range(0, grid_points, rows):
        block = xs[r : r + rows]
        first, last = np.searchsorted(x, (block[0] - reach, block[-1] + reach))
        for s in range(first, last, width):
            part = x[s : min(s + width, last)]
            u = scratch[: block.size * part.size].reshape(block.size, part.size)
            np.subtract(block[:, None], part, out=u)
            u /= bandwidth
            u *= u
            u *= -0.5
            vals[r : r + rows] += np.exp(u, out=u).sum(axis=1)
    vals /= bandwidth * np.sqrt(2.0 * np.pi) * x.size
    return DensityEstimate(xs=xs, values=vals, bandwidth=bandwidth, n_samples=x.size)


def _skewness(x: np.ndarray) -> float:
    centered = x - x.mean()
    return float(np.mean(centered**3) / np.std(x) ** 3)


def smoothness_proxies(est: DensityEstimate) -> dict:
    """Max absolute first and second finite differences of the estimate."""
    if est.xs.size < 3:
        raise DomainError(f"smoothness proxies need at least 3 grid points, got {est.xs.size}")
    dx = est.xs[1] - est.xs[0]
    d1 = np.diff(est.values) / dx
    d2 = np.diff(est.values, n=2) / dx**2
    return {
        "max_abs_d1": float(np.max(np.abs(d1))),
        "max_abs_d2": float(np.max(np.abs(d2))),
    }


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov distance D of two samples of one size n, and its
    exact two-sided p-value under a common continuous law; DomainError for other sizes.

    D = h / n with h = max_x |#{a <= x} - #{b <= x}|, counted in integers.  The law of
    D is Gnedenko-Korolyuk's: P(D >= h / n) = 2 sum_{j >= 1} (-1)^(j+1) C(2n, n - jh) / C(2n, n).
    The sum is taken by Horner's rule on the ratios of consecutive terms, each a
    product of h factors, so that no two terms cancel.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n = a.size
    if n == 0 or b.size != n:
        raise DomainError(f"ks_two_sample needs two samples of one size n >= 1, got {a.size} and {b.size}")
    both = np.concatenate([a, b])
    h = int(np.max(np.abs(np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right"))))
    if h == 0:
        return 0.0, 1.0
    # tail <- r_k (1 - tail) for k = n // h down to 0, r_k = C(2n, n - (k+1)h) / C(2n, n - kh).
    # r_k falls with k, so past the first r_k <= 2^-60 every tail is below 2^-60 and 1 - tail
    # rounds to 1: starting the fold there gives the same bits in a few h steps, not n.
    ratios = []
    for k in range(n // h + 1):
        ratio = 1.0
        for j in range(h):
            ratio = (n - k * h - j) * ratio / (n + k * h + j + 1)
        ratios.append(ratio)
        if ratio <= 2.0**-60:
            break
    tail = 0.0
    for ratio in reversed(ratios):
        tail = ratio * (1.0 - tail)
    return h / n, min(1.0, 2.0 * tail)


# ---------------------------------------------------------------------------
# End-to-end density experiments
# ---------------------------------------------------------------------------


def check_hypotheses(
    fields: list[PolyVectorField] | FieldFamily, n: int, points: np.ndarray
) -> dict:
    """The three density hypotheses: nilpotency, constant brackets, spanning."""
    family = FieldFamily.of(fields)
    nil, witness = family.nilpotent(n)
    ranks = [hormander_rank(family, x, n - 1) for x in np.atleast_2d(points)]
    return {
        "nilpotent": nil,
        "nilpotency_witness": list(witness) if witness else None,
        "constant_brackets": family.constant_brackets(n),
        "hormander_ranks": ranks,
        "hormander_full": all(r == family.m for r in ranks),
        "order": n,
    }


#: Paths per block of ``flow_endpoint_samples``.  Swept at 100k paths on 33 points
#: with the polynomial flow and time-major signature (2-vCPU Xeon, one BLAS thread),
#: best of 5 per fresh process: blocks of 2^10 ... 2^15 paths 0.31-0.39, 0.32-0.39,
#: 0.36-0.39, 0.38-0.39, 0.41-0.48, 0.45-0.46 s at peaks of 117-120, 120-121, 126-127,
#: 140, 165, 215 MB.  Alternating runs: 2^11 beat 2^12 on time (median of 8, 0.305
#: against 0.317 s) and peak; 2^10 peaked 3 MB lower but ran slower than 2^11.
FLOW_BLOCK = 2**11
#: RK4 steps of the endpoint flow, used only when the bracket stack has no certificate.
FLOW_STEPS = 128


def flow_endpoint_samples(
    fields: list[PolyVectorField],
    hurst: HurstParam,
    t: float,
    n_paths: int,
    seed: int,
    n: int,
    initial,
    grid_points: int = 33,
) -> np.ndarray:
    """Monte-Carlo endpoint samples y_t via the batched nilpotent flow.

    One driver batch is drawn; signature, psi and flow then run on FLOW_BLOCK
    paths at a time.  Each stage is per-path, so the blocking changes no value.
    """
    family = FieldFamily.of(fields)
    drivers = sample_fbm_array(hurst, TimeGrid(t, grid_points), family.d, n_paths, seed)
    out = np.empty((n_paths, family.m))
    starts = np.broadcast_to(np.asarray(initial, dtype=float), out.shape)
    for s in range(0, n_paths, FLOW_BLOCK):
        block = slice(s, s + FLOW_BLOCK)
        levels = batch_signature_levels(drivers[block], n - 1)
        out[block] = exp_flow_batch(family, n, build_Z_batch(family, levels, n), starts[block], FLOW_STEPS)
    return out


def density_report(
    fields: list[PolyVectorField],
    hurst: HurstParam,
    t: float,
    n_paths: int,
    functional: int,
    seed: int = 0,
    grid_points: int = 33,
    bandwidth: float | None = None,
) -> dict:
    """KDE and smoothness proxies for component ``functional`` (1-based) of the
    endpoint law from the origin.

    The flow runs at the family's own nilpotency order n, ``FieldFamily.order``,
    which raises PreconditionError ``nilpotency`` when there is none up to 5.
    Refuses to run when constant brackets or spanning fails at that n, naming
    the failed one.  For Yamato's family an independent driver batch of the same
    size is pushed through ``yamato_explicit_batch``, and ``ks_two_sample`` gives
    the Kolmogorov-Smirnov distance to it with its exact p-value (Gnedenko-Korolyuk).
    """
    family = FieldFamily.of(fields)
    m, n = family.m, family.order()
    initial = np.zeros(m)
    checks = check_hypotheses(family, n, initial)
    for key, label in (("constant_brackets", "constant brackets"), ("hormander_full", "Hoermander spanning")):
        if not checks[key]:
            raise PreconditionError(f"hypothesis check failed: {label}", name=label)
    if not 1 <= functional <= m:
        raise DomainError(f"component index {functional} out of range 1..{m}")
    endpoints = flow_endpoint_samples(family, hurst, t, n_paths, seed, n, initial, grid_points)
    flow = flow_route(family, n, FLOW_STEPS)
    samples = endpoints[:, functional - 1]
    full = kde(samples, bandwidth=bandwidth)
    half = kde(samples[: n_paths // 2], bandwidth=bandwidth)
    proxies_full = smoothness_proxies(full)
    proxies_half = smoothness_proxies(half)
    stability = {
        key: abs(proxies_full[key] - proxies_half[key]) / max(proxies_full[key], 1e-300)
        for key in proxies_full
    }
    skew = _skewness(samples)
    # Sampling scale for the skewness estimate from disjoint batches; the
    # Gaussian formula sqrt(6/n) is too optimistic for heavy-tailed laws.
    groups = np.array_split(samples, 16)
    group_skews = np.array([_skewness(g) for g in groups])
    skew_stderr = float(np.std(group_skews, ddof=1) / np.sqrt(len(groups)))
    report = {
        "hypotheses": checks,
        "flow": flow,
        "kde": full,
        "mass": full.mass,
        "proxies": proxies_full,
        "proxy_stability_rel": stability,
        "skewness": skew,
        "skewness_stderr": skew_stderr,
    }
    if family.key == fields_hash(yamato_fields()):
        drivers = sample_fbm_array(hurst, TimeGrid(t, grid_points), family.d, n_paths, seed + 1)
        explicit = yamato_explicit_batch(drivers, initial)[:, functional - 1]
        report["ks_statistic"], report["ks_pvalue"] = ks_two_sample(samples, explicit)
    return report
