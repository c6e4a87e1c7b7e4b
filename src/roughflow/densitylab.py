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
from .fbm import HurstParam, SamplePath, TimeGrid, sample_fbm_array
from .liefields import FieldFamily, PolyVectorField, Polynomial, hormander_rank, parse_polynomial
from .signature import batch_levy_prefix, batch_signature_levels, levy_area
from .strichartz import build_Z_batch, exp_flow_batch, fields_hash


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


def yamato_explicit(p: SamplePath, initial, t: float) -> np.ndarray:
    """Explicit solution of the example system along the lifted driver."""
    if p.dim != 3:
        raise DomainError(f"the example system needs a 3-component driver, got d={p.dim}")
    y1, y2, y3 = (float(v) for v in np.asarray(initial, dtype=float))
    k = p.grid.index_of(t)
    if k == 0:
        return np.array([y1, y2, y3])
    b = p.values[k] - p.values[0]
    area = levy_area(p, 0.0, t)
    swirl = 2.0 * (area[2, 1] - area[1, 2])
    return np.array(
        [
            y1 + b[1],
            y2 + b[2],
            y3 + 2.0 * y2 * b[1] - 2.0 * y1 * b[2] + swirl,
        ]
    )


def yamato_explicit_batch(values: np.ndarray, initial) -> np.ndarray:
    """Explicit endpoint law for a batch of drivers (n_paths, n_points, 3)."""
    if values.shape[2] != 3:
        raise DomainError("batch drivers must have 3 components")
    y1, y2, y3 = (float(v) for v in np.asarray(initial, dtype=float))
    area = batch_levy_prefix(values)[:, -1]
    b = values[:, -1] - values[:, 0]
    out = np.empty((values.shape[0], 3))
    out[:, 0] = y1 + b[:, 1]
    out[:, 1] = y2 + b[:, 2]
    out[:, 2] = y3 + 2.0 * y2 * b[:, 1] - 2.0 * y1 * b[:, 2] + 2.0 * (
        area[:, 2, 1] - area[:, 1, 2]
    )
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


def kde(
    samples: np.ndarray,
    bandwidth: float | None = None,
    grid_points: int = 512,
    span: float = 4.0,
) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman's default bandwidth.

    Degenerate samples (zero spread) signal an atom in the law, which is
    reported as an error rather than smoothed over.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 100:
        raise DomainError(f"kde needs at least 100 samples, got {x.size}")
    if grid_points < 2 or not span >= 0:
        raise DomainError(f"kde needs grid_points >= 2 and span >= 0, got {grid_points}, {span}")
    sigma = float(np.std(x))
    if sigma == 0.0:
        raise DomainError("samples are a single atom; no density to estimate")
    if bandwidth is None:
        bandwidth = 1.06 * sigma * x.size ** (-0.2)
    if not bandwidth > 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    x = np.sort(x)
    xs = np.linspace(x[0] - span * bandwidth, x[-1] + span * bandwidth, grid_points)
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


# ---------------------------------------------------------------------------
# End-to-end density experiments
# ---------------------------------------------------------------------------

#: Registered explicit endpoint samplers, keyed by fields_hash.
_EXPLICIT_SAMPLERS = {}


def register_explicit(fields: list[PolyVectorField], sampler) -> None:
    _EXPLICIT_SAMPLERS[fields_hash(fields)] = sampler


def check_hypotheses(
    fields: list[PolyVectorField] | FieldFamily, n: int, points: np.ndarray
) -> dict:
    """The three density hypotheses: nilpotency, constant brackets, spanning."""
    family = FieldFamily.of(fields)
    nil, witness = family.nilpotent(n)
    ranks = [hormander_rank(family.fields, x, n - 1) for x in np.atleast_2d(points)]
    return {
        "nilpotent": nil,
        "nilpotency_witness": list(witness) if witness else None,
        "constant_brackets": family.constant_brackets(n),
        "hormander_ranks": ranks,
        "hormander_full": all(r == family.m for r in ranks),
        "order": n,
    }


def flow_endpoint_samples(
    fields: list[PolyVectorField],
    hurst: HurstParam,
    t: float,
    n_paths: int,
    seed: int,
    n: int,
    initial,
    grid_points: int = 33,
    steps: int = 128,
    check_nilpotency: bool = True,
) -> np.ndarray:
    """Monte-Carlo endpoint samples y_t via the batched nilpotent flow."""
    grid = TimeGrid(t, grid_points)
    drivers = sample_fbm_array(hurst, grid, len(fields), n_paths, seed)
    levels = batch_signature_levels(drivers, n - 1)
    terms = build_Z_batch(fields, levels, n, check_nilpotency=check_nilpotency)
    return exp_flow_batch(terms, np.asarray(initial, dtype=float), steps)


def density_report(
    fields: list[PolyVectorField],
    hurst: HurstParam,
    t: float,
    n_paths: int,
    functional,
    initial=None,
    n: int = 3,
    seed: int = 0,
    grid_points: int = 33,
    bandwidth: float | None = None,
    kde_points: int = 512,
) -> dict:
    """KDE and smoothness proxies for a 1-d functional of the endpoint law.

    ``functional`` is either a 1-based component index or a weight vector.
    Refuses to run when any of the three bracket hypotheses fails, naming
    the failed one.  When an explicit sampler is registered for the field
    family, an independent driver batch is pushed through it and the
    two-sample Kolmogorov-Smirnov distance is reported.
    """
    m = fields[0].m
    initial = np.zeros(m) if initial is None else np.asarray(initial, dtype=float)
    checks = check_hypotheses(fields, n, initial)
    for key, label in (
        ("nilpotent", "nilpotency"),
        ("constant_brackets", "constant brackets"),
        ("hormander_full", "Hoermander spanning"),
    ):
        if not checks[key]:
            raise PreconditionError(
                f"hypothesis check failed: {label}", name=label
            )
    if isinstance(functional, (int, np.integer)):
        if not 1 <= int(functional) <= m:
            raise DomainError(f"component index {functional} out of range 1..{m}")
        weights = np.eye(m)[int(functional) - 1]
        label = f"component {int(functional)}"
    else:
        weights = np.asarray(functional, dtype=float)
        if weights.shape != (m,):
            raise DomainError(f"functional must have shape ({m},)")
        label = "linear functional"

    endpoints = flow_endpoint_samples(
        fields, hurst, t, n_paths, seed, n, initial, grid_points
    )
    samples = endpoints @ weights
    full = kde(samples, bandwidth=bandwidth, grid_points=kde_points)
    half = kde(samples[: n_paths // 2], bandwidth=bandwidth, grid_points=kde_points)
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
        "functional": label,
        "hurst": hurst.value,
        "t": t,
        "n_paths": n_paths,
        "seed": seed,
        "initial": initial.tolist(),
        "hypotheses": checks,
        "kde": full,
        "mass": full.mass,
        "proxies": proxies_full,
        "proxy_stability_rel": stability,
        "skewness": skew,
        "skewness_stderr": skew_stderr,
    }
    sampler = _EXPLICIT_SAMPLERS.get(fields_hash(fields))
    if sampler is not None:
        from scipy.stats import ks_2samp
        grid = TimeGrid(t, grid_points)
        drivers = sample_fbm_array(hurst, grid, len(fields), n_paths, seed + 1)
        explicit = sampler(drivers, initial) @ weights
        ks = ks_2samp(samples, explicit)
        report["ks_statistic"] = float(ks.statistic)
        report["ks_pvalue"] = float(ks.pvalue)
    return report


register_explicit(yamato_fields(), yamato_explicit_batch)
