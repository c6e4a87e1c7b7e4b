"""Reference routines that only the tests use.

Each is the slow or per-call form of something the package computes
another way, kept here as that route's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from roughflow.errors import DomainError
from roughflow.fbm import TimeGrid, sample_fbm_array
from roughflow.flows import _flow_with_jacobians, z_family
from roughflow.increments import Increment2
from roughflow.liefields import FieldFamily, bracket
from roughflow.signature import IteratedIntegrals, Word, batch_signature_levels, path_signature
from roughflow.strichartz import DEFAULT_FLOW_STEPS, _psi_terms, build_Z, build_Z_batch, exp_flow_batch, psi


def jacobian_flow_strichartz(fields, p, a, t, n, steps=DEFAULT_FLOW_STEPS):
    """(J_{0,t}, J_{0,t}^{-1}) by the variational flow along exp(Z_t).

    The per-time oracle of ``flows.jacobian_path_strichartz``.
    """
    family = FieldFamily.of(fields)
    family.require_constant_brackets(n)
    family.require_nilpotent(n)
    if t == 0.0:
        return np.eye(family.m), np.eye(family.m)
    sig = path_signature(p, 0.0, t, n - 1)
    z = build_Z(family, sig, n)
    _, J, Jb = _flow_with_jacobians(z.compiled, a, steps)
    return J, Jb


@dataclass(frozen=True)
class PsiTable:
    """All psi functionals up to a level, for one time t."""

    t: float
    d: int
    level: int
    table: dict[Word, float] = field(repr=False)

    def __getitem__(self, word: Word) -> float:
        return self.table[tuple(word)]


def psi_table(sig: IteratedIntegrals, level: int) -> PsiTable:
    table = {}
    for k in range(1, level + 1):
        for w in iter_product(range(1, sig.d + 1), repeat=k):
            table[w] = psi(sig, w)
    return PsiTable(t=sig.t, d=sig.d, level=level, table=table)


def coefficient_abs_sum(k: int) -> float:
    """sum_{sigma in S_k} |coefficient(sigma)|; bounded by 1 for every k."""
    return sum(abs(c) for _, c in _psi_terms(k))


def signature_scaling_check(sig_base: IteratedIntegrals, sig_scaled: IteratedIntegrals, c: float) -> float:
    """Max defect of level-k entries scaling like c^k under path dilation."""
    worst = 0.0
    for k in range(1, sig_base.level + 1):
        worst = max(
            worst,
            float(np.max(np.abs(sig_scaled.levels[k - 1] - (c**k) * sig_base.levels[k - 1]))),
        )
    return worst


def z_dynamics_pair(fields, driver, u_field, eta, a):
    """The Norris pair: y_t = Z^U_t - Z^U_0 and its integrand vector z.

    z collects the d paths Z^{[V_j, U]} (driving field first), so that
    delta y = sum_j int z^j dx^j along the expansion of Z^U.
    """
    brackets = [bracket(vj, u_field) for vj in fields]
    zs = z_family(fields, driver, [u_field] + brackets, eta, a)
    y = zs[:, 0] - zs[0, 0]
    return y, zs[:, 1:]


def compensated_sum(g: Increment2, s_idx: int, t_idx: int) -> np.ndarray:
    """(id - Lambda delta) g over [t_s, t_t]: the finest-grid Riemann sum.

    This is the canonical numerical route to the indefinite integral of a
    small 2-increment.
    """
    if not 0 <= s_idx < t_idx < g.grid.n_points:
        raise DomainError("need grid indices s < t")
    diag = g.values[np.arange(s_idx, t_idx), np.arange(s_idx + 1, t_idx + 1), ...]
    return np.sum(diag, axis=0)


def flow_endpoint_samples_whole(fields, hurst, t, n_paths, seed, n, initial, grid_points=33, steps=128):
    """Endpoint samples with every stage over the whole driver batch at once.

    The oracle of the path-blocked ``densitylab.flow_endpoint_samples``.
    """
    drivers = sample_fbm_array(hurst, TimeGrid(t, grid_points), len(fields), n_paths, seed)
    levels = batch_signature_levels(drivers, n - 1)
    terms = build_Z_batch(fields, levels, n)
    return exp_flow_batch(terms, np.asarray(initial, dtype=float), steps)


def batch_signature_levels_fold(values, n, upto_idx=None):
    """Signatures over [t_0, t_k] by Chen-folding segment tensor exponentials.

    The per-segment oracle of ``signature.batch_signature_levels``.
    """
    n_paths, n_points, d = values.shape
    stop = n_points - 1 if upto_idx is None else upto_idx

    def seg_levels(v):
        out = []
        current = v.copy()
        for k in range(1, n + 1):
            out.append(current / math.factorial(k))
            if k < n:
                current = np.einsum("p...,pj->p...j", current, v)
        return out

    def outer(x, y, kx, ky):
        flat = np.einsum("pa,pb->pab", x.reshape(n_paths, d**kx), y.reshape(n_paths, d**ky))
        return flat.reshape((n_paths,) + (d,) * (kx + ky))

    acc = seg_levels(values[:, 1] - values[:, 0])
    for seg in range(1, stop):
        b = seg_levels(values[:, seg + 1] - values[:, seg])
        new = []
        for k in range(1, n + 1):
            total = acc[k - 1] + b[k - 1]
            for j in range(1, k):
                total = total + outer(acc[j - 1], b[k - j - 1], j, k - j)
            new.append(total)
        acc = new
    return acc


def batch_levy_prefix_loop(values):
    """Every prefix level-2 signature by one Chen update per grid segment.

    The per-segment oracle of ``signature.batch_levy_prefix``; its last slice
    is term for term the running sum of ``densitylab.yamato_explicit_batch``.
    """
    n_paths, n_points, d = values.shape
    out = np.zeros((n_paths, n_points, d, d))
    b1 = np.zeros((n_paths, d))
    for k in range(n_points - 1):
        dv = values[:, k + 1] - values[:, k]
        out[:, k + 1] = out[:, k] + np.einsum("pi,pj->pij", b1, dv) + 0.5 * np.einsum("pi,pj->pij", dv, dv)
        b1 = b1 + dv
    return out
