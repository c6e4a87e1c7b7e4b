"""Jacobian flows, Malliavin-derivative flows and bracket pairings.

The Jacobian J_{0,t} of the solution map a -> y_t(a) solves the linear
equation dJ = grad V_i(y) J dx^i with J_{0,0} = I, and its inverse solves
dJ^{-1} = -J^{-1} grad V_i(y) dx^i (right multiplication; the product rule
forces this order).  Under the nilpotent hypotheses both are realized two
ways here:

* the flow route: along the frozen-field trajectory phi_s of the
  time-t representation, Jtilde' = grad Z(phi) Jtilde and
  Jbar' = -Jbar grad Z(phi) on s in [0, 1], which is exact in the driver;
* the linear-RDE route: one pass of the second-order scheme on the
  (y, J, J^{-1}) system, used as an independent cross-check and as the
  fast engine for whole-path quantities.

The Malliavin derivative D_u y_t solves, in the flow parameter s,

    d/ds D_u phi_s = grad Z_t(phi_s) D_u phi_s
                     + V_j(phi_s) 1_{[0,t)}(u) e_j^T
                     + sum_{k>=2, words w} D_u psi_t^w V_w(phi_s),

where the derivative of a signature entry splits at u:

    D^j_u B^{k, i_1..i_k}_{0t}
        = sum_{l: i_l = j} B^{l-1, i_1..i_{l-1}}_{0u} B^{k-l, i_{l+1}..i_k}_{ut}.

The identity D^j_u y_t = J_{0,t} J_{0,u}^{-1} V_j(y_u) provides the second,
independent route; their agreement is the correctness criterion.

Finally Z^U_t = <J_{0,t}^{-1} U(y_t), eta> satisfies the expansion
dZ^U = Z^{[V_j, U]} dx^j (driving field first in the bracket), the chain
the dichotomy experiments in :mod:`roughflow.norris` consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import RoughDriver, rde_solve
from .errors import DomainError
from .fbm import SamplePath, TimeGrid
from .liefields import CompiledField, FieldFamily, PolyVectorField, augmented_jacobian_fields, bracket
from .signature import IteratedIntegrals, Word, chen_concat, path_signature, segment_signature
from .strichartz import (
    DEFAULT_FLOW_STEPS,
    build_Z,
    psi,
    rk4,
    _psi_terms,
)


@dataclass(frozen=True)
class JacobianPath:
    """J_{0,t} and its inverse at every grid time, with residual reporting."""

    grid: TimeGrid
    J: np.ndarray
    J_inv: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        if self.J.shape != self.J_inv.shape or self.J.shape[0] != n:
            raise DomainError("Jacobian path arrays must be (n, m, m)")

    def inverse_residual(self) -> float:
        """max_t || J_{0,t} J_{0,t}^{-1} - I ||_max."""
        prod = np.einsum("tab,tbc->tac", self.J, self.J_inv)
        eye = np.eye(self.J.shape[1])
        return float(np.max(np.abs(prod - eye)))


@dataclass(frozen=True)
class MalliavinSlice:
    """D_u y_t for one t and every grid u; entry [k] is the m x d matrix."""

    grid: TimeGrid
    t: float
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[0] != self.grid.n_points:
            raise DomainError("need one derivative matrix per grid point")


# ---------------------------------------------------------------------------
# Flow-route Jacobians
# ---------------------------------------------------------------------------


def _flow_with_jacobians(
    z: CompiledField, a: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 of (phi, Jtilde, Jbar) along compiled frozen fields on s in [0, 1].

    The family axes K of ``z`` (none, or one per frozen field) batch the
    flows, with phi component-major inside.  Returns (phi, J, Jbar) shaped
    (*K, m), (*K, m, m), (*K, m, m).
    """
    K, m = z.coef.shape[1:], z.exponents.shape[1]

    def rhs(state):
        p_, j_, jb_ = state
        gz = z.jacobian(p_)
        return (z(p_), np.einsum("ab...,...bc->...ac", gz, j_), -np.einsum("...ab,bc...->...ac", jb_, gz))

    eye = np.broadcast_to(np.eye(m), K + (m, m))
    phi, J, Jb = rk4(rhs, (np.broadcast_to(np.asarray(a, dtype=float), K + (m,)).T, eye, eye), steps)
    return phi.T, J, Jb


def jacobian_path_strichartz(
    fields: list[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
    check_hypotheses: bool = True,
) -> tuple[SamplePath, JacobianPath]:
    """(y, J, J^{-1}) at every grid time via batched frozen-field flows."""
    family = FieldFamily.of(fields)
    if check_hypotheses:
        family.require_constant_brackets(n)
        family.require_nilpotent(n)
    m = family.m
    grid = p.grid
    k_max = grid.n_points - 1
    prefixes = _prefix_signatures(p, k_max, n - 1)
    words = list(family.brackets(n))
    psi_mat = np.zeros((k_max, len(words)))
    for k in range(1, k_max + 1):
        for q, w in enumerate(words):
            psi_mat[k - 1, q] = psi(prefixes[k], w)
    z = family.bracket_stack(n).weighted(psi_mat.T)
    phi, J, Jb = _flow_with_jacobians(z, a, steps)
    y = np.vstack([np.asarray(a, dtype=float)[None], phi])
    eye = np.eye(m)[None]
    return (
        SamplePath(grid=grid, values=y, hurst=None),
        JacobianPath(grid=grid, J=np.vstack([eye, J]), J_inv=np.vstack([eye, Jb])),
    )


# ---------------------------------------------------------------------------
# Linear-RDE route: augmented polynomial systems
# ---------------------------------------------------------------------------


def jacobian_flow_rde(
    fields: list[PolyVectorField] | FieldFamily,
    driver: RoughDriver,
    a: np.ndarray,
    grid: TimeGrid | None = None,
) -> tuple[SamplePath, JacobianPath]:
    """One second-order pass over the augmented (y, J, J^{-1}) system."""
    family = FieldFamily.of(fields)
    m = family.m
    eye = np.eye(m).ravel()
    state0 = np.concatenate([np.asarray(a, dtype=float), eye, eye])
    sol, _ = rde_solve(family.augmented, state0, driver, grid=grid)
    n = sol.grid.n_points
    y = sol.values[:, :m]
    J = sol.values[:, m : m + m * m].reshape(n, m, m)
    Jb = sol.values[:, m + m * m :].reshape(n, m, m)
    return (
        SamplePath(grid=sol.grid, values=y, hurst=None),
        JacobianPath(grid=sol.grid, J=J, J_inv=Jb),
    )


# ---------------------------------------------------------------------------
# Malliavin derivatives
# ---------------------------------------------------------------------------


def _prefix_signatures(p: SamplePath, k_max: int, level: int) -> list[IteratedIntegrals | None]:
    """Signatures over [0, t_k] for k = 0..k_max (None at k = 0)."""
    times = p.grid.times
    out: list[IteratedIntegrals | None] = [None]
    sig = None
    for k in range(k_max):
        seg = segment_signature(p.values[k + 1] - p.values[k], level, times[k], times[k + 1])
        sig = seg if sig is None else chen_concat(sig, seg)
        out.append(sig)
    return out


def _suffix_signatures(p: SamplePath, k_max: int, level: int) -> list[IteratedIntegrals | None]:
    """Signatures over [t_k, t_{k_max}] for k = 0..k_max (None at k_max)."""
    times = p.grid.times
    out: list[IteratedIntegrals | None] = [None] * (k_max + 1)
    sig = None
    for k in range(k_max - 1, -1, -1):
        seg = segment_signature(p.values[k + 1] - p.values[k], level, times[k], times[k + 1])
        sig = seg if sig is None else chen_concat(seg, sig)
        out[k] = sig
    return out


def _sig_entry(sig: IteratedIntegrals | None, word: Word) -> float:
    """Signature entry with the empty-word and empty-interval conventions."""
    if len(word) == 0:
        return 1.0
    if sig is None:
        return 0.0
    return sig.value(word)


def d_signature_entry(
    prefix: IteratedIntegrals | None, suffix: IteratedIntegrals | None, word: Word, j: int
) -> float:
    """D^j_u B^{k,word}_{0t} via the prefix/suffix splitting at u."""
    total = 0.0
    for l, letter in enumerate(word):
        if letter == j:
            total += _sig_entry(prefix, word[:l]) * _sig_entry(suffix, word[l + 1 :])
    return total


def d_psi(
    prefix: IteratedIntegrals | None, suffix: IteratedIntegrals | None, word: Word, j: int
) -> float:
    """D^j_u psi_t^word, by differentiating each permuted signature entry."""
    k = len(word)
    total = 0.0
    for tau, coeff in _psi_terms(k):
        permuted = tuple(word[tau[a] - 1] for a in range(k))
        total += coeff * d_signature_entry(prefix, suffix, permuted, j)
    return total


def malliavin_derivative(
    fields: list[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    t: float,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
    check_hypotheses: bool = True,
) -> MalliavinSlice:
    """D_u y_t for every grid u, by the forced variational flow.

    Requires constant brackets of order >= 2 (the hypothesis that removes
    the gradient terms of the higher brackets from the equation).
    """
    family = FieldFamily.of(fields)
    if check_hypotheses:
        family.require_constant_brackets(n)
    m, d = family.m, family.d
    grid = p.grid
    k_t = grid.index_of(t)
    values = np.zeros((grid.n_points, m, d))
    if k_t == 0:
        return MalliavinSlice(grid=grid, t=t, values=values)

    sig = path_signature(p, 0.0, t, n - 1)
    z = build_Z(family, sig, n, check_nilpotency=check_hypotheses)
    prefixes = _prefix_signatures(p, k_t, n - 1)
    suffixes = _suffix_signatures(p, k_t, n - 1)

    higher_terms = [(w, fld) for w, fld, _ in z.terms if len(w) >= 2]
    # Forcing weights per (u_k, j) on the fields V_1..V_d, then the higher
    # brackets: 1_{[0,t)}(u_k) 1_{i=j} for V_i and D^j_{u_k} psi^w for V_w.
    n_u = k_t + 1
    weights = np.zeros((d + len(higher_terms), n_u, d))
    for j in range(d):
        weights[j, :k_t, j] = 1.0
    for k in range(n_u):
        for q, (w, _) in enumerate(higher_terms):
            for j in range(1, d + 1):
                weights[d + q, k, j - 1] = d_psi(prefixes[k], suffixes[k], w, j)
    forcing = CompiledField.stack(list(family.fields) + [f for _, f in higher_terms]).weighted(weights)
    zc = z.compiled

    # Joint RK4 in s: phi (m,) and D (n_u, m, d).
    def rhs(state):
        phi_s, D_s = state
        dD = np.einsum("ab,ubj->uaj", zc.jacobian(phi_s), D_s)
        return zc(phi_s), dD + forcing(phi_s).transpose(1, 0, 2)

    _, values[:n_u] = rk4(rhs, (np.asarray(a, dtype=float), np.zeros((n_u, m, d))), steps)
    return MalliavinSlice(grid=grid, t=t, values=values)


def malliavin_via_jacobian(
    fields: list[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    t: float,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
) -> MalliavinSlice:
    """D_u y_t = J_{0,t} J_{0,u}^{-1} V_j(y_u) 1_{u < t}: the flow-route oracle."""
    family = FieldFamily.of(fields)
    m, d = family.m, family.d
    grid = p.grid
    k_t = grid.index_of(t)
    values = np.zeros((grid.n_points, m, d))
    ypath, jac = jacobian_path_strichartz(family, p, a, n, steps)
    carry = jac.J[k_t] @ jac.J_inv[:k_t]
    v = CompiledField.stack(family.fields)(ypath.values[:k_t].T[..., None])  # (m, k_t, d)
    values[:k_t] = np.einsum("kab,bkj->kaj", carry, v)
    return MalliavinSlice(grid=grid, t=t, values=values)


# ---------------------------------------------------------------------------
# Bracket pairings Z^U
# ---------------------------------------------------------------------------


def z_process(
    fields: list[PolyVectorField],
    driver: RoughDriver,
    u_field: PolyVectorField,
    eta: np.ndarray,
    a: np.ndarray,
    normalize_eta: bool = True,
    method: str = "rde",
    n: int | None = None,
) -> np.ndarray:
    """Pathwise Z^U_t = <J_{0,t}^{-1} U(y_t), eta> at every grid time.

    ``method`` selects the Jacobian engine: one pass of the augmented
    linear RDE (default, grid-rate accurate) or batched frozen-field flows
    (exact in the driver; needs the nilpotency order ``n``).
    """
    eta = np.asarray(eta, dtype=float)
    nrm = float(np.linalg.norm(eta))
    if nrm == 0.0:
        raise DomainError("eta must be a nonzero direction")
    if normalize_eta:
        eta = eta / nrm
    elif abs(nrm - 1.0) > 1e-9:
        raise DomainError("eta must be normalized")
    if method == "rde":
        ypath, jac = jacobian_flow_rde(fields, driver, a)
    elif method == "strichartz":
        if n is None:
            raise DomainError("the flow route needs the nilpotency order n")
        p = SamplePath(grid=driver.grid, values=driver.values, hurst=None)
        ypath, jac = jacobian_path_strichartz(fields, p, a, n)
    else:
        raise DomainError(f"unknown z_process method {method!r}")
    u_vals = u_field(ypath.values)  # (n, m)
    return np.einsum("tab,tb,a->t", jac.J_inv, u_vals, eta)


def z_family(
    fields: list[PolyVectorField],
    driver: RoughDriver,
    u_fields: list[PolyVectorField],
    eta: np.ndarray,
    a: np.ndarray,
) -> np.ndarray:
    """Z^{U} paths for several U from a single augmented solve: (n, len(U))."""
    eta = np.asarray(eta, dtype=float)
    ypath, jac = jacobian_flow_rde(fields, driver, a)
    cols = []
    for u_field in u_fields:
        u_vals = u_field(ypath.values)
        cols.append(np.einsum("tab,tb,a->t", jac.J_inv, u_vals, eta))
    return np.stack(cols, axis=1)


def z_dynamics_pair(
    fields: list[PolyVectorField],
    driver: RoughDriver,
    u_field: PolyVectorField,
    eta: np.ndarray,
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The Norris pair: y_t = Z^U_t - Z^U_0 and its integrand vector z.

    z collects the d paths Z^{[V_j, U]} (driving field first), so that
    delta y = sum_j int z^j dx^j along the expansion of Z^U.
    """
    brackets = [bracket(vj, u_field) for vj in fields]
    zs = z_family(fields, driver, [u_field] + brackets, eta, a)
    y = zs[:, 0] - zs[0, 0]
    return y, zs[:, 1:]
