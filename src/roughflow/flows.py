"""Jacobian flows and Malliavin-derivative flows.

For n-nilpotent fields y_t = exp(Z_t)(a) (see ``strichartz``), so the
Jacobian J_{0,t} of the solution map a -> y_t(a) is the derivative
D exp(Z_t)(a), and its inverse is D exp(-Z_t)(y_t).  Both are the tangent
columns of one frozen flow, ``strichartz.variational``: started from (a, I)
under Z_t, and from (y_t, I) under -Z_t.  The prefix signatures S_{0,t_k} of
every grid time are one batch of ``batch_signature_levels``, and the flows of
all grid times one batch of ``strichartz.frozen_flow``: exact in the driver,
up to rounding, when the bracket stack has a certificate (Yamato's does), RK4
otherwise.  A Davie pass over the joint (y, J, J^{-1}) system
(``tests/helpers.jacobian_flow_rde``) is its independent cross-check.

y_t depends on the driver only through the functionals psi_t^w of the
brackets, so by the chain rule the Malliavin derivative is

    D_u y_t = sum_w E_t^w D_u psi_t^w,    E_t^w = d exp(Z_t)(a) / d psi^w:

E_t is (m, W), one tangent column per bracket word w, of the variational
flow of Z_t forced by the bracket V_w itself,

    d/ds E^w_s = grad Z_t(phi_s) E^w_s + V_w(phi_s),    E^w_0 = 0,

one flow of 1 + W columns whatever the grid, on the same route as the
Jacobian.  The derivative of a signature entry splits at u:

    D^j_u B^{k, i_1..i_k}_{0t}
        = sum_{l: i_l = j} B^{l-1, i_1..i_{l-1}}_{0u} B^{k-l, i_{l+1}..i_k}_{ut}.

The prefixes B_{0u} come from the same batch engine and the suffixes from
Chen's identity solved for the right factor, so every D_u psi_t is array
math over the grid.  The identity D^j_u y_t = J_{0,t} J_{0,u}^{-1} V_j(y_u)
provides the second, independent route; their agreement is the
correctness criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fbm import SamplePath, TimeGrid
from .liefields import FieldFamily, PolyVectorField
from .signature import batch_signature_levels
from .strichartz import DEFAULT_FLOW_STEPS, _psi_terms, build_Z_batch, frozen_flow, variational


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
# Jacobians
# ---------------------------------------------------------------------------


def _tangent_flow(z, y0: np.ndarray, certificate, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(z)(y0) and D exp(z)(y0) for y0 (m, *batch): shaped (m, *batch) and (m, *batch, m)."""
    m = y0.shape[0]
    start = np.empty(y0.shape + (1 + m,))
    start[..., 0] = y0
    start[..., 1:] = np.eye(m).reshape((m,) + (1,) * (y0.ndim - 1) + (m,))
    end = frozen_flow(variational(z), start, certificate, steps)
    return end[..., 0], end[..., 1:]


def jacobian_path_strichartz(
    fields: list[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
) -> tuple[SamplePath, JacobianPath]:
    """(y, J, J^{-1}) at every grid time: the tangent flows of exp(Z_t) and exp(-Z_t) at every
    prefix signature, each as one batch.  At t = 0, psi = 0 and the flows give a and I exactly.

    ``steps`` is used only when the bracket stack has no certificate (RK4).
    """
    family = FieldFamily.of(fields)
    a = family.initial(a)
    levels = [lvl[:, 0] for lvl in batch_signature_levels(p.values[None], n - 1, prefixes=True)]
    psi = build_Z_batch(family, levels, n)
    stack = family.bracket_stack(n)
    start = np.broadcast_to(a[:, None], (family.m, p.grid.n_points))
    end, J = _tangent_flow(stack.weighted(psi), start, stack.certificate, steps)
    J_inv = _tangent_flow(stack.weighted(-psi), end, stack.certificate, steps)[1]
    jacobian = JacobianPath(grid=p.grid, J=J.transpose(1, 0, 2).copy(), J_inv=J_inv.transpose(1, 0, 2).copy())
    return SamplePath(grid=p.grid, values=end.T.copy(), hurst=None), jacobian


# ---------------------------------------------------------------------------
# Malliavin derivatives
# ---------------------------------------------------------------------------


def split_signatures(p: SamplePath, k_t: int, level: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Signatures over [0, u] and over [u, t] for every grid u <= t = t_{k_t}, to ``level``.

    Level k of each is (k_t + 1, d, ..., d), row i for u = t_i.  The prefixes come
    from ``batch_signature_levels``; the suffixes from Chen's identity
    S_{0t} = S_{0u} (x) S_{ut} solved level by level for the right factor,

        S^k_{ut} = S^k_{0t} - S^k_{0u} - sum_{i=1}^{k-1} S^i_{0u} (x) S^{k-i}_{ut},

    which at level 2 is B^2_{ut} = B^2_{0t} - B^2_{0u} - B^1_{0u} (x) B^1_{ut}, and
    exactly zero at u = t.
    """
    prefixes = [lvl[:, 0] for lvl in batch_signature_levels(p.values[None, : k_t + 1], level, prefixes=True)]
    rows = k_t + 1
    pre = [lvl.reshape(rows, -1) for lvl in prefixes]
    suf: list[np.ndarray] = []
    for k in range(1, level + 1):
        total = pre[k - 1][-1] - pre[k - 1]
        for i in range(1, k):
            total -= (pre[i - 1][:, :, None] * suf[k - i - 1][:, None, :]).reshape(rows, -1)
        suf.append(total)
    return prefixes, [s.reshape(lvl.shape) for s, lvl in zip(suf, prefixes)]


def d_psi(prefixes: list[np.ndarray], suffixes: list[np.ndarray], words: list) -> np.ndarray:
    """D^j_u psi_t^w for each word at every tabulated u: (len(words), n_u, d).

    The tables are those of ``split_signatures``.  Each permuted entry
    B^{k, v}_{0t} of the sum that ``psi_batch`` takes adds, at every position l,
    its prefix B^{l-1, v_1..v_{l-1}}_{0u} times its suffix B^{k-l, v_{l+1}..v_k}_{ut}
    at j = v_l, the empty word counting 1.
    """

    def entry(table: list[np.ndarray], letters: tuple[int, ...]):
        return table[len(letters) - 1][(slice(None),) + letters] if letters else 1.0

    out = np.zeros((len(words),) + prefixes[0].shape)
    for q, word in enumerate(words):
        w = tuple(int(i) - 1 for i in word)
        for tau, coeff in _psi_terms(len(w)):
            v = tuple(w[a - 1] for a in tau)
            for l, j in enumerate(v):
                out[q, :, j] += coeff * entry(prefixes, v[:l]) * entry(suffixes, v[l + 1 :])
    return out


def malliavin_derivative(
    fields: list[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    t: float,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
) -> MalliavinSlice:
    """D_u y_t for every grid u: the bracket columns E_t of the forced variational
    flow of Z_t, contracted with D_u psi_t.

    Exact up to rounding when the bracket stack has a certificate; otherwise
    RK4 with ``steps`` steps, which is linear in the forcing, so the
    contraction factors it the same way.  Requires an n-nilpotent family,
    checked before the t = 0 return, where no psi is built.
    """
    family = FieldFamily.of(fields)
    family.require_nilpotent(n)
    m, d = family.m, family.d
    a = family.initial(a)
    grid = p.grid
    k_t = grid.index_of(t)
    values = np.zeros((grid.n_points, m, d))
    if k_t == 0:
        return MalliavinSlice(grid=grid, t=t, values=values)

    prefixes, suffixes = split_signatures(p, k_t, n - 1)
    psi = build_Z_batch(family, [lvl[k_t:] for lvl in prefixes], n)[:, 0]
    stack = family.bracket_stack(n)
    # Column 0 of the state is phi, column 1 + w the derivative along psi^w, forced by V_w.
    start = np.zeros((m, 1 + len(psi)))
    start[:, 0] = a
    state = frozen_flow(variational(stack.weighted(psi), stack), start, stack.certificate, steps)
    # D_u y_t = 0 for u >= t (adaptedness).
    values[:k_t] = np.einsum("iw,wuj->uij", state[:, 1:], d_psi(prefixes, suffixes, list(family.brackets(n)))[:, :k_t])
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
    # Only [0, t] is read, so the Jacobian flow runs on that prefix (a grid needs 2 points).
    k = max(k_t, 1)
    head = TimeGrid(grid.times[k], k + 1)
    ypath, jac = jacobian_path_strichartz(family, SamplePath(head, p.values[: k + 1]), a, n, steps)
    carry = jac.J[k_t] @ jac.J_inv[:k_t]
    v = np.stack([f(ypath.values[:k_t]) for f in family.fields], -1)  # (k_t, m, d)
    values[:k_t] = np.einsum("kab,kbj->kaj", carry, v)
    return MalliavinSlice(grid=grid, t=t, values=values)
