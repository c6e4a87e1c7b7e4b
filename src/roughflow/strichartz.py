"""Nilpotent flow representation: permutation functionals and the exp flow.

For n-nilpotent driving fields the solution of dy = V_i(y) dx^i at time t
is the time-1 flow of a single frozen vector field,

    y_t = [exp(Z_t)](a),
    Z_t = sum_{k=1}^{n-1} sum_{words w of length k} V_w psi_t^w,

where V_w is the left-nested bracket of the driving fields along w and the
scalar functionals combine signature entries over all permutations,

    psi_t^{i_1..i_k} = sum_{sigma in S_k} (-1)^{e(sigma)}
                       / (k^2 binom(k-1, e(sigma)))
                       * B^{k, i_{tau(1)}, ..., i_{tau(k)}}_{0t},

with tau the inverse permutation and e(sigma) the descent count.  The
permutation sum is enumerated literally (k <= 5 keeps it tiny).  The
exponential flow integrates dPsi/ds = Z(Psi) on [0, 1] for a batch of
paths at once, on the bracket stack and flow certificate that the family
keeps; ``strichartz_solve`` is its batch of one.  ``frozen_flow`` reads
the family's certificate at order n: when the brackets' dependency graph is
acyclic (triangular fields, Yamato's family among them) the flow is a
polynomial in s of known degree D, and L Picard steps on max(1, ceil(D / 2))
Gauss-Legendre nodes (the last one at s = 1 only) give it exactly up to
rounding; other families run fixed-step RK4.  ``variational`` adds the
tangent columns of the same flow, from which ``flows`` reads the Jacobian
and the Malliavin derivative.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, DomainError
from .fbm import SamplePath
from .liefields import CompiledField, FieldFamily, PolyVectorField
from .signature import Word, batch_signature_levels

DEFAULT_FLOW_STEPS = 256


def descent_count(sigma: Sequence[int]) -> int:
    """Number of descents of a permutation of {1..k}, one-line notation."""
    s = tuple(int(x) for x in sigma)
    if sorted(s) != list(range(1, len(s) + 1)):
        raise DomainError(f"{sigma} is not a permutation of 1..{len(s)}")
    return sum(1 for a, b in zip(s[:-1], s[1:]) if a > b)


@lru_cache(maxsize=None)
def _psi_terms(k: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Pairs (tau, coefficient) over S_k, tau = sigma^{-1}."""
    out = []
    for sigma in permutations(range(1, k + 1)):
        e = descent_count(sigma)
        coeff = (-1.0) ** e / (k**2 * math.comb(k - 1, e))
        tau = tuple(sigma.index(a) + 1 for a in range(1, k + 1))
        out.append((tau, coeff))
    return tuple(out)


def rk4(rhs: Callable, y0, steps: int) -> np.ndarray:
    """Classical RK4 for the autonomous flow on s in [0, 1] of an array state."""
    y = np.array(y0, dtype=float)
    h = 1.0 / steps
    for n in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise BlowUpError("RK4 flow state became non-finite", when=(n + 1) * h)
    return y


def psi_batch(levels: list[np.ndarray], word: Word) -> np.ndarray:
    """psi^w for a batch of signatures (levels[k-1]: (n_paths, d, ..., d))."""
    w = tuple(int(i) for i in word)
    k = len(w)
    out = 0.0
    lvl = levels[k - 1]
    for tau, coeff in _psi_terms(k):
        idx = tuple(w[tau[a] - 1] - 1 for a in range(k))
        out += coeff * lvl[(slice(None),) + idx]
    return out


def build_Z_batch(
    fields: Sequence[PolyVectorField] | FieldFamily,
    levels: list[np.ndarray],
    n: int,
) -> np.ndarray:
    """psi^w per path for each bracket of ``FieldFamily.brackets(n)``, in its order.

    ``levels`` (as from ``batch_signature_levels``) reach level n - 1 over the
    fields' alphabet.  Returns (n_brackets, n_paths), the weights that
    ``exp_flow_batch`` puts on the family's bracket stack; a family with no
    nonzero bracket gives no rows.
    """
    family = FieldFamily.of(fields)
    if n < 2:
        raise DomainError(f"nilpotency order must be >= 2, got {n}")
    if len(levels) < n - 1:
        raise DomainError(f"need signature level >= {n - 1}, have {len(levels)}")
    if levels[0].shape[1] != family.d:
        raise DomainError(f"{family.d} fields for alphabet size {levels[0].shape[1]}")
    family.require_nilpotent(n)
    words = family.brackets(n)
    return np.array([psi_batch(levels, w) for w in words]).reshape(len(words), levels[0].shape[0])


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and integration matrix W of the n Gauss-Legendre nodes s_k on [0, 1].

    W[l, k] is the integral over [0, s_l] of the k-th Lagrange basis polynomial
    on the nodes, so W f(s) integrates any f of degree < n exactly, and w f(s)
    does so over [0, 1].  The nodes come from ``leggauss``; W is built in the
    Legendre basis (``legint``), since a Vandermonde inverse on the nodes loses
    six digits near n = 15.
    """
    # Imported here, on the first certified flow, to keep numpy.polynomial off the CLI's import.
    from numpy.polynomial.legendre import leggauss, legint, legval, legvander

    x, weights = leggauss(n)
    w = weights / 2
    # Lagrange basis k = w_k sum_j (2j + 1) P_j(x_k) P_j on [-1, 1]; s = (x + 1) / 2.
    lagrange = (2 * np.arange(n) + 1)[:, None] * legvander(x, n - 1).T * w
    integrals = 0.5 * legval(x, legint(lagrange, lbnd=-1)).T
    w.flags.writeable = integrals.flags.writeable = False
    return w, integrals


def gauss_nodes(degree: int) -> int:
    """Gauss-Legendre nodes that make ``polynomial_flow`` exact for flows of degree ``degree``."""
    return max(1, -(-degree // 2))


def polynomial_flow(z: Callable, y0: np.ndarray, degree: int, depth: int) -> np.ndarray:
    """Time-1 flow of z from y0 (m, *batch) when it is a polynomial of degree <= ``degree`` in s.

    With ``degree`` and ``depth`` from ``liefields.flow_certificate``, Picard step
    k is exact on every component whose dependency chain has at most k
    components.  The first depth - 1 steps run on the n = ``gauss_nodes(degree)``
    Gauss-Legendre nodes, y(s_l) <- y0 + sum_k W[l, k] z(y(s_k)), with the node
    axis inserted after the component axis, (m, n, *batch), for z a compiled field
    or a ``variational`` slope; the last is needed at s = 1 only:
    y(1) = y0 + sum_l w_l z(y(s_l)).

    n = ceil(D / 2) nodes suffice although a component that z reads may have
    degree above n: every such component has a shorter chain, so after depth - 1
    steps the node values solve the n-node Gauss collocation equations, and y(1)
    is the Gauss-Legendre Runge-Kutta step, of order 2n.  Its B-series matches the
    flow's on every tree of order <= 2n, and for these fields every elementary
    differential of order above D vanishes (a tree rooted at component i is
    nonzero only if its order is at most D_i), so the step is exact.
    """
    nodes = gauss_nodes(degree)
    w, integrals = _gauss_legendre(nodes)

    def quadrature(matrix: np.ndarray, zs: np.ndarray) -> np.ndarray:
        # sum_k matrix[:, k] zs[:, k] elementwise, not through BLAS, so that
        # each path's value does not depend on the batch it is in.
        column = (slice(None),) + (None,) * (zs.ndim - 2)
        total = matrix[:, 0][column] * zs[:, None, 0]
        for k in range(1, nodes):
            total += matrix[:, k][column] * zs[:, None, k]
        return total

    start = y0[:, None]
    ys = np.broadcast_to(start, (y0.shape[0], nodes) + y0.shape[1:])
    for _ in range(depth - 1):
        ys = start + quadrature(integrals, z(ys))
    y1 = y0 + quadrature(w[None], z(ys))[:, 0]
    if not np.all(np.isfinite(y1)):
        raise BlowUpError("polynomial flow state became non-finite", when=1.0)
    return y1


def exp_flow_batch(
    fields: Sequence[PolyVectorField] | FieldFamily,
    n: int,
    psi: np.ndarray,
    a: np.ndarray,
    steps: int = DEFAULT_FLOW_STEPS,
) -> np.ndarray:
    """Batched [exp(Z)](a) with Z = sum_w psi^w V_w over ``brackets(n)``; a is (m,) or (n_paths, m).

    ``psi`` is (n_brackets, n_paths), as from ``build_Z_batch``.  The family's
    kept bracket stack is summed once into per-path coefficients
    C[pair, path] = sum_w psi^w[path] coef_w[pair], and the state is
    component-major (m, n_paths).  When the family has a flow certificate at
    order n (the one ``flow_route`` records), the flow is a polynomial in s for
    every weighting and ``polynomial_flow`` gives it exactly up to rounding;
    otherwise RK4 runs ``steps`` steps, the only use of ``steps``.
    """
    family = FieldFamily.of(fields)
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != len(family.brackets(n)):
        raise DomainError(f"psi must be ({len(family.brackets(n))}, n_paths), got {psi.shape}")
    a = np.asarray(a, dtype=float)
    if a.shape not in ((family.m,), (psi.shape[1], family.m)):
        raise DomainError(f"a must be shape ({family.m},) or ({psi.shape[1]}, {family.m}), got {a.shape}")
    y0 = np.broadcast_to(a, (psi.shape[1], family.m)).T
    if not psi.shape[0]:
        # No bracket: Z_t = 0, and the flow is the identity.
        return y0.T.copy()
    return frozen_flow(family.bracket_stack(n).weighted(psi), y0, family.flow_certificate(n), steps).T


def frozen_flow(z: Callable, y0: np.ndarray, certificate: tuple[int, int] | None, steps: int) -> np.ndarray:
    """Time-1 flow of the slope z from y0 (m, *batch): ``polynomial_flow`` under a flow
    certificate, else RK4 with ``steps`` steps; overflow raises BlowUpError, unwarned.

    ``steps`` must be >= 1 on either route, so that its check does not depend on the family.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    with np.errstate(over="ignore", invalid="ignore"):
        if certificate is None:
            return rk4(z, y0, steps)
        return polynomial_flow(z, y0, *certificate)


def variational(z: CompiledField, forcing: CompiledField | None = None) -> Callable:
    """Slope of the state [phi, D_1, ..., D_k] (m, *batch, 1 + k): phi' = z(phi) and
    D_c' = grad z(phi) D_c + F_c(phi), F_c the c-th field of ``forcing``'s last axis.

    From (a, I) the columns end at D exp(z)(a).  When z and the forcing weight one
    stack, D_c^i reads what phi^i reads, with no higher degree in s, so the stack's
    flow certificate covers the whole state.
    """

    def slope(state: np.ndarray) -> np.ndarray:
        phi = state[..., 0]
        out = np.empty(state.shape)
        out[..., 0] = z(phi)
        out[..., 1:] = np.einsum("il...,l...c->i...c", z.jacobian(phi), state[..., 1:])
        if forcing is not None:
            out[..., 1:] += forcing(phi[..., None])
        return out

    return slope


def strichartz_solve(
    fields: Sequence[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    t: float,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
) -> np.ndarray:
    """Solution at time t via the nilpotent flow representation: ``exp_flow_batch`` on a batch of one.

    Exact in the piecewise-linear driver up to rounding when the brackets carry
    a flow certificate; otherwise up to the RK4 error of ``steps`` steps.
    """
    family = FieldFamily.of(fields)
    levels = batch_signature_levels(p.values[None, : p.grid.index_of(t) + 1], n - 1)
    return exp_flow_batch(family, n, build_Z_batch(family, levels, n), a, steps)[0]


def flow_route(family: FieldFamily, n: int, steps: int) -> dict:
    """The route ``frozen_flow`` takes for the Z_t of ``family`` at order n (in ``exp_flow_batch``
    and the tangent flows of ``flows``), as a run record."""
    certificate = family.flow_certificate(n)
    if certificate is None:
        return {"route": "rk4", "steps": steps}
    degree, depth = certificate
    return {"route": "polynomial", "degree": degree, "depth": depth, "nodes": gauss_nodes(degree)}
