"""Reference routines that only the tests use.

Each is the slow or per-call form of something the package computes
another way, kept here as that route's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

import numpy as np
from hypothesis import strategies as st

from roughflow.controlled import ControlledPath, RoughDriver, rde_solve_batch
from roughflow.errors import DomainError, RoughflowError
from roughflow.fbm import HurstParam, SamplePath, TimeGrid, sample_fbm_array
from roughflow import flows
from roughflow.flows import JacobianPath, MalliavinSlice, jacobian_path_strichartz, split_signatures
from roughflow.increments import Increment1, Increment2, Increment3, _mag, _pair_indices, delta1, holder_norm, sewing, triples
from roughflow.norris import TwoScale, _path_norms, alpha_matrix
from roughflow.liefields import (
    CompiledField,
    FieldFamily,
    Polynomial,
    PolyVectorField,
    bracket,
    parse_field_file,
    parse_polynomial,
)
from roughflow.signature import (
    IteratedIntegrals,
    Word,
    batch_signature_levels,
    chen_concat,
    path_signature,
)
from roughflow.strichartz import DEFAULT_FLOW_STEPS, _psi_terms, build_Z_batch, exp_flow_batch, psi_batch


class ConvergenceError(RoughflowError):
    """A refinement sequence of ``rough_integral`` did not stabilize within the allowed depth."""


def flow_certificate(fields) -> tuple[int, int] | None:
    """Degree bound and Picard depth of the flow of every weighted sum of ``fields``, or None
    when some component reads itself through a chain of components.

    The oracle of ``CompiledField.stack``'s certificate, by memoised recursion along
    the graph "component i reads x_j" instead of a level walk: the degree of
    component i is 1 + max over its monomials e of sum_j e_j deg_j (0 with no
    monomial), its depth 1 + the largest depth of a component it reads.
    """
    monomials = [set().union(*(fld.components[i].terms for fld in fields)) for i in range(fields[0].m)] if fields else []
    memo: dict[int, tuple[int, int] | None] = {}

    def visit(i: int) -> tuple[int, int] | None:
        if i in memo:
            return memo[i]
        memo[i] = None  # i is on the current chain: reaching it again closes a cycle
        below = {j: visit(j) for e in monomials[i] for j, p in enumerate(e) if p}
        if None in below.values():
            return None
        degree = max((1 + sum(p * below[j][0] for j, p in enumerate(e) if p) for e in monomials[i]), default=0)
        memo[i] = (degree, 1 + max((depth for _, depth in below.values()), default=0))
        return memo[i]

    found = [visit(i) for i in range(len(monomials))]
    if None in found:
        return None
    return max([1, *(degree for degree, _ in found)]), max([1, *(depth for _, depth in found)])


def psi(sig: IteratedIntegrals, word: Word) -> float:
    """Permutation functional psi^w of one signature over [0, t], entry by entry.

    The per-path oracle of ``strichartz.psi_batch``.
    """
    w = tuple(int(i) for i in word)
    k = len(w)
    if k > sig.level:
        raise DomainError(f"word {word} needs signature level {k}, have {sig.level}")
    total = 0.0
    for tau, coeff in _psi_terms(k):
        permuted = tuple(w[tau[a] - 1] for a in range(k))
        total += coeff * sig.value(permuted)
    return total


def frozen_field(fields, sig: IteratedIntegrals, n: int) -> CompiledField:
    """Z_t = sum_w psi^w V_w of one signature, weighted by the oracle ``psi``."""
    family = FieldFamily.of(fields)
    brackets = family.brackets(n)
    return CompiledField.stack(list(brackets.values()), family.m).weighted([psi(sig, w) for w in brackets])


def gauss_legendre_golub_welsch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and integration matrix W of the n Gauss-Legendre nodes on [0, 1],
    nodes by Golub-Welsch (``np.linalg.eigh``): the oracle of ``strichartz._gauss_legendre``.

    W is built in the Legendre basis, with the integral of P_j from -1 to x equal
    to (P_{j+1}(x) - P_{j-1}(x)) / (2j + 1).
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = vectors[0] ** 2
    legendre = np.ones((n + 1, n))
    legendre[1] = x
    for j in range(1, n):
        legendre[j + 1] = ((2 * j + 1) * x * legendre[j] - j * legendre[j - 1]) / (j + 1)
    # Lagrange basis k = w_k sum_j (2j + 1) P_j(x_k) P_j on [-1, 1]; s = (x + 1) / 2.
    antiderivatives = np.vstack([x + 1.0, legendre[2:] - legendre[:-2]])
    return w, 0.5 * (antiderivatives.T @ legendre[:n]) * w


def rk4_joint(rhs, y0: tuple, steps: int) -> tuple:
    """Classical RK4 on s in [0, 1] for a tuple of arrays advanced jointly; ``rhs``
    maps a tuple to a tuple.  The step of ``strichartz.rk4``, one array per entry."""
    y = tuple(np.array(s, dtype=float) for s in y0)
    h = 1.0 / steps

    def shift(c: float, k: tuple) -> tuple:
        return tuple(s + c * d for s, d in zip(y, k))

    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(shift(0.5 * h, k1))
        k3 = rhs(shift(0.5 * h, k2))
        k4 = rhs(shift(h, k3))
        y = tuple(s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(y, k1, k2, k3, k4))
    return y


def flow_with_jacobians(z: CompiledField, a: np.ndarray, steps: int):
    """RK4 of (phi, Jtilde, Jbar) along compiled frozen fields on s in [0, 1].

    Jtilde' = grad Z(phi) Jtilde and Jbar' = -Jbar grad Z(phi): the per-field
    variational flow, the RK4 oracle of ``flows.jacobian_path_strichartz``.
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
    phi, J, Jb = rk4_joint(rhs, (np.broadcast_to(np.asarray(a, dtype=float), K + (m,)).T, eye, eye), steps)
    return phi.T, J, Jb


def jacobian_path_rk4(fields, p, a, n, steps=DEFAULT_FLOW_STEPS):
    """(y, J, J^{-1}) at every grid time by per-prefix frozen fields and ``flow_with_jacobians``.

    The oracle of ``flows.jacobian_path_strichartz``, which reads J^{-1} from the
    backward flow of -Z_t instead; rows are grid times, row 0 the start.
    """
    family = FieldFamily.of(fields)
    m, k_max = family.m, p.grid.n_points - 1
    prefixes = prefix_signatures(p, k_max, n - 1)
    words = list(family.brackets(n))
    psi_mat = np.array([[psi(prefixes[k], w) for w in words] for k in range(1, k_max + 1)])
    phi, J, Jb = flow_with_jacobians(family.bracket_stack(n).weighted(psi_mat.T), a, steps)
    eye = np.eye(m)[None]
    return np.vstack([np.asarray(a, dtype=float)[None], phi]), np.vstack([eye, J]), np.vstack([eye, Jb])


def malliavin_derivative_steps(fields, p: SamplePath, a, t: float, n: int, steps=DEFAULT_FLOW_STEPS) -> MalliavinSlice:
    """D_u y_t by the forced variational flow, one joint RK4 step of (phi, D) at a time.

    The oracle of ``flows.malliavin_derivative``, which flows the same state as
    one ``strichartz.variational`` slope on ``frozen_flow``'s route.
    """
    family = FieldFamily.of(fields)
    m, d = family.m, family.d
    a = family.initial(a)
    k_t = p.grid.index_of(t)
    values = np.zeros((p.grid.n_points, m, d))
    words = list(family.brackets(n))
    if k_t == 0:
        return MalliavinSlice(grid=p.grid, t=t, values=values)
    prefixes, suffixes = split_signatures(p, k_t, n - 1)
    stack = family.bracket_stack(n)
    psi_t = np.array([psi_batch([lvl[k_t:] for lvl in prefixes], w)[0] for w in words])
    weights = flows.d_psi(prefixes, suffixes, words)[:, :k_t].reshape(len(words), k_t * d)

    # Each stage evaluates the brackets V_w(phi) once; Z_t and the forcing are their psi and D psi sums.
    def rhs(state):
        phi_s, D_s = state
        v = stack(phi_s)  # (m, n_words)
        forcing = (v @ weights).reshape(m, k_t, d).transpose(1, 0, 2)
        return v @ psi_t, np.matmul(stack.jacobian(phi_s) @ psi_t, D_s) + forcing

    _, values[:k_t] = rk4_joint(rhs, (a, np.zeros((k_t, m, d))), steps)
    return MalliavinSlice(grid=p.grid, t=t, values=values)


def davie_chen(fields, a: np.ndarray, driver) -> np.ndarray:
    """Davie steps on a ``RoughDriver``, one path: (n_points, m).

    The per-path oracle of ``controlled.rde_solve_batch``: each step's area is
    read from the driver's Chen-prefix table (``b2``), not formed
    as dv (x) dv / 2, and the stack is evaluated before it is contracted.
    """
    family = FieldFamily.of(fields)
    d, n = family.d, driver.grid.n_points
    stack = family.davie_stack
    lo, hi = np.arange(n - 1), np.arange(1, n)
    weights = np.concatenate([b1(driver, lo, hi), b2(driver, lo, hi).reshape(n - 1, d * d)], axis=1)
    y = np.empty((n, family.m))
    y[0] = a
    for k in range(n - 1):
        y[k + 1] = y[k] + stack(y[k]) @ weights[k]
    return y


def davie_path_major(fields, a: np.ndarray, grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """The Davie step loop on a path-major state (*batch, n_points, m), one Python step per grid step.

    The oracle of ``controlled.rde_solve_batch``'s level-by-level blocks: each
    step contracts the stack's coefficients with that step's weights, sums
    coefficient times monomial per pair from zeros, and adds the sum to the
    strided row y[..., k, :], transposed to component-major for the stack.
    It does not stop at a non-finite state.
    """
    family = FieldFamily.of(fields)
    d, m = family.d, family.m
    values = np.asarray(values, dtype=float)
    stack = family.davie_stack
    y = np.empty(values.shape[:-1] + (m,))
    y[..., 0, :] = a
    for k in range(grid.n_points - 1):
        dv = (values[..., k + 1, :] - values[..., k, :]).T
        area = 0.5 * dv[:, None] * dv[None, :]
        weights = np.concatenate([dv, area.reshape((d * d,) + dv.shape[1:])])
        coef = stack.contract(weights)
        x = y[..., k, :].T
        mono = stack.monomials(x)
        inc = np.zeros(x.shape)
        for (i, q), c in zip(stack.pairs, coef):
            inc[i] += c if mono[q] is None else c * mono[q]
        y[..., k + 1, :] = y[..., k, :] + inc.T
    return y


def levy_area(p: SamplePath, s: float, t: float) -> np.ndarray:
    """Level-2 signature table as a d x d matrix B^2_{st}, from ``path_signature``."""
    return path_signature(p, s, t, 2).levels[1]


def yamato_explicit(p: SamplePath, initial, t: float) -> np.ndarray:
    """Explicit solution of Yamato's example system along one lifted driver.

    The per-path oracle of ``densitylab.yamato_explicit_batch``: its area
    comes from the signature engine, not from the batch formula's segment loop.
    """
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


def sheared_yamato() -> list[PolyVectorField]:
    """Yamato's fields in u = (x1 - x3, x2, x3): still 3-nilpotent with constant
    brackets, but u1's component depends on u1, so there is no flow certificate."""

    def field(*components):
        return PolyVectorField(tuple(parse_polynomial(c, 3) for c in components))

    return [PolyVectorField.zero(3), field("1 - 2*x2", "0", "2*x2"), field("2*x1 + 2*x3", "1", "-2*x1 - 2*x3")]


def chain_family():
    """V1 = d1, V2 = x1 d2 + x2 d3: [V1, V2] = d2, [[V1, V2], V2] = d3 and every
    order-4 bracket vanishes, so it is 4-nilpotent with constant brackets and its
    flows read the level-3 signature."""
    return [
        PolyVectorField(tuple(parse_polynomial(c, 3) for c in ("1", "0", "0"))),
        PolyVectorField(tuple(parse_polynomial(c, 3) for c in ("0", "x1", "x2"))),
    ]


#: V1 = d1, V2 = x1^2 d2 as a field file: [V1, V2] = 2 x1 d2 is not constant,
#: [V1, [V1, V2]] = 2 d2 is, and every order-4 bracket vanishes, so it is 4-nilpotent
#: and outside the paper's constant-bracket hypothesis.
QUADRATIC_SHEAR_FILE = "2 2\n1\n0\n0\nx1^2\n"


def quadratic_shear() -> list[PolyVectorField]:
    return parse_field_file(QUADRATIC_SHEAR_FILE)


def ode_endpoints(fields, p: SamplePath, starts, substeps: int) -> np.ndarray:
    """y_T of dy = V_j(y) dx^j along the piecewise-linear interpolation of p, from each
    of the starts (k, m): classical RK4 with ``substeps`` steps per grid segment.

    No signature, bracket or Strichartz code is involved, so it is the ODE oracle of
    the flow routes for any polynomial fields, nilpotent or not.
    """
    stack = CompiledField.stack(list(fields), fields[0].m)
    y = np.asarray(starts, dtype=float).T
    for dx in np.diff(p.values, axis=0):
        segment = stack.weighted(dx)
        (y,) = rk4_joint(lambda state: (segment(state[0]),), (y,), substeps)
    return y.T


@st.composite
def triangular_families(draw):
    """Polynomial fields on R^m, m <= 4, whose components depend only on earlier
    components of a random order, with monomials of total degree <= 2; the flow
    degree bound reaches 1, 3, 7, 15 along a chain of four."""
    m = draw(st.integers(1, 4))
    order = draw(st.permutations(range(m)))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        components = [{} for _ in range(m)]
        for rank, i in enumerate(order):
            for _ in range(draw(st.integers(0, 3))):
                exponent = [0] * m
                if rank:
                    for _ in range(draw(st.integers(0, 2))):
                        exponent[draw(st.sampled_from(order[:rank]))] += 1
                coeff = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 4)))
                components[i][tuple(exponent)] = coeff
        fields.append(PolyVectorField(tuple(Polynomial(m, c) for c in components)))
    return fields


def jacobian_flow_strichartz(fields, p, a, t, n, steps=DEFAULT_FLOW_STEPS):
    """(J_{0,t}, J_{0,t}^{-1}) by the variational flow along exp(Z_t).

    The per-time oracle of ``flows.jacobian_path_strichartz``.
    """
    family = FieldFamily.of(fields)
    family.require_nilpotent(n)
    if t == 0.0:
        return np.eye(family.m), np.eye(family.m)
    _, J, Jb = flow_with_jacobians(frozen_field(family, path_signature(p, 0.0, t, n - 1), n), a, steps)
    return J, Jb


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


def triple_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All strict triples i < u < j, rebuilt on every call.

    The per-call table that ``increments.triples`` replaced with one table
    per grid; same order.
    """
    i, j = np.triu_indices(n, k=2)
    counts = j - i - 1
    ii = np.repeat(i, counts)
    jj = np.repeat(j, counts)
    starts = np.cumsum(counts) - counts
    uu = np.arange(len(ii)) - np.repeat(starts, counts) + ii + 1
    return ii, uu, jj


def increment3_of(grid: TimeGrid, ev) -> Increment3:
    """The 3-increment whose value at (i, u, j) is ``ev(i, u, j)``, evaluated on the grid's triple table."""
    tab = triples(grid)
    return Increment3(grid, ev(tab.i, tab.u, tab.j))


def delta2_fancy(h: Increment2, i, u, j) -> np.ndarray:
    """(delta h)_{iuj} by 2-D fancy indexing: the oracle of the flat gathers of ``delta2``."""
    v = h.values
    return v[i, j, ...] - v[i, u, ...] - v[u, j, ...]


def holder_norm_c3_per_call(times, i, u, j, values, gamma: float, rho: float) -> float:
    """``holder_norm_c3`` of the values h_{iuj} on index arrays, the split weights rebuilt per call."""
    mags = _mag(np.asarray(values, dtype=float), 1)
    return float(np.max(mags / ((times[u] - times[i]) ** gamma * (times[j] - times[u]) ** rho)))


def product_rule_defect(g: Increment2, h: Increment1) -> float:
    """Max defect of the Leibniz rule for delta on a C2 x C1 product.

    With the product convention (gh)_{st} = g_{st} h_t and the sign
    conventions of ``increments.delta1``/``delta2``, the exact identity is

        delta(gh)_{sut} = (delta g)_{sut} h_t + g_{su} (delta h)_{ut},

    so the returned maximum over grid triples is zero up to rounding.
    """
    gv, hv = g.values, h.values
    if gv.ndim >= 3 and hv.ndim >= 2:
        if gv.shape[-1] != hv.shape[1]:
            raise DomainError(
                f"inner dimensions differ: g has {gv.shape[-1]}, h has {hv.shape[1]}"
            )
        prod = np.einsum("st...d,td->st...", gv, hv)
    elif gv.ndim == 2 and hv.ndim == 1:
        prod = gv * hv[None, :]
    else:
        raise DomainError("unsupported shapes for the product convention")
    i, u, j = triple_indices(g.grid.n_points)
    lhs = prod[i, j, ...] - prod[i, u, ...] - prod[u, j, ...]
    if gv.ndim >= 3:
        rhs = (
            np.einsum("k...d,kd->k...", gv[i, j] - gv[i, u] - gv[u, j], hv[j])
            + np.einsum("k...d,kd->k...", gv[i, u], hv[j] - hv[u])
        )
    else:
        rhs = (gv[i, j] - gv[i, u] - gv[u, j]) * hv[j] + gv[i, u] * (hv[j] - hv[u])
    return float(np.max(_mag(lhs - rhs, 1)))


def sewing_trials_per_call(grid_points: int, trials: int, seed: int, mu: float = 1.2) -> list[tuple]:
    """The (trial, norm_ratio, delta_residual) rows of ``sewing-test``, every triple evaluated per call."""
    grid = TimeGrid(1.0, grid_points)
    times = grid.times
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    i, u, j = triple_indices(grid_points)
    rows = []
    for trial in range(trials):
        c = rng.standard_normal(6)
        f = c[0] * np.sin(np.pi * times) + c[1] * times**2 + c[2]
        x = c[3] * np.cos(2 * np.pi * times) + c[4] * times + c[5] * times**3
        germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
        hv = delta2_fancy(germ, i, u, j)
        lam = sewing(Increment3(grid, hv), mu)
        ratio = holder_norm(lam, mu) / holder_norm_c3_per_call(times, i, u, j, hv, mu / 2, mu / 2)
        residual = float(np.max(np.abs(delta2_fancy(lam, i, u, j) - hv)))
        rows.append((trial, ratio, residual))
    return rows


def flow_endpoint_samples_whole(fields, hurst, t, n_paths, seed, n, initial, grid_points=33, steps=128):
    """Endpoint samples with every stage over the whole driver batch at once.

    The oracle of the path-blocked ``densitylab.flow_endpoint_samples``.
    """
    drivers = sample_fbm_array(hurst, TimeGrid(t, grid_points), len(fields), n_paths, seed)
    psi = build_Z_batch(fields, batch_signature_levels(drivers, n - 1), n)
    return exp_flow_batch(fields, n, psi, np.asarray(initial, dtype=float), steps)


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

    The per-segment oracle of ``batch_signature_levels(values, 2, prefixes=True)``
    (path-major here) and so of ``b2_prefix``; its last slice
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


def segment_signature(v: np.ndarray, n: int, s: float = 0.0, t: float = 1.0) -> IteratedIntegrals:
    """Signature of a single linear segment with increment vector ``v``.

    Level k is the tensor power v^{(x) k} / k!: the per-segment factor of the
    Chen folds below.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DomainError("segment increment must be a vector")
    if n < 1:
        raise DomainError(f"truncation level must be >= 1, got {n}")
    levels = []
    current = v.copy()
    for k in range(1, n + 1):
        levels.append(current / math.factorial(k))
        if k < n:
            current = np.multiply.outer(current, v)
    return IteratedIntegrals(s=s, t=t, d=v.shape[0], level=n, levels=levels)


def chen_fold(p: SamplePath, i: int, j: int, level: int) -> IteratedIntegrals:
    """Signature over [t_i, t_j] by one Chen concatenation per segment: the oracle of ``signature.path_signature``."""
    times = p.grid.times
    sig = segment_signature(p.values[i + 1] - p.values[i], level, times[i], times[i + 1])
    for k in range(i + 1, j):
        sig = chen_concat(sig, segment_signature(p.values[k + 1] - p.values[k], level, times[k], times[k + 1]))
    return sig


def prefix_signatures(p: SamplePath, k_max: int, level: int) -> list[IteratedIntegrals | None]:
    """Signatures over [0, t_k] for k = 0..k_max (None at k = 0), one Chen fold per segment.

    With ``suffix_signatures``, the per-segment oracle of ``flows.split_signatures``.
    """
    times = p.grid.times
    out: list[IteratedIntegrals | None] = [None]
    sig = None
    for k in range(k_max):
        seg = segment_signature(p.values[k + 1] - p.values[k], level, times[k], times[k + 1])
        sig = seg if sig is None else chen_concat(sig, seg)
        out.append(sig)
    return out


def suffix_signatures(p: SamplePath, k_max: int, level: int) -> list[IteratedIntegrals | None]:
    """Signatures over [t_k, t_{k_max}] for k = 0..k_max (None at k_max)."""
    times = p.grid.times
    out: list[IteratedIntegrals | None] = [None] * (k_max + 1)
    sig = None
    for k in range(k_max - 1, -1, -1):
        seg = segment_signature(p.values[k + 1] - p.values[k], level, times[k], times[k + 1])
        sig = seg if sig is None else chen_concat(seg, sig)
        out[k] = sig
    return out


def sig_entry(sig: IteratedIntegrals | None, word: Word) -> float:
    """Signature entry with the empty-word and empty-interval conventions."""
    if len(word) == 0:
        return 1.0
    if sig is None:
        return 0.0
    return sig.value(word)


def d_signature_entry(prefix, suffix, word: Word, j: int) -> float:
    """D^j_u B^{k,word}_{0t} via the prefix/suffix splitting at u, one entry."""
    total = 0.0
    for l, letter in enumerate(word):
        if letter == j:
            total += sig_entry(prefix, word[:l]) * sig_entry(suffix, word[l + 1 :])
    return total


def d_psi(prefix, suffix, word: Word, j: int) -> float:
    """D^j_u psi_t^word, by differentiating each permuted signature entry.

    The scalar oracle of ``flows.d_psi``.
    """
    k = len(word)
    total = 0.0
    for tau, coeff in _psi_terms(k):
        permuted = tuple(word[tau[a] - 1] for a in range(k))
        total += coeff * d_signature_entry(prefix, suffix, permuted, j)
    return total


def augmented_jacobian_fields(fields) -> list[PolyVectorField]:
    """Driving fields of the joint (y, J, J^{-1}) system on R^{m + 2 m^2}.

    Variable layout: y occupies the first m slots, J the next m^2
    (row-major), J^{-1} the last m^2.  All components stay polynomial, so
    the Davie scheme and the frozen flows apply unchanged: the oracle of the
    tangent columns of ``strichartz.variational``.
    """
    m = fields[0].m
    total = m + 2 * m * m

    def j_var(row: int, col: int) -> Polynomial:
        return Polynomial.variable(total, m + row * m + col)

    out = []
    for v in fields:
        jac = jacobian(v)  # jac[i][l] = d_l V^i, polynomials in y
        comps = [c.lift(total) for c in v.components]
        # dJ_{ab} = sum_l d_l V^a J_{lb}
        for a_ in range(m):
            for b_ in range(m):
                acc = Polynomial.zero(total)
                for l in range(m):
                    acc = acc + jac[a_][l].lift(total) * j_var(l, b_)
                comps.append(acc)
        # dJinv = -Jinv grad V, one covector row of J^{-1} at a time
        for a_ in range(m):
            comps += covector_rows(jac, total, m + m * m + a_ * m)
        out.append(PolyVectorField(tuple(comps)))
    return out


def augmented(fields) -> FieldFamily:
    """The family of ``augmented_jacobian_fields`` of a family's fields."""
    return FieldFamily.of(augmented_jacobian_fields(FieldFamily.of(fields).fields))


def split_augmented(grid: TimeGrid, states: np.ndarray, m: int) -> tuple[SamplePath, JacobianPath]:
    """Rows (y, J row-major, J^{-1} row-major) of the augmented system, one per grid time."""
    n = grid.n_points
    J = states[:, m : m + m * m].reshape(n, m, m)
    Jb = states[:, m + m * m :].reshape(n, m, m)
    return SamplePath(grid=grid, values=states[:, :m], hurst=None), JacobianPath(grid=grid, J=J, J_inv=Jb)


def jacobian_flow_rde(fields, driver: RoughDriver, a: np.ndarray) -> tuple[SamplePath, JacobianPath]:
    """One Davie pass over the augmented (y, J, J^{-1}) system.

    The linear-RDE cross-check of ``flows.jacobian_path_strichartz``.
    """
    family = FieldFamily.of(fields)
    eye = np.eye(family.m).ravel()
    state0 = np.concatenate([np.asarray(a, dtype=float), eye, eye])
    states = rde_solve_batch(augmented(family), state0, driver.grid, driver.values)
    return split_augmented(driver.grid, states, family.m)


def z_process(fields, driver: RoughDriver, u_field: PolyVectorField, eta: np.ndarray, a: np.ndarray,
              normalize_eta: bool = True, method: str = "rde", n: int | None = None) -> np.ndarray:
    """Pathwise Z^U_t = <J_{0,t}^{-1} U(y_t), eta> at every grid time, from the full J^{-1}.

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


def z_family(fields, driver, u_fields, eta, a):
    """Z^{U} paths for several U from a single augmented solve: (n, len(U))."""
    eta = np.asarray(eta, dtype=float)
    ypath, jac = jacobian_flow_rde(fields, driver, a)
    cols = []
    for u_field in u_fields:
        u_vals = u_field(ypath.values)
        cols.append(np.einsum("tab,tb,a->t", jac.J_inv, u_vals, eta))
    return np.stack(cols, axis=1)


def dichotomy_norms_augmented(fields, u_field, eta, hurst, n_paths, a=None, horizon=0.01, grid_points=65, seed=0):
    """(y_norms, z_norms) of ``norris_dichotomy_mc`` from the full (y, J, J^{-1}) system.

    The augmented-system oracle of the cotangent lift: J^{-1} is contracted
    with eta and U(y) for each pairing.
    """
    family = FieldFamily.of(fields)
    m = family.m
    a = np.zeros(m) if a is None else np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    eta = eta / np.linalg.norm(eta)
    grid = TimeGrid(horizon, grid_points)
    drivers = sample_fbm_array(hurst, grid, family.d, n_paths, seed)
    eye = np.eye(m).ravel()
    states = rde_solve_batch(augmented(family), np.concatenate([a, eye, eye]), grid, drivers)
    y_sol = states[:, :, :m]
    j_inv = states[:, :, m + m * m :].reshape(n_paths, grid_points, m, m)

    def pairing(field: PolyVectorField) -> np.ndarray:
        vals = field(y_sol.reshape(-1, m)).reshape(n_paths, grid_points, m)
        return np.einsum("ptab,ptb,a->pt", j_inv, vals, eta)

    z_u = pairing(u_field)
    z_paths = np.stack([pairing(bracket(vj, u_field)) for vj in family.fields], axis=2)
    # _path_norms takes time-major paths: (n, P) and (d, n, P).
    return _path_norms((z_u - z_u[:, :1]).T), _path_norms(z_paths.T)


def path_sup_norms(paths: np.ndarray) -> np.ndarray:
    """Sup norm of path-major paths, (P, n) or (P, n, d): the oracle of the time-major ``norris._path_norms``."""
    if paths.ndim == 2:
        paths = paths[:, :, None]
    return np.max(np.linalg.norm(paths, axis=2), axis=1)


def bracket_loop(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """[V, W]^i = V^l d_l W^i - W^l d_l V^i over every (i, l), by polynomial arithmetic.

    The oracle of ``liefields.bracket``, which skips zero and absent terms.
    """
    m = v.m
    comps = []
    for i in range(m):
        acc = Polynomial.zero(m)
        for l in range(m):
            acc = acc + v.components[l] * w.components[i].diff(l)
            acc = acc + -1 * w.components[l] * v.components[i].diff(l)
        comps.append(acc)
    return PolyVectorField(tuple(comps))


def evaluate(poly: Polynomial, x) -> float | np.ndarray:
    """A polynomial at a point (m,) or a batch of points (..., m), term by term in floats.

    The interpreted oracle of the compiled evaluator.
    """
    x = np.asarray(x, dtype=float)
    batch = x.ndim > 1
    out = np.zeros(x.shape[:-1]) if batch else 0.0
    for e, c in poly.terms.items():
        term = float(c)
        for k, p in enumerate(e):
            if p:
                term = term * x[..., k] ** p
        out = out + term
    return out


def jacobian(v: PolyVectorField) -> list[list[Polynomial]]:
    """Matrix of partials J[i][l] = d_l V^i, as polynomials."""
    return [[c.diff(l) for l in range(v.m)] for c in v.components]


def bracket_table(fields, n: int) -> dict[tuple[int, ...], PolyVectorField]:
    """Left-nested brackets V_w for all words up to length n-1, by length, then lexicographic.

    Built from scratch on every call: the per-call oracle of ``FieldFamily.brackets``,
    which grows its kept table one level at a time.
    """
    d = len(fields)
    table: dict[tuple[int, ...], PolyVectorField] = {}
    for i in range(1, d + 1):
        fld = fields[i - 1]
        if not fld.is_zero:
            table[(i,)] = fld
    for k in range(2, n):
        for w in list(table):
            if len(w) != k - 1:
                continue
            for i in range(1, d + 1):
                b = bracket(table[w], fields[i - 1])
                if not b.is_zero:
                    table[w + (i,)] = b
    return table


def is_nilpotent(fields, n: int) -> tuple[bool, tuple[int, ...] | None]:
    """True iff every order-n left-nested bracket vanishes identically, with the first
    violating word as witness: the per-call oracle of ``FieldFamily.nilpotent``."""
    if n < 2:
        raise DomainError(f"nilpotency order must be >= 2, got {n}")
    witness = next((w for w in bracket_table(fields, n + 1) if len(w) == n), None)
    return witness is None, witness


def constant_brackets(fields, up_to: int) -> bool:
    """True iff all brackets of order 2..up_to are constant: the per-call oracle of
    ``FieldFamily.constant_brackets``."""
    if up_to < 2:
        raise DomainError(f"up_to must be >= 2, got {up_to}")
    return all(b.is_constant for w, b in bracket_table(fields, up_to + 1).items() if len(w) >= 2)


def taylor_correction_fields_loop(fields) -> list[list[PolyVectorField]]:
    """W[i][j] = grad V_j . V_i by polynomial arithmetic over the Jacobian of V_j:
    the oracle of ``liefields.taylor_correction_fields``."""
    m = fields[0].m
    out = []
    for vi in fields:
        row = []
        for vj in fields:
            jac = jacobian(vj)
            comps = []
            for a in range(m):
                acc = Polynomial.zero(m)
                for l in range(m):
                    acc = acc + jac[a][l] * vi.components[l]
                comps.append(acc)
            row.append(PolyVectorField(tuple(comps)))
        out.append(row)
    return out


def covector_rows(jac: list[list[Polynomial]], total: int, first: int) -> list[Polynomial]:
    """-(w grad V)_b = -sum_l w_l d_b V^l for b = 1..m, where w_l is variable first + l of R^total."""
    m = len(jac)
    out = []
    for b_ in range(m):
        acc = Polynomial.zero(total)
        for l in range(m):
            acc = acc + Polynomial.variable(total, first + l) * jac[l][b_].lift(total)
        out.append(-acc)
    return out


def cotangent_fields_loop(fields) -> list[PolyVectorField]:
    """The cotangent lift (y, w) on R^{2m} row by row from the Jacobian:
    the oracle of ``liefields.cotangent_fields``."""
    m = fields[0].m
    return [
        PolyVectorField(tuple(c.lift(2 * m) for c in v.components) + tuple(covector_rows(jacobian(v), 2 * m, m)))
        for v in fields
    ]


def field_sum(*fields) -> PolyVectorField:
    """Componentwise sum of fields on one space, for the bracket identities."""
    return PolyVectorField(tuple(sum(cs[1:], cs[0]) for cs in zip(*(f.components for f in fields))))


def iterated_bracket_loop(fields, word) -> PolyVectorField:
    """Left-nested bracket along ``word``, rebuilt from scratch with ``bracket_loop``."""
    acc = fields[word[0] - 1]
    for i in word[1:]:
        acc = bracket_loop(acc, fields[i - 1])
    return acc


def is_nilpotent_loop(fields, n):
    """Every order-n word's bracket from scratch: the oracle of ``liefields.is_nilpotent``."""
    for word in iter_product(range(1, len(fields) + 1), repeat=n):
        if not iterated_bracket_loop(fields, word).is_zero:
            return False, word
    return True, None


def constant_brackets_loop(fields, up_to):
    """The oracle of ``liefields.constant_brackets``."""
    return all(
        iterated_bracket_loop(fields, word).is_constant
        for k in range(2, up_to + 1)
        for word in iter_product(range(1, len(fields) + 1), repeat=k)
    )


# ---------------------------------------------------------------------------
# Hermite polynomials and Isserlis moments: the oracles of ``norris.hermite_moments``
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
# The Volterra kernel: a quadrature route to the fBm covariance
# ---------------------------------------------------------------------------

_QUAD_RTOL = 1e-8


def _kernel_inner_integral(t: float, u: float, H: float) -> float:
    """int_u^t v^{H-3/2} (v-u)^{H-1/2} dv with the endpoint singularity at v=u.

    The algebraic weight (v-u)^{H-1/2} is handled by the QAWS rule, which
    is exact for that factor.
    """
    from scipy.integrate import quad

    val, err = quad(
        lambda v: v ** (H - 1.5), u, t, weight="alg", wvar=(H - 0.5, 0.0), epsrel=_QUAD_RTOL, epsabs=0.0, limit=200
    )
    assert math.isfinite(val) and (abs(val) == 0 or err <= 1e-6 * abs(val) + 1e-12), (
        f"inner kernel integral did not converge at (t={t}, u={u}, H={H}): value={val}, err={err}"
    )
    return val


def kernel_K(t: float, u: float, hurst: HurstParam | float, c_h: float | None = None) -> float:
    """Two-term Volterra kernel K_H(t, u), zero outside 0 < u < t, whose products
    integrate to the covariance: R_H(t, s) = int_0^{s ^ t} K_H(t, r) K_H(s, r) dr.

    ``c_h`` defaults to the calibrated normalization for this H (``calibrate_c``).
    """
    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    if t < 0 or u < 0:
        raise DomainError(f"kernel needs nonnegative times, got (t={t}, u={u})")
    if not 0.0 < u < t:
        return 0.0
    if c_h is None:
        c_h = calibrate_c(H)
    head = (u / t) ** (0.5 - H) * (t - u) ** (H - 0.5)
    tail = (0.5 - H) * u ** (0.5 - H) * _kernel_inner_integral(t, u, H)
    return c_h * (head + tail)


@lru_cache(maxsize=None)
def calibrate_c(H: float) -> float:
    """Kernel constant fixed by int_0^1 K_H(1,r)^2 dr = 1, by quadrature.

    This pins the kernel to reproduce R_H on the diagonal at t=1 (and hence
    everywhere, by scaling); the tests check it against the closed form
    c_H = sqrt(2H / ((1-2H) B(1-2H, H+1/2))).
    """
    from scipy.integrate import quad

    raw, err = quad(
        lambda r: kernel_K(1.0, r, H, c_h=1.0) ** 2, 0.0, 1.0, epsrel=_QUAD_RTOL, epsabs=0.0, limit=400, points=[0.0, 1.0]
    )
    assert math.isfinite(raw) and raw > 0 and err <= 1e-5 * raw, (
        f"kernel calibration integral did not converge for H={H}: value={raw}, err={err}"
    )
    return 1.0 / math.sqrt(raw)


def kernel_covariance(s: float, t: float, hurst: HurstParam | float) -> float:
    """int_0^{s^t} K(t,r) K(s,r) dr, the kernel route to the covariance."""
    from scipy.integrate import quad

    H = hurst.value if isinstance(hurst, HurstParam) else float(hurst)
    lo = min(s, t)
    if lo <= 0:
        return 0.0
    val, _ = quad(
        lambda r: kernel_K(t, r, H) * kernel_K(s, r, H), 0.0, lo, epsrel=1e-6, epsabs=0.0, limit=400, points=[0.0, lo]
    )
    assert math.isfinite(val), f"kernel covariance quadrature failed at (s={s}, t={t})"
    return val


# ---------------------------------------------------------------------------
# Norms and reports that only the tests read
# ---------------------------------------------------------------------------


def sup_norm(x: Increment2) -> float:
    """sup_{s<t} |x_{st}|."""
    i, j = _pair_indices(x.grid.n_points)
    return float(np.max(_mag(x.values[i, j, ...], 1)))


def path_sup_norm(g: Increment1) -> float:
    """sup_t |g_t| for a path g."""
    return float(np.max(_mag(g.values, 1)))


def holder_sup_norm(x: Increment2, mu: float) -> float:
    """||x||_{mu,infty} = ||x||_mu + ||x||_infty."""
    return holder_norm(x, mu) + sup_norm(x)


def path_holder_sup_norm(g: Increment1, mu: float) -> float:
    """||g||_{mu,infty} = ||delta g||_mu + sup_t |g_t| for a path g."""
    return holder_norm(delta1(g), mu) + path_sup_norm(g)


def interpolation_constant(alpha: float, rho: float) -> float:
    """Explicit constant 2^{1 - alpha/rho} of the norm-interpolation bound."""
    if not 0 < alpha < rho:
        raise DomainError("need 0 < alpha < rho")
    return 2.0 ** (1.0 - alpha / rho)


def interpolation_chain_check(b: Increment1, alpha: float, rho: float) -> dict:
    """Evaluate both sides of ||b||_a <= 2^{1-a/r} ||b||_inf^{1-a/r} ||b||_r^{a/r}.

    Returns the discrete norms, both sides and the slack; the bound is an
    algebraic identity on suprema so the slack is never negative beyond
    rounding.
    """
    if not 0 < alpha < rho < 1:
        raise DomainError("need 0 < alpha < rho < 1")
    db = delta1(b)
    lhs = holder_norm(db, alpha)
    n_inf = path_sup_norm(b)
    n_rho = holder_norm(db, rho)
    rhs = interpolation_constant(alpha, rho) * n_inf ** (1 - alpha / rho) * n_rho ** (alpha / rho)
    return {
        "alpha": alpha,
        "rho": rho,
        "holder_alpha": lhs,
        "sup": n_inf,
        "holder_rho": n_rho,
        "rhs": rhs,
        "slack": rhs - lhs,
        "holds": bool(lhs <= rhs * (1 + 1e-12) + 1e-15),
    }


def l1_norm(b: Increment1) -> float:
    """Trapezoid integral of |b| over the grid."""
    mags = np.linalg.norm(np.atleast_2d(b.values.T), axis=0)
    return float(np.trapezoid(mags, b.grid.times))


def interpolation_check(b: Increment1, alpha_: float, rho: float, eta_grid: np.ndarray | None = None) -> dict:
    """Check the explicit-constant interpolation bound and report eta form.

    The inner inequality ||b||_a <= 2^{1-a/r} ||b||_inf^{1-a/r} ||b||_r^{a/r}
    is evaluated on discrete norms; for each eta the implied constant of
    the two-term form ||b||_{a,inf} <= C [eta ||b||_{r,inf} +
    eta^{-1/(r-a)} ||b||_{L1}] is reported.
    """
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
    """Fourth-variation blocks X_N and their quartic roots Y_N of one path.

    The per-path form of ``norris.block_stats_mc``.  The fine scale must align
    with the path grid (delta an integer multiple of the mesh).
    """
    mesh = p.grid.mesh
    stride_f = scales.delta / mesh
    if abs(stride_f - round(stride_f)) > 1e-9 or round(stride_f) < 1:
        raise DomainError(f"delta = {scales.delta} is not an integer multiple of the mesh {mesh}")
    stride = int(round(stride_f))
    incr = np.diff(p.values[::stride], axis=0)
    fourth = np.sum(incr * incr, axis=1) ** 2  # |increment|^4
    r = scales.r
    n_blocks = fourth.shape[0] // r
    if n_blocks < 1:
        raise DomainError("horizon too short for one coarse block")
    x = fourth[: n_blocks * r].reshape(n_blocks, r).sum(axis=1)
    return BlockStats(scales, x, x**0.25, float(np.sum(fourth)), float(np.mean(x)), float(np.var(x)))


# ---------------------------------------------------------------------------
# Rough integrals of controlled paths
# ---------------------------------------------------------------------------
#
# A path z is controlled by the driver x when delta z_{st} = zeta_s x^1_{st} + r_{st}
# with the remainder r of doubled Hoelder exponent.  Its rough integral against
# (x^1, x^2) is the limit of the compensated sums
#     sum_u [ z_u (x) x^1_{u u'} + zeta_u . x^2_{u u'} ],
# the concrete form of (id - Lambda delta) on the germ z x^1 + zeta x^2, whose
# abstract sewing lives in ``roughflow.increments``.

#: Relative stabilization demanded between the last two refinement levels.
REFINEMENT_RTOL = 1e-6


def b1(driver: RoughDriver, i, j) -> np.ndarray:
    """x^1_{t_i t_j} = x_{t_j} - x_{t_i}; i and j may be index arrays."""
    return driver.values[j] - driver.values[i]


def b2_prefix(driver: RoughDriver) -> np.ndarray:
    """x^2_{t_0 t_k} for every grid k: (n_points, d, d)."""
    return batch_signature_levels(driver.values[None], 2, prefixes=True)[1][:, 0]


def b2(driver: RoughDriver, i, j) -> np.ndarray:
    """x^2_{t_i t_j} via the Chen relation on prefix areas; i and j may be index arrays."""
    if np.any(np.asarray(i) > np.asarray(j)):
        raise DomainError("need i <= j for the Levy area")
    prefix, start = b2_prefix(driver), driver.values[i] - driver.values[0]
    return prefix[j] - prefix[i] - start[..., :, None] * b1(driver, i, j)[..., None, :]


def restrict(driver: RoughDriver, i: int, j: int) -> RoughDriver:
    """The driver on the subinterval [t_i, t_j], time shifted to start at 0."""
    sub = TimeGrid(driver.grid.times[j] - driver.grid.times[i], j - i + 1)
    return RoughDriver(grid=sub, values=driver.values[i : j + 1] - driver.values[i])


def remainder(z: ControlledPath) -> Increment2:
    """r_{st} = delta z_{st} - zeta_s x^1_{st} on all grid pairs."""
    dz = z.z[None, :, :] - z.z[:, None, :]
    dx = z.driver.values[None, :, :] - z.driver.values[:, None, :]
    lin = np.einsum("smd,std->stm", z.zeta, dx)
    return Increment2(z.grid, dz - lin)


def _refinement_partitions(i: int, j: int) -> list[list[int]]:
    """Nested index partitions of [i, j]: trivial, then near-dyadic splits."""
    parts = [[i, j]]
    while True:
        prev = parts[-1]
        nxt = [prev[0]]
        for a, b in zip(prev[:-1], prev[1:]):
            if b - a > 1:
                nxt.append((a + b) // 2)
            nxt.append(b)
        if len(nxt) == len(prev):
            return parts
        parts.append(nxt)


def _germ_sum(z: ControlledPath, partition: list[int]) -> np.ndarray:
    """Compensated sum of the germ over one index partition; shape (m, d)."""
    lo, hi = partition[:-1], partition[1:]
    x1, x2 = b1(z.driver, lo, hi), b2(z.driver, lo, hi)
    total = np.zeros((z.m, z.driver.d))
    for k, a in enumerate(lo):
        total += np.outer(z.z[a], x1[k])
        total += z.zeta[a] @ x2[k]
    return total


def rough_integral(
    z: ControlledPath, s: float, t: float, rtol: float = REFINEMENT_RTOL
) -> tuple[np.ndarray, ControlledPath]:
    """Rough integral of z against its driver over [s, t].

    Returns the (m, d) table of integrals int_s^t z^a dx^i (each entry
    compensated with the matching Levy-area term) and the indefinite
    integral as a controlled path on [s, t] whose Gubinelli derivative is z
    itself: the (a, i) component is controlled with zeta-hat^{(a,i), j} =
    z^a 1_{i=j}.

    The value is the finest compensated sum; the dyadic-in-index refinement
    sequence must stabilize to REFINEMENT_RTOL or a ConvergenceError is
    raised.
    """
    i, j = z.grid.index_of(s), z.grid.index_of(t)
    if i >= j:
        raise DomainError("need s < t on the grid")
    sums = [_germ_sum(z, part) for part in _refinement_partitions(i, j)]
    value = sums[-1]
    if len(sums) >= 2:
        scale = max(1.0, float(np.max(np.abs(value))))
        drift = float(np.max(np.abs(sums[-1] - sums[-2])))
        if drift > rtol * scale:
            raise ConvergenceError(
                f"compensated sums did not stabilize on [{s}, {t}]: "
                f"last refinement moved by {drift:.3e} (scale {scale:.3e})"
            )
    # Indefinite integral on the subgrid, flattened to m*d components.
    n_sub = j - i + 1
    m, d = z.m, z.driver.d
    hat = np.zeros((n_sub, m, d))
    steps = np.arange(i, j)
    x1, x2 = b1(z.driver, steps, steps + 1), b2(z.driver, steps, steps + 1)
    for k in range(n_sub - 1):
        hat[k + 1] = hat[k] + np.outer(z.z[i + k], x1[k]) + z.zeta[i + k] @ x2[k]
    sub_driver = restrict(z.driver, i, j)
    zeta_hat = np.zeros((n_sub, m * d, d))
    for a in range(m):
        for ii in range(d):
            zeta_hat[:, a * d + ii, ii] = z.z[i : j + 1, a]
    as_controlled = ControlledPath(
        grid=sub_driver.grid,
        z=hat.reshape(n_sub, m * d),
        zeta=zeta_hat,
        driver=sub_driver,
    )
    return value, as_controlled


def pair_integral(z: ControlledPath, s: float, t: float) -> float:
    """Scalar rough integral sum_i int_s^t z^i dx^i (requires m == d).

    This is the pairing used by linear expansion dynamics, where z collects
    one integrand per driver component.
    """
    if z.m != z.driver.d:
        raise DomainError("pair_integral needs one integrand per driver component")
    value, _ = rough_integral(z, s, t)
    return float(np.trace(value))


@dataclass(frozen=True)
class ControlledNorm:
    """Three-part semi-norm of a controlled path at exponent kappa."""

    kappa: float
    path_part: float
    gubinelli_part: float
    remainder_part: float

    @property
    def value(self) -> float:
        return self.path_part + self.gubinelli_part + self.remainder_part


def controlled_norm(z: ControlledPath, kappa: float) -> ControlledNorm:
    """Discrete N[z] = N[z; C1^k] + sum_j N[zeta^j; C1^{k,0}] + N[r; C2^{2k}]."""
    if not 1.0 / 3.0 < kappa < 1.0:
        raise DomainError(f"kappa must lie in (1/3, 1), got {kappa}")
    dz = Increment2(z.grid, z.z[None, :, :] - z.z[:, None, :])
    path_part = holder_norm(dz, kappa)
    gub = 0.0
    for j in range(z.driver.d):
        col = z.zeta[:, :, j]
        dcol = Increment2(z.grid, col[None, :, :] - col[:, None, :])
        gub += holder_norm(dcol, kappa) + float(np.max(np.linalg.norm(col, axis=1)))
    rem = holder_norm(remainder(z), 2.0 * kappa)
    return ControlledNorm(kappa, path_part, gub, rem)
