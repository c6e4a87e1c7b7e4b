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
permutation sum is enumerated literally (k <= 5 keeps it tiny); the
exponential flow integrates dPsi/ds = Z(Psi) on [0, 1] with fixed-step RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, DomainError
from .fbm import SamplePath
from .liefields import CompiledField, FieldFamily, PolyVectorField, bracket_table, fields_hash
from .signature import IteratedIntegrals, Word, path_signature

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


def psi(sig: IteratedIntegrals, word: Word) -> float:
    """Permutation functional psi^w built from the signature over [0, t]."""
    w = tuple(int(i) for i in word)
    k = len(w)
    if k > sig.level:
        raise DomainError(f"word {word} needs signature level {k}, have {sig.level}")
    total = 0.0
    for tau, coeff in _psi_terms(k):
        permuted = tuple(w[tau[a] - 1] for a in range(k))
        total += coeff * sig.value(permuted)
    return total


@dataclass(frozen=True)
class FlowField:
    """Time-frozen vector field Z_t with its bracket/psi decomposition."""

    t: float
    m: int
    terms: tuple[tuple[Word, PolyVectorField, float], ...]
    provenance: dict = field(default_factory=dict, repr=False)

    @property
    def assembled(self) -> PolyVectorField:
        z = PolyVectorField.zero(self.m)
        for _, fld, scalar in self.terms:
            z = z + fld * scalar
        return z

    @cached_property
    def compiled(self) -> CompiledField:
        """sum_w psi^w V_w compiled to one float field (built on first use)."""
        # The leading zero field keeps the table defined when no term survives.
        fields = [PolyVectorField.zero(self.m)] + [fld for _, fld, _ in self.terms]
        return CompiledField.stack(fields).weighted([0.0] + [s for _, _, s in self.terms])

    def __call__(self, x) -> np.ndarray:
        return self.compiled.at(x)

    def jacobian_at(self, x) -> np.ndarray:
        return self.compiled.jacobian_at(x)

    @property
    def degree(self) -> int:
        return max((fld.degree for _, fld, _ in self.terms), default=-1)


def build_Z(
    fields: Sequence[PolyVectorField] | FieldFamily,
    sig: IteratedIntegrals,
    n: int,
    check_nilpotency: bool = True,
) -> FlowField:
    """Assemble Z_t = sum_w V_w psi^w from brackets and signature data.

    Verifies n-nilpotency of the fields first (override only when the
    caller has already certified it).
    """
    family = FieldFamily.of(fields)
    if n < 2:
        raise DomainError(f"nilpotency order must be >= 2, got {n}")
    if sig.level < n - 1:
        raise DomainError(f"need signature level >= {n - 1}, have {sig.level}")
    if family.d != sig.d:
        raise DomainError(f"{family.d} fields for alphabet size {sig.d}")
    if check_nilpotency:
        family.require_nilpotent(n)
    terms = []
    for w, fld in family.brackets(n).items():
        scalar = psi(sig, w)
        if scalar != 0.0:
            terms.append((w, fld, scalar))
    return FlowField(
        t=sig.t,
        m=family.m,
        terms=tuple(terms),
        provenance={"t": sig.t, "fields_hash": family.key},
    )


def rk4(rhs: Callable, y0, steps: int):
    """Classical RK4 for the autonomous flow on s in [0, 1].

    The state is an array, or a tuple of arrays advanced jointly (then
    ``rhs`` maps a tuple to a tuple).
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    joint = isinstance(y0, tuple)
    f = rhs if joint else lambda s: (rhs(s[0]),)
    y = tuple(np.array(s, dtype=float) for s in (y0 if joint else (y0,)))
    h = 1.0 / steps

    def shift(c: float, k: tuple) -> tuple:
        return tuple(s + c * d for s, d in zip(y, k))

    for n in range(steps):
        k1 = f(y)
        k2 = f(shift(0.5 * h, k1))
        k3 = f(shift(0.5 * h, k2))
        k4 = f(shift(h, k3))
        y = tuple(
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not all(np.all(np.isfinite(s)) for s in y):
            raise BlowUpError("RK4 flow state became non-finite", when=(n + 1) * h)
    return y if joint else y[0]


def exp_flow(
    z: FlowField | PolyVectorField, a: np.ndarray, steps: int = DEFAULT_FLOW_STEPS
) -> np.ndarray:
    """[exp(Z)](a): integrate dPsi/ds = Z(Psi) from a over s in [0, 1]."""
    return rk4(z.compiled, np.asarray(a, dtype=float), steps)


def strichartz_solve(
    fields: Sequence[PolyVectorField] | FieldFamily,
    p: SamplePath,
    a: np.ndarray,
    t: float,
    n: int,
    steps: int = DEFAULT_FLOW_STEPS,
    check_nilpotency: bool = True,
) -> np.ndarray:
    """Solution at time t via the nilpotent flow representation.

    Exact in the piecewise-linear driver up to the RK4 error of the time-1
    flow (the signature and bracket data carry no discretization error).
    """
    sig = path_signature(p, 0.0, t, n - 1)
    z = build_Z(fields, sig, n, check_nilpotency=check_nilpotency)
    return exp_flow(z, a, steps)


# ---------------------------------------------------------------------------
# Batched engine for Monte-Carlo sampling of nilpotent flows
# ---------------------------------------------------------------------------


def psi_batch(levels: list[np.ndarray], word: Word) -> np.ndarray:
    """psi^w for a batch of signatures (levels[k-1]: (n_paths, d, ..., d))."""
    w = tuple(int(i) for i in word)
    k = len(w)
    out = np.zeros(levels[0].shape[0])
    lvl = levels[k - 1]
    for tau, coeff in _psi_terms(k):
        idx = tuple(w[tau[a] - 1] - 1 for a in range(k))
        out += coeff * lvl[(slice(None),) + idx]
    return out


def build_Z_batch(
    fields: Sequence[PolyVectorField] | FieldFamily,
    levels: list[np.ndarray],
    n: int,
    check_nilpotency: bool = True,
) -> list[tuple[PolyVectorField, np.ndarray]]:
    """Bracket fields with per-path psi weights; input to exp_flow_batch."""
    family = FieldFamily.of(fields)
    if check_nilpotency:
        family.require_nilpotent(n)
    return [(fld, psi_batch(levels, w)) for w, fld in family.brackets(n).items()]


def exp_flow_batch(
    terms: list[tuple[PolyVectorField, np.ndarray]],
    a: np.ndarray,
    steps: int = DEFAULT_FLOW_STEPS,
) -> np.ndarray:
    """Batched [exp(Z)](a) across paths; a is (m,) or (n_paths, m).

    The bracket table is summed once into per-path coefficients
    C[pair, path] = sum_w psi^w[path] coef_w[pair], and the RK4 state is
    component-major (m, n_paths).
    """
    if not terms:
        raise DomainError("empty flow decomposition")
    n_paths = terms[0][1].shape[0]
    m = terms[0][0].m
    z = CompiledField.stack([fld for fld, _ in terms]).weighted(np.stack([w for _, w in terms]))
    y0 = np.broadcast_to(np.asarray(a, dtype=float), (n_paths, m)).T
    return rk4(z, y0, steps).T
