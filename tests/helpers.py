"""Reference routines that only the tests use.

Each is the slow or per-call form of something the package computes
another way, kept here as that route's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from roughflow.flows import _flow_with_jacobians
from roughflow.liefields import FieldFamily
from roughflow.signature import IteratedIntegrals, Word, path_signature
from roughflow.strichartz import DEFAULT_FLOW_STEPS, _psi_terms, build_Z, psi


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
