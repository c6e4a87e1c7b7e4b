"""Exact polynomial vector fields, Lie brackets and hypothesis checkers.

Vector fields on R^m are stored with rational coefficients so that
nilpotency, constancy of brackets and the bracket identities are decided
exactly; floats only appear when a field is evaluated at a point.  The
bracket is

    [V, W]^i = V^l d_l W^i - W^l d_l V^i,

and iterated brackets are left-nested: [U_1 ... U_k] = [[U_1 ... U_{k-1}], U_k].
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, PreconditionError

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ``nvars`` variables with Fraction coefficients.

    ``terms`` maps exponent multi-indices to nonzero coefficients; the zero
    polynomial has an empty table.
    """

    nvars: int
    terms: dict[Exponent, Fraction]

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            e = tuple(int(k) for k in expo)
            if len(e) != self.nvars or any(k < 0 for k in e):
                raise DomainError(f"bad exponent {expo} for {self.nvars} variables")
            c = Fraction(coeff)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, k: int) -> "Polynomial":
        if not 0 <= k < nvars:
            raise DomainError(f"variable index {k} out of range")
        e = [0] * nvars
        e[k] = 1
        return Polynomial(nvars, {tuple(e): Fraction(1)})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise DomainError("variable counts differ")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.nvars != other.nvars:
                raise DomainError("variable counts differ")
            out: dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Polynomial(self.nvars, out)
        c = Fraction(other)
        return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def diff(self, k: int) -> "Polynomial":
        """Partial derivative with respect to variable ``k``."""
        out = {}
        for e, c in self.terms.items():
            if e[k] > 0:
                e2 = list(e)
                e2[k] -= 1
                out[tuple(e2)] = c * e[k]
        return Polynomial(self.nvars, out)

    def lift(self, total_vars: int, offset: int = 0) -> "Polynomial":
        """Reinterpret over a larger variable space, shifted by ``offset``."""
        if offset < 0 or offset + self.nvars > total_vars:
            raise DomainError("lift target does not contain the source variables")
        pad_left = (0,) * offset
        pad_right = (0,) * (total_vars - offset - self.nvars)
        return Polynomial(
            total_vars, {pad_left + e + pad_right: c for e, c in self.terms.items()}
        )

    # -- predicates ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    @cached_property
    def variables(self) -> frozenset[int]:
        """Indices of the variables that occur in some term."""
        return frozenset(k for e in self.terms for k, p in enumerate(e) if p)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{k+1}" + (f"^{p}" if p > 1 else "") for k, p in enumerate(e) if p
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^m with polynomial components."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DomainError("vector field needs at least one component")
        m = len(comps)
        if any(c.nvars != m for c in comps):
            raise DomainError("every component must be a polynomial in m variables")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    @property
    def compiled(self) -> "CompiledField":
        """Float evaluator of this field, built on first use and kept."""
        if "_compiled" not in self.__dict__:
            object.__setattr__(self, "_compiled", CompiledField.stack([self]).weighted(np.ones(1)))
        return self.__dict__["_compiled"]

    def __call__(self, x) -> np.ndarray:
        """Evaluate at (m,) or batched (..., m) points; output matches."""
        return self.compiled.at(x)

    def jacobian_at(self, x) -> np.ndarray:
        """Jacobian matrix evaluated at a point (m, m) or batch (..., m, m)."""
        return self.compiled.jacobian_at(x)

    @staticmethod
    def zero(m: int) -> "PolyVectorField":
        return PolyVectorField(tuple(Polynomial.zero(m) for _ in range(m)))


@dataclass(frozen=True, eq=False)
class CompiledField:
    """Float form of polynomial vector fields, compiled once for evaluation.

    ``exponents`` is the (n, m) monomial table, closed under first partials,
    and ``plan`` lists each table row's (variable, power) factors.  ``levels``
    are the components by ``dependency_levels`` of the exact fields: a
    component reads only components on lower levels.  It is None when the
    dependency graph has a cycle.
    Row k of ``coef`` is the coefficient of component i on monomial q for
    ``pairs[k] = (i, q)``; ``jac_coef`` does the same for d_l V^i and
    ``jac_pairs[k] = ((i, l), q)``.  Only pairs nonzero somewhere are kept.  The
    axes of a row after the first index a family of fields on one table (one
    frozen field per path, say); they broadcast against the batch axes of the
    component-major points x (m, *batch) that ``__call__`` takes.  The tables
    of ``stack`` are read-only; ``weighted`` shares them.
    """

    exponents: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    coef: np.ndarray
    jac_pairs: tuple[tuple[tuple[int, int], int], ...]
    jac_coef: np.ndarray
    plan: tuple[tuple[tuple[int, int], ...], ...]
    levels: tuple[tuple[int, ...], ...] | None

    @staticmethod
    def stack(fields: Sequence[PolyVectorField]) -> "CompiledField":
        """Compile exact fields on a shared table; the last coef axis picks the field."""
        m = fields[0].m
        values: dict = {}
        partials: dict = {}
        for f, fld in enumerate(fields):
            for i, comp in enumerate(fld.components):
                for e, c in comp.terms.items():
                    values.setdefault((i, e), {})[f] = float(c)
                    for l, p in enumerate(e):
                        if p:
                            low = e[:l] + (p - 1,) + e[l + 1 :]
                            partials.setdefault((i, l, low), {})[f] = float(c * p)
        table = sorted({key[-1] for key in (*values, *partials)})
        index = {e: q for q, e in enumerate(table)}

        def pack(entries: dict):
            keys = sorted(entries)
            coef = np.zeros((len(keys), len(fields)))
            for k, key in enumerate(keys):
                for f, c in entries[key].items():
                    coef[k, f] = c
            coef.flags.writeable = False
            return tuple((key[0] if len(key) == 2 else key[:2], index[key[-1]]) for key in keys), coef

        pairs, coef = pack(values)
        jac_pairs, jac_coef = pack(partials)
        exponents = np.array(table, dtype=int).reshape(len(table), m)
        exponents.flags.writeable = False
        plan = tuple(tuple((k, p) for k, p in enumerate(e) if p) for e in table)
        return CompiledField(exponents, pairs, coef, jac_pairs, jac_coef, plan, dependency_levels(fields))

    def weighted(self, w) -> "CompiledField":
        """The field sum_f w[f] V_f of a stack; w is (n_fields, *family)."""
        w = np.asarray(w, dtype=float)

        def contract(c: np.ndarray) -> np.ndarray:
            return (c @ w.reshape(w.shape[0], -1)).reshape(c.shape[:1] + w.shape[1:])

        return CompiledField(
            self.exponents, self.pairs, contract(self.coef), self.jac_pairs, contract(self.jac_coef), self.plan,
            self.levels,
        )

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """A stack's nonzero ``coef`` entries, row by row in field order, as
        (fields, coefficients), both (n_terms, n_pairs): entry [t, k] is row k's
        t-th nonzero entry, or coefficient 0 on field 0 past the row's last."""
        nonzero = [np.flatnonzero(row) for row in self.coef]
        fields = np.zeros((max(map(len, nonzero), default=0), len(nonzero)), dtype=int)
        coef = np.zeros(fields.shape)
        for k, row in enumerate(nonzero):
            fields[: len(row), k] = row
            coef[: len(row), k] = self.coef[k, row]
        return fields, coef

    def contract(self, w: np.ndarray) -> np.ndarray:
        """sum_f coef[k, f] w[f] for every pair k of a stack; w is (n_fields, *batch).

        Each row adds its ``terms`` to zero one after another, elementwise and
        not through BLAS, so that a value does not depend on the batch it is
        computed in.
        """
        fields, coef = self.terms
        products = coef.reshape(coef.shape + (1,) * (w.ndim - 1)) * w[fields]
        total = np.zeros(products.shape[1:])
        for term in products:
            total += term
        return total

    @cached_property
    def schedule(self) -> tuple:
        """Per dependency level (every component on one level for a cycle): the
        table rows its components read; each component i with the (k, q) of its
        ``pairs``; its runs of consecutive components, as slices."""
        out = []
        for level in self.levels or [tuple(range(self.exponents.shape[1]))]:
            rows = [(i, [(k, q) for k, (j, q) in enumerate(self.pairs) if j == i]) for i in level]
            cuts = [0] + [c for c in range(1, len(level)) if level[c] != level[c - 1] + 1] + [len(level)]
            runs = [slice(level[a], level[b - 1] + 1) for a, b in zip(cuts, cuts[1:])]
            out.append(({q for _, value in rows for _, q in value}, rows, runs))
        return tuple(out)

    def monomials(self, x: np.ndarray, rows: Iterable[int] | None = None) -> dict:
        """Table monomials q in ``rows`` (all by default) at component-major points
        x (m, *batch), by q; None for the constant one, whose coefficient is then
        added as it is."""
        out = {}
        for q in range(len(self.plan)) if rows is None else rows:
            val = None
            for k, p in self.plan[q]:
                term = x[k] if p == 1 else x[k] ** p
                val = term if val is None else val * term
            out[q] = val
        return out

    def _sum(self, x, pairs, coef, rank: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mono = self.monomials(x)
        batch = coef.shape[1:]
        if x.ndim > 1 and x.shape[1:] != batch:
            batch = np.broadcast_shapes(batch, x.shape[1:])
        out = np.zeros((self.exponents.shape[1],) * rank + batch)
        for (idx, q), c in zip(pairs, coef):
            out[idx] += c if mono[q] is None else c * mono[q]
        return out

    def __call__(self, x) -> np.ndarray:
        """Values V^i at component-major points: (m, *family-and-batch)."""
        return self._sum(x, self.pairs, self.coef, 1)

    def jacobian(self, x) -> np.ndarray:
        """Partials d_l V^i at component-major points: (m, m, *family-and-batch)."""
        return self._sum(x, self.jac_pairs, self.jac_coef, 2)

    def at(self, x) -> np.ndarray:
        """Values at point-major x (..., m), shaped like x."""
        x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        return np.ascontiguousarray(np.moveaxis(self(x), 0, -1))

    def jacobian_at(self, x) -> np.ndarray:
        """Jacobian at point-major x (..., m), shaped (..., m, m)."""
        jac = self.jacobian(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
        return np.ascontiguousarray(np.moveaxis(jac, (0, 1), (-2, -1)))


def _derivative_sum(terms: Sequence[tuple[int, PolyVectorField, PolyVectorField]]) -> PolyVectorField:
    """Exact field sum over (sign, A, B) of sign * A^l d_l B^i, component by component.

    Only the l with A^l nonzero and x_l in B^i contribute, and the terms are
    summed in one exact table per component.
    """
    m = terms[0][1].m
    comps = []
    for i in range(m):
        acc: dict[Exponent, Fraction] = {}
        for sign, a, b in terms:
            target = b.components[i]
            for l in target.variables:
                partial = [(e2, sign * e2[l] * c2) for e2, c2 in target.terms.items() if e2[l]]
                for e1, c1 in a.components[l].terms.items():
                    for e2, c2 in partial:
                        e = tuple(p + q - (k == l) for k, (p, q) in enumerate(zip(e1, e2)))
                        acc[e] = acc.get(e, 0) + c1 * c2
        comps.append(Polynomial(m, acc))
    return PolyVectorField(tuple(comps))


def bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [V, W]^i = V^l d_l W^i - W^l d_l V^i."""
    if v.m != w.m:
        raise DomainError(f"bracket needs equal dimensions, got {v.m} and {w.m}")
    return _derivative_sum(((1, v, w), (-1, w, v)))


def dependency_levels(fields: Sequence[PolyVectorField]) -> tuple[tuple[int, ...], ...] | None:
    """Components of ``fields`` by dependency level, or None when the graph has a cycle.

    Component i depends on component j when x_j occurs in a monomial of the
    i-th component of some field.  Level 0 holds the components that depend on
    none, and level k those whose dependencies all sit below level k, one of
    them on level k - 1.
    """
    m = fields[0].m if fields else 0
    needs = [{j for fld in fields for e in fld.components[i].terms for j, p in enumerate(e) if p} for i in range(m)]
    levels: list[tuple[int, ...]] = []
    placed: set[int] = set()
    while len(placed) < m:
        ready = tuple(i for i in range(m) if i not in placed and needs[i] <= placed)
        if not ready:
            return None
        levels.append(ready)
        placed.update(ready)
    return tuple(levels)


def flow_certificate(fields: Sequence[PolyVectorField]) -> tuple[int, int] | None:
    """Degree bound and Picard depth of the flow of every weighted sum of ``fields``.

    When the dependency graph of ``dependency_levels`` is acyclic the flow
    s -> exp(sZ)(a) is a polynomial in s whatever the weights: component i
    has degree at most D_i = 1 + max over its monomials e of sum_j e_j D_j
    (0 when it has none), and L Picard sweeps make it exact, L the number of
    levels.  Returns (max(1, max D_i), max(1, L)), or None when the graph has
    a cycle.
    """
    levels = dependency_levels(fields)
    if levels is None:
        return None
    degree: dict[int, int] = {}
    for i in (i for level in levels for i in level):
        monomials = {e for fld in fields for e in fld.components[i].terms}
        degree[i] = max((1 + sum(p * degree[j] for j, p in enumerate(e) if p) for e in monomials), default=0)
    return max([1, *degree.values()]), max(1, len(levels))


def hormander_rank(fields: "Sequence[PolyVectorField] | FieldFamily", x, up_to: int) -> int:
    """Rank of the span of all brackets of length <= up_to evaluated at x, decided exactly.

    The nonzero brackets come from the family's kept table; they are evaluated
    at the rational value of x (every finite float is one) and eliminated over Q.
    """
    if up_to < 1:
        raise DomainError(f"up_to must be >= 1, got {up_to}")
    family = FieldFamily.of(fields)
    x = np.asarray(x, dtype=float)
    if x.shape != (family.m,) or not np.isfinite(x).all():
        raise DomainError(f"Hörmander point must be a finite point of R^{family.m}, got {x.tolist()}")
    point = [Fraction(v) for v in x.tolist()]
    rows = [
        [sum(c * prod(v**p for v, p in zip(point, e)) for e, c in comp.terms.items()) for comp in b.components]
        for b in family.brackets(up_to + 1).values()
    ]
    rank = 0
    for col in range(family.m):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][col] / top[col]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Parsing: polynomial expressions and field files
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(x\d+)|(\*\*|[()+\-*^]))")


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: expr := term (('+'|'-') term)*;
             term := factor (('*') factor)*;
             factor := ('+'|'-')* atom (('^'|'**') nat)?;
             atom := rational | x<k> | '(' expr ')'.

    A sign applies to the whole power after it, wherever it stands, as in
    Python: ``x1*-x2^2`` is x1 * (-(x2^2)).
    """

    def __init__(self, text: str, nvars: int):
        self.nvars = nvars
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise DomainError(f"cannot tokenize polynomial near {text[pos:]!r}")
                break
            self.tokens.append(next(g for g in m.groups() if g is not None))
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise DomainError("unexpected end of polynomial expression")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing tokens in polynomial: {self.tokens[self.pos:]}")
        return p

    def expr(self) -> Polynomial:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            acc = acc + self.term() * (1 if op == "+" else -1)
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        acc = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise DomainError(f"exponent must be a nonnegative integer, got {tok!r}")
            base, acc = acc, Polynomial.constant(self.nvars, 1)
            for _ in range(int(tok)):
                acc = acc * base
        return acc * sign

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise DomainError("unbalanced parenthesis in polynomial")
            return inner
        if tok.startswith("x"):
            k = int(tok[1:])
            if not 1 <= k <= self.nvars:
                raise DomainError(f"variable {tok} out of range for {self.nvars} variables")
            return Polynomial.variable(self.nvars, k - 1)
        if "/" in tok:
            num, den = (int(v) for v in tok.split("/"))
            if den == 0:
                raise DomainError(f"zero denominator in {tok!r}")
            return Polynomial.constant(self.nvars, Fraction(num, den))
        if tok.isdigit():
            return Polynomial.constant(self.nvars, int(tok))
        raise DomainError(f"unexpected token {tok!r} in polynomial")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse ``2*x2 - 4`` style expressions into an exact polynomial."""
    try:
        return _Parser(text, nvars).parse()
    except RecursionError:
        raise DomainError("polynomial nests too deeply") from None


def parse_field_file(text: str) -> list[PolyVectorField]:
    """Parse a field file: an ``m d`` header, then d blocks of m component lines.

    ``#`` starts a comment; blank lines are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise DomainError("empty field file")
    header = lines[0].split()
    if len(header) != 2 or not all(h.isdecimal() and int(h) > 0 for h in header):
        raise DomainError(f"header must be two positive integers 'm d', got {lines[0]!r}")
    m, d = int(header[0]), int(header[1])
    body = lines[1:]
    if len(body) != m * d:
        raise DomainError(f"expected {m * d} component lines for m={m}, d={d}, got {len(body)}")
    fields = []
    for block in range(d):
        comps = tuple(
            parse_polynomial(body[block * m + i], m) for i in range(m)
        )
        fields.append(PolyVectorField(comps))
    return fields


def format_field_file(fields: Sequence[PolyVectorField]) -> str:
    m = fields[0].m
    lines = [f"{m} {len(fields)}"]
    for f in fields:
        lines.extend(str(c) for c in f.components)
    return "\n".join(lines) + "\n"


def fields_hash(fields: Sequence[PolyVectorField]) -> str:
    return hashlib.sha256(format_field_file(fields).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Derived families and the cached FieldFamily
# ---------------------------------------------------------------------------


def taylor_correction_fields(fields: Sequence[PolyVectorField]) -> list[list[PolyVectorField]]:
    """Second-order scheme fields W[i][j] = grad V_j . V_i = V_i^l d_l V_j, exact."""
    return [[_derivative_sum(((1, vi, vj),)) for vj in fields] for vi in fields]


def cotangent_fields(fields: Sequence[PolyVectorField]) -> list[PolyVectorField]:
    """Driving fields of the cotangent lift (y, w) on R^{2m}.

    y occupies the first m slots and the row vector w the last m; w solves
    dw = -w grad V_i(y) dx^i, as each row of J_{0,t}^{-1} does, so w_0 = eta
    gives w_t = eta^T J_{0,t}^{-1}.  Row b of dw is -d_b of the pairing
    sum_l w_l V^l(y).  The fields do not depend on eta.
    """
    m = fields[0].m
    w = [tuple(int(k == l) for k in range(m)) for l in range(m)]  # the exponent of w_l
    out = []
    for v in fields:
        pairing = Polynomial(2 * m, {e + w[l]: c for l, comp in enumerate(v.components) for e, c in comp.terms.items()})
        rows = tuple(-pairing.diff(b) for b in range(m))
        out.append(PolyVectorField(tuple(c.lift(2 * m) for c in v.components) + rows))
    return out


#: Field families ``FieldFamily.of`` keeps; the least recently used goes first.
FAMILY_CACHE_SIZE = 16

_FAMILIES: dict[str, "FieldFamily"] = {}
_FAMILIES_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class FieldFamily:
    """Driving fields V_1..V_d with their exact checks and compiled tables.

    Each member is built on first use and kept, so the exact work behind
    it (brackets, nilpotency, constancy, Taylor corrections) runs once per
    family, however many paths reuse it.  The family is the one place the
    bracket table is built: ``brackets(n)`` grows the kept ``brackets(n - 1)``
    by one level, and the checks read the kept ``brackets(n + 1)``.  Members
    are read-only: tuples, mapping proxies and read-only compiled tables.
    ``FieldFamily.of`` keeps one family per content (``fields_hash``).
    """

    fields: tuple[PolyVectorField, ...]
    key: str
    _kept: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def of(fields: "Sequence[PolyVectorField] | FieldFamily") -> "FieldFamily":
        """The kept family with these fields' content; a family passes through."""
        if isinstance(fields, FieldFamily):
            return fields
        fields = tuple(fields)
        key = fields_hash(fields)
        with _FAMILIES_LOCK:
            family = _FAMILIES.pop(key, None) or FieldFamily(fields, key)
            _FAMILIES[key] = family
            if len(_FAMILIES) > FAMILY_CACHE_SIZE:
                del _FAMILIES[next(iter(_FAMILIES))]
        return family

    def _member(self, name, build):
        return self._kept[name] if name in self._kept else self._kept.setdefault(name, build())

    @property
    def m(self) -> int:
        return self.fields[0].m

    @property
    def d(self) -> int:
        return len(self.fields)

    def initial(self, a) -> np.ndarray:
        """The point ``a`` of R^m as floats; DomainError for any other shape."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.m,):
            raise DomainError(f"initial condition must be shape ({self.m},), got {a.shape}")
        return a

    def nilpotent(self, n: int) -> tuple[bool, tuple[int, ...] | None]:
        """(ok, witness): ok iff ``brackets(n + 1)``, the nonzero brackets of order <= n,
        has no word of length n; the witness is the first one (lexicographic), or None."""
        if n < 2:
            raise DomainError(f"nilpotency order must be >= 2, got {n}")
        witness = next((w for w in self.brackets(n + 1) if len(w) == n), None)
        return witness is None, witness

    def constant_brackets(self, n: int) -> bool:
        """True iff all brackets of order 2..n, read off ``brackets(n + 1)``, are constant fields."""
        if n < 2:
            raise DomainError(f"up_to must be >= 2, got {n}")
        brackets = self.brackets(n + 1)
        return self._member(("constant", n), lambda: all(b.is_constant for w, b in brackets.items() if len(w) >= 2))

    def order(self) -> int:
        """The least n <= 5 at which the family is n-nilpotent, read off the kept
        ``brackets(n + 1)``; PreconditionError ``nilpotency`` when there is none."""
        n = next((n for n in range(2, 5) if self.nilpotent(n)[0]), 5)
        self.require_nilpotent(n)
        return n

    def require_nilpotent(self, n: int) -> None:
        """Raise PreconditionError ``nilpotency`` unless the family is n-nilpotent."""
        ok, witness = self.nilpotent(n)
        if not ok:
            message = f"fields are not {n}-nilpotent: bracket along {witness} is nonzero"
            raise PreconditionError(message, name="nilpotency")

    def require_constant_brackets(self, n: int) -> None:
        """Raise PreconditionError ``constant brackets`` unless brackets of order 2..n are constant."""
        if not self.constant_brackets(n):
            raise PreconditionError("brackets of order >= 2 are not constant", name="constant brackets")

    def brackets(self, n: int) -> Mapping[tuple[int, ...], PolyVectorField]:
        """Left-nested brackets V_w of the nonzero words up to length n - 1 (the fields for
        n <= 2), by length, then lexicographic, read-only: ``brackets(n - 1)`` grown by
        one level, zero brackets pruned, so nilpotent families stay cheap."""

        def build() -> Mapping:
            if n <= 2:
                return MappingProxyType({(i,): v for i, v in enumerate(self.fields, 1) if not v.is_zero})
            table = dict(self.brackets(n - 1))
            for w in [w for w in table if len(w) == n - 2]:
                for i, v in enumerate(self.fields, 1):
                    b = bracket(table[w], v)
                    if not b.is_zero:
                        table[w + (i,)] = b
            return MappingProxyType(table)

        return self._member(("brackets", n), build)

    def flow_certificate(self, n: int) -> tuple[int, int] | None:
        """``flow_certificate`` of ``brackets(n)``: it covers Z_t for every psi weighting.

        At n = 2 the brackets are the fields themselves, so it covers their weighted sums.
        """
        return self._member(("flow", n), lambda: flow_certificate(list(self.brackets(n).values())))

    def bracket_stack(self, n: int) -> CompiledField:
        """The brackets of ``brackets(n)``, in its order, compiled as one stack with its levels."""
        return self._member(("bracket_stack", n), lambda: CompiledField.stack(list(self.brackets(n).values())))

    @cached_property
    def davie_stack(self) -> CompiledField:
        """V_1..V_d then W[i][j] = grad V_j . V_i (row-major), compiled as one stack with its levels."""
        corrections = taylor_correction_fields(self.fields)
        return CompiledField.stack(list(self.fields) + [w for row in corrections for w in row])

    @cached_property
    def cotangent(self) -> "FieldFamily":
        """The family of the cotangent lift (y, eta^T J^{-1}) of ``cotangent_fields``."""
        return FieldFamily.of(cotangent_fields(self.fields))
