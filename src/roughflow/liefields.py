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
from itertools import product as iter_product
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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

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

    # -- evaluation ----------------------------------------------------------
    def __call__(self, x) -> float | np.ndarray:
        """Evaluate at a point (m,) or a batch of points (..., m)."""
        x = np.asarray(x, dtype=float)
        batch = x.ndim > 1
        out = np.zeros(x.shape[:-1]) if batch else 0.0
        for e, c in self.terms.items():
            term = float(c)
            for k, p in enumerate(e):
                if p:
                    term = term * x[..., k] ** p
            out = out + term
        return out

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

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.m != other.m:
            raise DomainError("vector fields live on different spaces")
        return PolyVectorField(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(tuple(-c for c in self.components))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def __mul__(self, scalar) -> "PolyVectorField":
        return PolyVectorField(tuple(c * Fraction(scalar) for c in self.components))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

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

    def jacobian(self) -> list[list[Polynomial]]:
        """Matrix of partials J[i][l] = d_l V^i, as polynomials."""
        return [[c.diff(l) for l in range(self.m)] for c in self.components]

    def jacobian_at(self, x) -> np.ndarray:
        """Jacobian matrix evaluated at a point (m, m) or batch (..., m, m)."""
        return self.compiled.jacobian_at(x)

    @staticmethod
    def zero(m: int) -> "PolyVectorField":
        return PolyVectorField(tuple(Polynomial.zero(m) for _ in range(m)))

    @staticmethod
    def from_arrays(m: int, entries: Sequence) -> "PolyVectorField":
        """Constant field from a length-m vector of rationals."""
        return PolyVectorField(
            tuple(Polynomial.constant(m, e) for e in entries)
        )

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True, eq=False)
class CompiledField:
    """Float form of polynomial vector fields, compiled once for evaluation.

    ``exponents`` is the (n, m) monomial table, closed under first partials,
    and ``plan`` lists each table row's (variable, power) factors.
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
        return CompiledField(exponents, pairs, coef, jac_pairs, jac_coef, plan)

    def weighted(self, w) -> "CompiledField":
        """The field sum_f w[f] V_f of a stack; w is (n_fields, *family)."""
        w = np.asarray(w, dtype=float)

        def contract(c: np.ndarray) -> np.ndarray:
            return (c @ w.reshape(w.shape[0], -1)).reshape(c.shape[:1] + w.shape[1:])

        return CompiledField(
            self.exponents, self.pairs, contract(self.coef), self.jac_pairs, contract(self.jac_coef), self.plan
        )

    def monomials(self, x: np.ndarray) -> list:
        """Each table monomial at component-major points x (m, *batch), or None
        for the constant one, whose coefficient is then added as it is."""
        out = []
        for factors in self.plan:
            val = None
            for k, p in factors:
                term = x[k] if p == 1 else x[k] ** p
                val = term if val is None else val * term
            out.append(val)
        return out

    def _sum(self, x, pairs, coef, rank: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mono = self.monomials(x)
        batch = coef.shape[1:]
        if x.shape[1:] != batch:
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


def bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [V, W]^i = V^l d_l W^i - W^l d_l V^i."""
    if v.m != w.m:
        raise DomainError(f"bracket needs equal dimensions, got {v.m} and {w.m}")
    m = v.m
    comps = []
    for i in range(m):
        acc = Polynomial.zero(m)
        for l in range(m):
            acc = acc + v.components[l] * w.components[i].diff(l)
            acc = acc - w.components[l] * v.components[i].diff(l)
        comps.append(acc)
    return PolyVectorField(tuple(comps))


def iterated_bracket(fields: Sequence[PolyVectorField], word: Iterable[int]) -> PolyVectorField:
    """Left-nested bracket V_{i_1 ... i_k} = [V_{i_1} ... V_{i_k}]."""
    w = [int(i) for i in word]
    if not w:
        raise DomainError("word must have length >= 1")
    d = len(fields)
    if any(not 1 <= i <= d for i in w):
        raise DomainError(f"word {w} has letters outside 1..{d}")
    acc = fields[w[0] - 1]
    for i in w[1:]:
        acc = bracket(acc, fields[i - 1])
    return acc


def _words(d: int, k: int):
    return iter_product(range(1, d + 1), repeat=k)


def is_nilpotent(fields: Sequence[PolyVectorField], n: int) -> tuple[bool, tuple[int, ...] | None]:
    """True iff every order-n left-nested bracket vanishes identically.

    On failure returns a violating word as witness.
    """
    if n < 2:
        raise DomainError(f"nilpotency order must be >= 2, got {n}")
    for word in _words(len(fields), n):
        if not iterated_bracket(fields, word).is_zero:
            return False, word
    return True, None


def constant_brackets(fields: Sequence[PolyVectorField], up_to: int) -> bool:
    """True iff all brackets of order 2..up_to are constant vector fields."""
    if up_to < 2:
        raise DomainError(f"up_to must be >= 2, got {up_to}")
    for k in range(2, up_to + 1):
        for word in _words(len(fields), k):
            if not iterated_bracket(fields, word).is_constant:
                return False
    return True


def hormander_rank(fields: Sequence[PolyVectorField], x, up_to: int) -> int:
    """Rank of the span of all brackets of length <= up_to evaluated at x.

    Gaussian elimination with a fixed pivot tolerance; rows are scaled so
    the tolerance is meaningful across field magnitudes.
    """
    if up_to < 1:
        raise DomainError(f"up_to must be >= 1, got {up_to}")
    x = np.asarray(x, dtype=float)
    rows = []
    for k in range(1, up_to + 1):
        for word in _words(len(fields), k):
            rows.append(iterated_bracket(fields, word)(x))
    return _rank_by_elimination(np.array(rows), tol=1e-10)


def _rank_by_elimination(a: np.ndarray, tol: float) -> int:
    a = np.array(a, dtype=float)
    if a.size == 0:
        return 0
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0
    a /= scale
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        pivot = rank + int(np.argmax(np.abs(a[rank:, col]))) if rank < n_rows else None
        if pivot is None or abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        others = [r for r in range(n_rows) if r != rank]
        a[others] -= np.outer(a[others, col], a[rank])
        rank += 1
        if rank == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Parsing: polynomial expressions and field files
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(x\d+)|(\*\*|[()+\-*^]))")


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*;
             term := factor (('*') factor)*;
             factor := atom (('^'|'**') nat)?;
             atom := rational | x<k> | '(' expr ')'.
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
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        acc = self.term() * sign
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
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise DomainError(f"exponent must be a nonnegative integer, got {tok!r}")
            power = int(tok)
            acc = Polynomial.constant(self.nvars, 1)
            for _ in range(power):
                acc = acc * base
            return acc
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise DomainError("unbalanced parenthesis in polynomial")
            return inner
        if tok == "-":
            return -self.atom()
        if tok.startswith("x"):
            k = int(tok[1:])
            if not 1 <= k <= self.nvars:
                raise DomainError(f"variable {tok} out of range for {self.nvars} variables")
            return Polynomial.variable(self.nvars, k - 1)
        if "/" in tok:
            num, den = tok.split("/")
            return Polynomial.constant(self.nvars, Fraction(int(num), int(den)))
        if tok.isdigit():
            return Polynomial.constant(self.nvars, int(tok))
        raise DomainError(f"unexpected token {tok!r} in polynomial")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse ``2*x2 - 4`` style expressions into an exact polynomial."""
    return _Parser(text, nvars).parse()


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
    if len(header) != 2:
        raise DomainError(f"header must be 'm d', got {lines[0]!r}")
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


def bracket_table(fields: Sequence[PolyVectorField], n: int) -> dict[tuple[int, ...], PolyVectorField]:
    """Left-nested brackets V_w for all words up to length n-1.

    Zero brackets are pruned as the table is built level by level, so
    nilpotent families stay cheap.
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


def taylor_correction_fields(fields: Sequence[PolyVectorField]) -> list[list[PolyVectorField]]:
    """Second-order scheme fields W[i][j] = grad V_j . V_i, exact."""
    m = fields[0].m
    out = []
    for vi in fields:
        row = []
        for vj in fields:
            jac = vj.jacobian()
            comps = []
            for a in range(m):
                acc = Polynomial.zero(m)
                for l in range(m):
                    acc = acc + jac[a][l] * vi.components[l]
                comps.append(acc)
            row.append(PolyVectorField(tuple(comps)))
        out.append(row)
    return out


def augmented_jacobian_fields(fields: Sequence[PolyVectorField]) -> list[PolyVectorField]:
    """Driving fields of the joint (y, J, J^{-1}) system on R^{m + 2 m^2}.

    Variable layout: y occupies the first m slots, J the next m^2
    (row-major), J^{-1} the last m^2.  All components stay polynomial, so
    the second-order scheme applies unchanged.
    """
    m = fields[0].m
    total = m + 2 * m * m

    def j_var(row: int, col: int) -> Polynomial:
        return Polynomial.variable(total, m + row * m + col)

    def jinv_var(row: int, col: int) -> Polynomial:
        return Polynomial.variable(total, m + m * m + row * m + col)

    out = []
    for v in fields:
        jac = v.jacobian()  # jac[i][l] = d_l V^i, polynomials in y
        comps = [c.lift(total) for c in v.components]
        # dJ_{ab} = sum_l d_l V^a J_{lb}
        for a_ in range(m):
            for b_ in range(m):
                acc = Polynomial.zero(total)
                for l in range(m):
                    acc = acc + jac[a_][l].lift(total) * j_var(l, b_)
                comps.append(acc)
        # dJinv_{ab} = -(Jinv grad V)_{ab} = -sum_l Jinv_{al} d_b V^l
        for a_ in range(m):
            for b_ in range(m):
                acc = Polynomial.zero(total)
                for l in range(m):
                    acc = acc + jinv_var(a_, l) * jac[l][b_].lift(total)
                comps.append(-acc)
        out.append(PolyVectorField(tuple(comps)))
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
    family, however many paths reuse it.  Members are read-only: tuples,
    mapping proxies and read-only compiled tables.  ``FieldFamily.of``
    keeps one family per content (``fields_hash``).
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

    def nilpotent(self, n: int) -> tuple[bool, tuple[int, ...] | None]:
        """``is_nilpotent(fields, n)``: (ok, violating word or None)."""
        return self._member(("nilpotent", n), lambda: is_nilpotent(self.fields, n))

    def constant_brackets(self, n: int) -> bool:
        """``constant_brackets(fields, n)``."""
        return self._member(("constant", n), lambda: constant_brackets(self.fields, n))

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
        """``bracket_table(fields, n)``, read-only."""
        return self._member(("brackets", n), lambda: MappingProxyType(bracket_table(self.fields, n)))

    def bracket_stack(self, n: int) -> CompiledField:
        """The brackets of ``brackets(n)``, in its order, compiled as one stack."""
        return self._member(("bracket_stack", n), lambda: CompiledField.stack(list(self.brackets(n).values())))

    @cached_property
    def davie_stack(self) -> CompiledField:
        """V_1..V_d then W[i][j] = grad V_j . V_i (row-major), compiled as one stack."""
        corrections = taylor_correction_fields(self.fields)
        return CompiledField.stack(list(self.fields) + [w for row in corrections for w in row])

    @cached_property
    def augmented(self) -> "FieldFamily":
        """The family of the joint (y, J, J^{-1}) fields of ``augmented_jacobian_fields``."""
        return FieldFamily.of(augmented_jacobian_fields(self.fields))
