"""Algebraic integration core: k-increments, delta, Hoelder norms, sewing.

A (k-1)-increment assigns a value to each k-tuple of grid times and
vanishes whenever two adjacent arguments coincide.  The coboundary
operator acts as

    (delta g)_{st}  = g_t - g_s                 on 1-point functions,
    (delta h)_{sut} = h_{st} - h_{su} - h_{ut}  on 2-point functions,

and satisfies delta delta = 0.  The sewing map inverts delta on closed
2-increments of Hoelder exponent mu > 1; it is the engine behind every
compensated Riemann sum in this package.

All norms here are discrete suprema over grid tuples.  They are bounded by
their continuum counterparts, so every tolerance downstream treats them as
one-sided approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .fbm import TimeGrid

Array = np.ndarray


def _mag(values: Array, n_index_axes: int) -> Array:
    """Euclidean magnitude over the value axes, keeping the index axes."""
    if values.ndim == n_index_axes:
        return np.abs(values)
    axes = tuple(range(n_index_axes, values.ndim))
    return np.sqrt(np.sum(values * values, axis=axes))


@dataclass(frozen=True)
class Increment1:
    """Grid function t -> g_t with values of arbitrary (fixed) shape."""

    grid: TimeGrid
    values: Array

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.n_points:
            raise DomainError("Increment1 values must have one row per grid point")


@dataclass(frozen=True)
class Increment2:
    """Grid function (s, t) -> h_{st}, stored densely with zero diagonal.

    Producers fill the pairs they define (at least s <= t); consumers only
    read the upper triangle.
    """

    grid: TimeGrid
    values: Array

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = self.grid.n_points
        if v.shape[:2] != (n, n):
            raise DomainError("Increment2 values must be (n, n, ...)")
        diag = _mag(np.einsum("ii...->i...", v), 1)
        if np.max(diag) > 1e-12:
            raise DomainError("2-increments must vanish on the diagonal")


class TripleTable:
    """Every strict triple i < u < j of an n-point grid, with flat pair indices.

    ``ij``, ``iu`` and ``uj`` (i n + j, ...) index the pair axis of a
    2-increment's values flattened to (n n, ...), so delta2 on the whole
    table is three gathers.  Split weights are kept per (gamma, rho).  One
    table per grid, through :func:`triples`.
    """

    def __init__(self, times: Array):
        n = len(times)
        i, j = np.triu_indices(n, k=2)
        counts = j - i - 1
        self.i = np.repeat(i, counts)
        self.j = np.repeat(j, counts)
        starts = np.cumsum(counts) - counts
        self.u = np.arange(len(self.i)) - np.repeat(starts, counts) + self.i + 1
        self.ij, self.iu, self.uj = self.i * n + self.j, self.i * n + self.u, self.u * n + self.j
        self._times = times
        self._weights: dict[tuple[float, float], Array] = {}

    def split_weights(self, gamma: float, rho: float) -> Array:
        """(t_u - t_i)^gamma (t_j - t_u)^rho on every triple, built once."""
        w = self._weights.get((gamma, rho))
        if w is None:
            t = self._times
            w = self._weights[gamma, rho] = (t[self.u] - t[self.i]) ** gamma * (t[self.j] - t[self.u]) ** rho
        return w


def triples(grid: TimeGrid) -> TripleTable:
    """The triple table of ``grid``: built on first use and kept on the grid, so it dies with it."""
    tab = grid.__dict__.get("_triples")
    if tab is None:
        tab = grid.__dict__["_triples"] = TripleTable(grid.times)
    return tab


def _flat_pairs(values: Array) -> Array:
    """(n, n, ...) values as (n n, ...), indexed by the flat pair a n + b."""
    return values.reshape((-1,) + values.shape[2:])


@dataclass(frozen=True)
class Increment3:
    """Grid function (s, u, t) -> h_{sut} on the grid's triple table.

    ``values`` holds h on ``triples(grid)``, one row per strict triple
    i < u < j in the table's order: the closedness check, ``holder_norm_c3``
    and residuals all read that one array.
    """

    grid: TimeGrid
    values: Array

    def __post_init__(self):
        n = self.grid.n_points
        if n < 3:
            raise DomainError("a 3-increment needs a grid of at least 3 points")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[:1] != (n * (n - 1) * (n - 2) // 6,):
            raise DomainError("Increment3 values must have one row per strict triple of the grid")


def delta1(g: Increment1) -> Increment2:
    """(delta g)_{st} = g_t - g_s on all grid pairs."""
    v = g.values
    return Increment2(g.grid, v[None, :, ...] - v[:, None, ...])


def delta2(h: Increment2) -> Increment3:
    """(delta h)_{sut} = h_{st} - h_{su} - h_{ut} on the triple table, by flat gathers from h."""
    tab = triples(h.grid)
    f = _flat_pairs(h.values)
    return Increment3(h.grid, f[tab.ij] - f[tab.iu] - f[tab.uj])


def _pair_indices(n: int) -> tuple[Array, Array]:
    i, j = np.triu_indices(n, k=1)
    return i, j


def holder_norm(x: Increment2, mu: float) -> float:
    """Discrete mu-Hoelder norm sup_{s<t} |x_{st}| / |t-s|^mu."""
    if mu <= 0:
        raise DomainError(f"Hoelder exponent must be positive, got {mu}")
    i, j = _pair_indices(x.grid.n_points)
    t = x.grid.times
    mags = _mag(x.values[i, j, ...], 1)
    return float(np.max(mags / (t[j] - t[i]) ** mu))


def holder_norm_c3(h: Increment3, gamma: float, rho: float) -> float:
    """Single-split norm sup |h_{sut}| / (|u-s|^gamma |t-u|^rho)."""
    if gamma <= 0 or rho <= 0:
        raise DomainError("split exponents must be positive")
    return float(np.max(_mag(h.values, 1) / triples(h.grid).split_weights(gamma, rho)))


#: Relative tolerance of the closedness check behind ``sewing``.
CLOSED_TOL = 1e-10


def _check_closed(h: Increment3) -> Array:
    """Return h_{0ab} on all pairs after verifying delta h = 0 to ``CLOSED_TOL``.

    Closedness is equivalent to h_{sut} = h_{0ut} - h_{0st} + h_{0su} on every
    triple.  h_{0ab} is the table's leading i = 0 block; pairs (a, b) with no
    strict triple (0, a, b) stay zero: a 3-increment vanishes where adjacent
    arguments coincide, and ``sewing`` reads only a < b.
    """
    n = h.grid.n_points
    tab = triples(h.grid)
    first = (n - 1) * (n - 2) // 2  # rows of the i = 0 block
    h0 = np.zeros((n, n) + h.values.shape[1:])
    h0[tab.u[:first], tab.j[:first]] = h.values[:first]
    f = _flat_pairs(h0)
    # recon - h, built in place: a table-sized temporary is 22 MB at 257 points.
    defect = f[tab.uj] - f[tab.ij]
    defect += f[tab.iu]
    defect -= h.values
    scale = max(1.0, float(np.max(_mag(h.values, 1))))
    worst = float(np.max(_mag(defect, 1)))
    if worst > CLOSED_TOL * scale:
        raise ValidationError(
            f"increment is not closed: max |delta h| = {worst:.3e} (tol {CLOSED_TOL:.0e})"
        )
    return h0


def sewing(h: Increment3, mu: float) -> Increment2:
    """Invert delta on a closed 2-increment: returns Lambda(h).

    The construction uses the potential g_{ab} = -h_{0ab} (which satisfies
    delta g = h exactly when h is closed) and subtracts the coboundary of
    the compensated-telescope integral of g, refined down to single grid
    intervals: f is the cumulative sum of g over them.  Because the
    subtracted part is an exact coboundary, delta(Lambda h) = h holds to
    machine precision, and the result is the canonical discrete sewing with
    ||Lambda h||_mu <= ||h|| / (2^mu - 2).
    """
    if mu <= 1:
        raise DomainError(f"sewing requires mu > 1, got {mu}")
    g = -_check_closed(h)  # g_{ab} = -h_{0ab}; delta g = h exactly.
    steps = np.einsum("ii...->i...", g[:-1, 1:])
    f = np.concatenate([np.zeros_like(steps[:1]), np.cumsum(steps, axis=0)], axis=0)
    lam = g - (f[None, :, ...] - f[:, None, ...])
    ii, jj = np.tril_indices(h.grid.n_points, k=-1)
    lam[ii, jj, ...] = 0.0
    return Increment2(h.grid, lam)
