"""Rough drivers, controlled paths and a second-order RDE scheme.

A path z is (weakly) controlled by the driver x when its increments
decompose as delta z_{st} = zeta_s . x^1_{st} + r_{st}, with the Gubinelli
derivative zeta one degree more regular and the remainder r of doubled
Hoelder exponent; ``rde_solve`` returns its solution in that form.  The
compensated-sum rough integral of such a path lives in ``tests/helpers.py``
as a reference routine, and the abstract sewing map in
:mod:`roughflow.increments`.

The RDE solver is the explicit second-order Taylor (Davie) scheme

    y_{k+1} = y_k + V_i(y_k) x^{1,i} + (grad V_j . V_i)(y_k) x^{2,ij},

with the index convention x^{2,ij}_{st} = int_s^t x^{1,i}_{su} dx^j_u
(first letter innermost), pinned by the scalar exponential test.  It runs
one dependency level of the compiled stack at a time over a block of steps
(``CompiledField.schedule``): a component reads only components on lower
levels, so its increments over the block are array math, and ``advance``
sums them in step order.  A family whose dependency graph has a cycle runs
one step per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError
from .fbm import SamplePath, TimeGrid
from .liefields import FieldFamily, PolyVectorField

#: Floats of the step weights and contracted coefficients that one block of
#: Davie steps holds at once.
BLOCK_FLOATS = 2**18


@dataclass(frozen=True)
class RoughDriver:
    """A driving path on a grid, values (n_points, d), read as the piecewise-linear
    path whose level-2 lift the Davie scheme steps along."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise DomainError("driver values must be (n_points, d)")
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_path(p: SamplePath) -> "RoughDriver":
        return RoughDriver(grid=p.grid, values=p.values)

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ControlledPath:
    """A controlled path (z, zeta) together with its driver.

    ``z`` has shape (n, m) and ``zeta`` (n, m, d).
    """

    grid: TimeGrid
    z: np.ndarray
    zeta: np.ndarray
    driver: RoughDriver

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        zeta = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zeta", zeta)
        n, m = z.shape
        if zeta.shape != (n, m, self.driver.d):
            raise DomainError(
                f"zeta must be (n, m, d) = ({n}, {m}, {self.driver.d}), got {zeta.shape}"
            )
        if n != self.grid.n_points:
            raise DomainError("controlled path length does not match its grid")

    @property
    def m(self) -> int:
        return self.z.shape[1]


def rde_solve(
    fields: list[PolyVectorField] | FieldFamily,
    a: np.ndarray,
    driver: RoughDriver,
) -> tuple[SamplePath, ControlledPath]:
    """Solve dy = V_i(y) dx^i on the driver grid: ``rde_solve_batch`` on one path.

    Returns the solution path and its controlled-path lift with
    zeta_t = [V_1(y_t) ... V_d(y_t)].
    """
    family = FieldFamily.of(fields)
    y = rde_solve_batch(family, a, driver.grid, driver.values)
    zeta = np.stack([f(y) for f in family.fields], axis=-1)
    return SamplePath(grid=driver.grid, values=y, hurst=None), ControlledPath(driver.grid, y, zeta, driver)


def advance(rows: np.ndarray) -> None:
    """rows[k + 1] += rows[k] for k in order, in place: row 0 is a block's first
    state and the others its increments, so that y[k + 1] = y[k] + inc[k].

    ``np.cumsum`` runs one column at a time, which is slow on a batch wider than
    the block is long; there the rows are added one after another, in the same
    order.
    """
    if len(rows) > rows[0].size:
        np.cumsum(rows, axis=0, out=rows)
    else:
        for k in range(len(rows) - 1):
            rows[k + 1] += rows[k]


def rde_solve_batch(
    fields: list[PolyVectorField] | FieldFamily,
    a: np.ndarray,
    grid: TimeGrid,
    values: np.ndarray,
) -> np.ndarray:
    """The Davie scheme along piecewise-linear drivers on ``grid``.

    ``values`` is (..., n_points, d): (n_paths, n_points, d) or one
    (n_points, d) path.  The level-2 increment of a linear step is
    dv (x) dv / 2, so each step contracts the stack's coefficients with
    [dv, dv (x) dv / 2].  The state is kept time-major and component-major,
    (n_points, m, *reversed batch), and is advanced one dependency level of
    the stack at a time over a block of steps: a component's increments read
    only rows of lower levels, which are already written, and ``advance`` sums
    them onto the block's first row.  A family whose dependency graph has a
    cycle runs as one level, one step per block.  Returns the view
    (..., n_points, m) of the state; ``.T`` of that is the component-major
    (m, n_points, *reversed batch) without a copy.  A non-finite state raises
    BlowUpError at its first grid time.
    """
    family = FieldFamily.of(fields)
    d, m = family.d, family.m
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[-2] != grid.n_points:
        raise DomainError(f"driver values must be (..., {grid.n_points}, d), got {values.shape}")
    if values.shape[-1] != d:
        raise DomainError(f"{d} fields for a {values.shape[-1]}-dimensional driver")
    a = family.initial(a)
    stack = family.davie_stack
    batch = values.shape[:-2][::-1]
    y = np.empty((grid.n_points, m) + batch)
    y[0] = a.reshape((m,) + (1,) * len(batch))
    # .T reverses the batch axes of the driver as they are reversed in y.
    path = values.T
    per_step = sum(stack.coef.shape) * math.prod(batch)
    block = 1 if stack.levels is None else max(1, BLOCK_FLOATS // per_step)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, grid.n_points - 1, block):
            k1 = min(k0 + block, grid.n_points - 1)
            weights = np.empty((d + d * d, k1 - k0) + batch)
            dv = np.subtract(path[:, k0 + 1 : k1 + 1], path[:, k0:k1], out=weights[:d])
            np.multiply(0.5 * dv[:, None], dv[None, :], out=weights[d:].reshape((d,) + dv.shape))
            coef = stack.contract(weights)
            y[k0 + 1 : k1 + 1] = 0.0
            for table, rows, runs in stack.schedule:
                mono = stack.monomials(y[k0:k1].swapaxes(0, 1), table)
                for i, pairs in rows:
                    inc = y[k0 + 1 : k1 + 1, i]
                    for p, q in pairs:
                        inc += coef[p] if mono[q] is None else coef[p] * mono[q]
                for run in runs:
                    advance(y[k0 : k1 + 1, run])
            if not np.isfinite(y[k0 + 1 : k1 + 1]).all():
                finite = np.isfinite(y[k0 + 1 : k1 + 1]).reshape(k1 - k0, -1).all(axis=1)
                raise BlowUpError("RDE state became non-finite", when=grid.times[k0 + 1 + np.argmin(finite)])
    return np.moveaxis(y.T, -1, -2)
