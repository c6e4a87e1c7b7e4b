"""Controlled paths, the rough integral and a second-order RDE scheme.

A path z is (weakly) controlled by the driver x when its increments
decompose as

    delta z_{st} = zeta_s . x^1_{st} + r_{st},

with the Gubinelli derivative zeta one degree more regular and the
remainder r of doubled Hoelder exponent.  The rough integral of such a z
against the level-2 lift (x^1, x^2) is realized here as the limit of
compensated Riemann sums

    sum_u [ z_u (x) x^1_{u u'} + zeta_u . x^2_{u u'} ],

which is the concrete form of (id - Lambda delta) applied to the germ
z x^1 + zeta x^2; the abstract sewing operator itself lives in
:mod:`roughflow.increments` and is exercised there.

The RDE solver is the explicit second-order Taylor (Davie) scheme

    y_{k+1} = y_k + V_i(y_k) x^{1,i} + (grad V_j . V_i)(y_k) x^{2,ij},

with the index convention x^{2,ij}_{st} = int_s^t x^{1,i}_{su} dx^j_u
(first letter innermost), pinned by the scalar exponential test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ConvergenceError, DomainError
from .fbm import SamplePath, TimeGrid
from .increments import Increment2
from .liefields import FieldFamily, PolyVectorField
from .signature import batch_signature_levels

#: Relative stabilization demanded between the last two refinement levels.
REFINEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class RoughDriver:
    """Level-2 rough path on a grid: increments x^1 and Levy area x^2.

    ``b2_prefix[k]`` stores x^2_{t_0 t_k}, built on first use; Chen's identity
    then yields the area over any grid pair in O(1).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise DomainError("driver values must be (n_points, d)")
        object.__setattr__(self, "values", v)

    @cached_property
    def b2_prefix(self) -> np.ndarray:
        """x^2_{t_0 t_k} for every grid k: (n_points, d, d)."""
        return batch_signature_levels(self.values[None], 2, prefixes=True)[1][:, 0]

    @staticmethod
    def from_path(p: SamplePath) -> "RoughDriver":
        return RoughDriver(grid=p.grid, values=p.values)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def b1(self, i, j) -> np.ndarray:
        """x^1_{t_i t_j} = x_{t_j} - x_{t_i}; i and j may be index arrays."""
        return self.values[j] - self.values[i]

    def b2(self, i, j) -> np.ndarray:
        """x^2_{t_i t_j} via the Chen relation on prefix areas; i and j may be index arrays."""
        if np.any(np.asarray(i) > np.asarray(j)):
            raise DomainError("need i <= j for the Levy area")
        start = self.values[i] - self.values[0]
        return self.b2_prefix[j] - self.b2_prefix[i] - start[..., :, None] * self.b1(i, j)[..., None, :]

    def restrict(self, i: int, j: int) -> "RoughDriver":
        """Driver on the subinterval [t_i, t_j], time shifted to start at 0."""
        sub = TimeGrid(self.grid.times[j] - self.grid.times[i], j - i + 1)
        return RoughDriver(grid=sub, values=self.values[i : j + 1] - self.values[i])


@dataclass(frozen=True)
class ControlledPath:
    """A controlled path (z, zeta) together with its driver.

    ``z`` has shape (n, m) and ``zeta`` (n, m, d); the remainder
    r_{st} = delta z_{st} - zeta_s x^1_{st} is exposed for norm reporting.
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

    def remainder(self) -> Increment2:
        """r_{st} = delta z_{st} - zeta_s x^1_{st} on all grid pairs."""
        dz = self.z[None, :, :] - self.z[:, None, :]
        dx = self.driver.values[None, :, :] - self.driver.values[:, None, :]
        lin = np.einsum("smd,std->stm", self.zeta, dx)
        return Increment2(self.grid, dz - lin)


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
    total = np.zeros((z.m, z.driver.d))
    for a, b in zip(partition[:-1], partition[1:]):
        total += np.outer(z.z[a], z.driver.b1(a, b))
        total += z.zeta[a] @ z.driver.b2(a, b)
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
    for k in range(n_sub - 1):
        a = i + k
        hat[k + 1] = (
            hat[k]
            + np.outer(z.z[a], z.driver.b1(a, a + 1))
            + z.zeta[a] @ z.driver.b2(a, a + 1)
        )
    sub_driver = z.driver.restrict(i, j)
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
    [dv, dv (x) dv / 2] and evaluates it once.  The state is kept time-major
    and component-major, (n_points, m, *reversed batch), so step k reads row
    y[k] and writes row y[k + 1].  Returns the view (..., n_points, m) of it;
    ``.T`` of that is the component-major (m, n_points, *reversed batch)
    without a copy.  A non-finite state raises BlowUpError at its grid time.
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
    for k in range(grid.n_points - 1):
        # .T reverses the batch axes of dv as they are reversed in y.
        dv = (values[..., k + 1, :] - values[..., k, :]).T
        area = 0.5 * dv[:, None] * dv[None, :]
        weights = np.concatenate([dv, area.reshape((d * d,) + dv.shape[1:])])
        y[k + 1] = y[k] + stack.combine(y[k], weights)
        if not np.isfinite(y[k + 1]).all():
            raise BlowUpError("RDE state became non-finite", when=grid.times[k + 1])
    return np.moveaxis(y.T, -1, -2)
