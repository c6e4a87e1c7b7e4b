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

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConvergenceError, DomainError
from .fbm import SamplePath, TimeGrid
from .increments import Increment2, holder_norm
from .liefields import FieldFamily, PolyVectorField, taylor_correction_fields
from .signature import batch_levy_prefix

#: Relative stabilization demanded between the last two refinement levels.
REFINEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class RoughDriver:
    """Level-2 rough path on a grid: increments x^1 and Levy area x^2.

    ``b2_prefix[k]`` stores x^2_{t_0 t_k}; Chen's identity then yields the
    area over any grid pair in O(1).
    """

    grid: TimeGrid
    values: np.ndarray
    b2_prefix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise DomainError("driver values must be (n_points, d)")
        object.__setattr__(self, "values", v)
        if self.b2_prefix is None:
            object.__setattr__(self, "b2_prefix", batch_levy_prefix(v[None])[0])

    @staticmethod
    def from_path(p: SamplePath) -> "RoughDriver":
        return RoughDriver(grid=p.grid, values=p.values)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def b1(self, i: int, j: int) -> np.ndarray:
        """x^1_{t_i t_j} = x_{t_j} - x_{t_i}."""
        return self.values[j] - self.values[i]

    def b2(self, i: int, j: int) -> np.ndarray:
        """x^2_{t_i t_j} via the Chen relation on prefix areas."""
        if i > j:
            raise DomainError("need i <= j for the Levy area")
        return (
            self.b2_prefix[j]
            - self.b2_prefix[i]
            - np.outer(self.values[i] - self.values[0], self.values[j] - self.values[i])
        )

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
    rem = holder_norm(z.remainder(), 2.0 * kappa)
    return ControlledNorm(kappa, path_part, gub, rem)


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
    grid: TimeGrid | None = None,
) -> tuple[SamplePath, ControlledPath]:
    """Solve dy = V_i(y) dx^i by the explicit second-order Taylor scheme.

    ``grid`` may be a coarser grid whose points all lie on the driver grid;
    by default the driver grid itself is used.  Returns the solution path
    and its controlled-path lift with zeta_t = [V_1(y_t) ... V_d(y_t)].
    """
    family = FieldFamily.of(fields)
    d, m = family.d, family.m
    if d != driver.d:
        raise DomainError(f"{d} fields for a {driver.d}-dimensional driver")
    a = np.asarray(a, dtype=float)
    if a.shape != (m,):
        raise DomainError(f"initial condition must be shape ({m},)")
    if grid is None:
        grid = driver.grid
        stride = 1
    else:
        ratio = (driver.grid.n_points - 1) / (grid.n_points - 1)
        stride = int(round(ratio))
        if abs(ratio - stride) > 1e-9 or abs(grid.horizon - driver.grid.horizon) > 1e-12:
            raise DomainError("solve grid must subsample the driver grid")
    stack = family.davie_stack
    n = grid.n_points
    y = np.empty((n, m))
    y[0] = a
    for k in range(n - 1):
        lo, hi = k * stride, (k + 1) * stride
        weights = np.concatenate([driver.b1(lo, hi), driver.b2(lo, hi).ravel()])
        y[k + 1] = y[k] + stack.weighted(weights)(y[k])
        if not np.all(np.isfinite(y[k + 1])):
            raise BlowUpError("RDE state became non-finite", when=grid.times[k + 1])
    zeta = np.stack([f(y) for f in family.fields], axis=-1)
    solution = SamplePath(grid=grid, values=y, hurst=None)
    sub_driver = (
        driver
        if stride == 1
        else RoughDriver(grid=grid, values=driver.values[::stride])
    )
    return solution, ControlledPath(grid=grid, z=y, zeta=zeta, driver=sub_driver)


def rde_solve_batch(
    fields: list[PolyVectorField] | FieldFamily,
    a: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Batched Davie scheme along piecewise-linear drivers.

    ``values`` is (n_paths, n_points, d); solves on the driver grid, where
    the per-step Levy area of the linear interpolant is dv (x) dv / 2.
    Returns (n_paths, n_points, m).
    """
    family = FieldFamily.of(fields)
    n_paths, n_points, d = values.shape
    if d != family.d:
        raise DomainError(f"{family.d} fields for a {d}-dimensional driver")
    m = family.m
    stack = family.davie_stack
    y = np.empty((n_paths, n_points, m))
    y[:, 0] = np.asarray(a, dtype=float)
    for k in range(n_points - 1):
        dv = (values[:, k + 1] - values[:, k]).T
        area = 0.5 * dv[:, None, :] * dv[None, :, :]
        weights = np.concatenate([dv, area.reshape(d * d, n_paths)])
        y[:, k + 1] = y[:, k] + stack.weighted(weights)(y[:, k].T).T
        if not np.all(np.isfinite(y[:, k + 1])):
            raise BlowUpError("batched RDE state became non-finite", when=k + 1)
    return y

