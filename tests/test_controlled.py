import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow import controlled
from roughflow.controlled import ControlledPath, RoughDriver, rde_solve, rde_solve_batch
from roughflow.errors import BlowUpError, DomainError
from roughflow.fbm import HurstParam, SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow.liefields import FieldFamily, PolyVectorField, parse_polynomial, taylor_correction_fields
from roughflow.signature import path_signature

from roughflow.densitylab import yamato_fields

from helpers import (
    ConvergenceError,
    augmented,
    b1,
    b2,
    b2_prefix,
    batch_levy_prefix_loop,
    controlled_norm,
    davie_chen,
    davie_path_major,
    pair_integral,
    restrict,
    rough_integral,
    sheared_yamato,
    triangular_families,
)


def lifted(base, lift):
    family = FieldFamily.of(base())
    if lift == "augmented":
        return augmented(family)
    return getattr(family, lift) if lift else family


#: Yamato's family, its sheared form (whose dependency graph has a cycle) and their lifts.
NAMED_FAMILIES = [
    (base, lift) for base in (yamato_fields, sheared_yamato) for lift in (None, "cotangent", "augmented")
]


@st.composite
def davie_problems(draw):
    """A family, a batch shape, a block length and a grid of one step fewer, as many or one more steps."""
    if draw(st.booleans()):
        family = FieldFamily.of(draw(triangular_families()))
    else:
        family = lifted(*draw(st.sampled_from(NAMED_FAMILIES)))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    block = draw(st.integers(1, 5))
    steps = max(1, block + draw(st.integers(-1, 1)))
    return family, batch, block, steps, draw(st.integers(0, 2**32 - 1))


def smooth_driver(n=2049):
    grid = TimeGrid(1.0, n)
    t = grid.times
    x = np.stack([np.sin(t), np.cos(2 * t)], axis=1)
    return RoughDriver.from_path(SamplePath(grid, x - x[0], hurst=None))


def controlled_square(driver):
    """z = (x1^2, x1 x2) with its exact Gubinelli derivative."""
    x = driver.values
    n = x.shape[0]
    z = np.stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]], axis=1)
    zeta = np.empty((n, 2, 2))
    zeta[:, 0, 0] = 2 * x[:, 0]
    zeta[:, 0, 1] = 0.0
    zeta[:, 1, 0] = x[:, 1]
    zeta[:, 1, 1] = x[:, 0]
    return ControlledPath(driver.grid, z, zeta, driver)


class TestRoughDriver:
    def test_b2_chen_consistency(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        sig = path_signature(fbm_path_d2, 0.25, 0.75, 2)
        assert np.max(np.abs(b2(drv, 16, 48) - sig.levels[1])) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_b2_prefix_matches_segment_loop(self, d):
        grid = TimeGrid(1.0, 65)
        p = sample_fbm(HurstParam(0.4), grid, d, seed=5)[0]
        drv = RoughDriver.from_path(p)
        want = batch_levy_prefix_loop(p.values[None])[0]
        prefix = b2_prefix(drv)
        assert prefix.shape == (65, d, d)
        assert np.all(prefix[0] == 0.0)
        assert np.max(np.abs(prefix - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
        if d == 1:
            b = p.values[:, 0] - p.values[0, 0]
            assert np.array_equal(prefix[:, 0, 0], b**2 / 2)

    def test_b2_prefix_is_built_on_first_use(self, yamato, fbm_path_d3):
        # The driver keeps no level-2 table; the area is built where it is read.
        drv = RoughDriver.from_path(fbm_path_d3)
        rde_solve(yamato, np.zeros(3), drv)
        assert not hasattr(drv, "b2_prefix") and not hasattr(drv, "b2")
        assert np.array_equal(b2(drv, 0, 64), b2_prefix(drv)[64])

    def test_restrict_shifts_origin(self, fbm_path_d2):
        sub = restrict(RoughDriver.from_path(fbm_path_d2), 16, 48)
        assert sub.grid.n_points == 33
        assert np.all(sub.values[0] == 0.0)


class TestRoughIntegral:
    def test_constant_integrand(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        c = np.array([1.5, -2.0, 0.5])
        z = ControlledPath(
            drv.grid, np.tile(c, (65, 1)), np.zeros((65, 3, 2)), drv
        )
        val, _ = rough_integral(z, 0.0, 1.0)
        assert np.max(np.abs(val - np.outer(c, b1(drv, 0, 64)))) < 1e-14

    def test_driver_against_itself_matches_levy_area(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        z = ControlledPath(
            drv.grid, fbm_path_d2.values, np.tile(np.eye(2), (65, 1, 1)), drv
        )
        val, hat = rough_integral(z, 0.0, 1.0)
        x1 = b1(drv, 0, 64)
        # Shuffle: symmetric part is forced; the table is the Levy area.
        assert np.max(np.abs(val + val.T - np.outer(x1, x1))) < 1e-13
        assert np.max(np.abs(val - b2(drv, 0, 64))) < 1e-14
        # The indefinite integral is controlled by z itself.
        assert np.allclose(hat.zeta[:, 0, 0], fbm_path_d2.values[:, 0])

    def test_additivity(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        z = ControlledPath(
            drv.grid, fbm_path_d2.values, np.tile(np.eye(2), (65, 1, 1)), drv
        )
        v_full, _ = rough_integral(z, 0.0, 1.0)
        v_lo, _ = rough_integral(z, 0.0, 0.5)
        v_hi, _ = rough_integral(z, 0.5, 1.0)
        assert np.max(np.abs(v_lo + v_hi - v_full)) < 1e-10

    def test_smooth_exactly_controlled_matches_riemann_stieltjes(self):
        # Affine image of the driver: the germ is exact, so the integral
        # equals the Riemann-Stieltjes integral of the data to rounding.
        drv = smooth_driver()
        x = drv.values
        lam = np.array([[0.7, -0.3], [0.2, 1.1]])
        z = ControlledPath(
            drv.grid,
            np.array([0.5, -0.25]) + x @ lam.T,
            np.tile(lam, (drv.grid.n_points, 1, 1)),
            drv,
        )
        val, _ = rough_integral(z, 0.0, 1.0)
        dz = np.diff(z.z, axis=0)
        dx = np.diff(x, axis=0)
        zmid = 0.5 * (z.z[:-1] + z.z[1:])
        oracle = np.einsum("ka,ki->ai", zmid, dx)
        assert np.max(np.abs(val - oracle)) < 1e-8

    def test_nonlinear_integrand_second_order_convergence(self):
        errors = {}
        for n in (2049, 4097):
            drv = smooth_driver(n)
            val, _ = rough_integral(controlled_square(drv), 0.0, 1.0)
            tt = np.linspace(0, 1, 800001)
            xx = np.stack([np.sin(tt), np.cos(2 * tt)], axis=1)
            xx -= xx[0]
            zz = np.stack([xx[:, 0] ** 2, xx[:, 0] * xx[:, 1]], axis=1)
            dxf = np.stack([np.cos(tt), -2 * np.sin(2 * tt)], axis=1)
            oracle = np.array(
                [
                    [np.trapezoid(zz[:, a] * dxf[:, i], tt) for i in range(2)]
                    for a in range(2)
                ]
            )
            errors[n] = np.max(np.abs(val - oracle))
        assert errors[4097] < errors[2049]
        assert 2.0 < errors[2049] / errors[4097] < 8.0  # ~second order

    def test_under_controlled_integrand_raises_convergence_error(self):
        # zeta = 0 leaves a first-order remainder: refinements keep moving.
        drv = smooth_driver(1025)
        t = drv.grid.times
        z = ControlledPath(
            drv.grid,
            np.stack([t**2, np.sin(3 * t)], axis=1),
            np.zeros((1025, 2, 2)),
            drv,
        )
        with pytest.raises(ConvergenceError):
            rough_integral(z, 0.0, 1.0)

    def test_pair_integral_requires_square(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        z = ControlledPath(
            drv.grid, np.ones((65, 3)), np.zeros((65, 3, 2)), drv
        )
        with pytest.raises(DomainError):
            pair_integral(z, 0.0, 1.0)


class TestRdeSolve:
    def test_zero_fields_keep_initial_condition(self, fbm_path_d2):
        fields = [PolyVectorField.zero(2), PolyVectorField.zero(2)]
        y, _ = rde_solve(fields, np.array([0.3, -0.7]), RoughDriver.from_path(fbm_path_d2))
        assert np.max(np.abs(y.values - np.array([0.3, -0.7]))) == 0.0

    def test_scalar_exponential(self, rough_hurst):
        fields = [PolyVectorField((parse_polynomial("x1", 1),))]
        grid = TimeGrid(1.0, 1025)
        p = sample_fbm(rough_hurst, grid, 1, 1, seed=5)[0]
        y, ctrl = rde_solve(fields, np.array([1.0]), RoughDriver.from_path(p))
        exact = np.exp(p.values[-1, 0])
        assert abs(y.values[-1, 0] - exact) < 0.02
        # Gubinelli derivative of the solution is V(y).
        assert np.allclose(ctrl.zeta[:, 0, 0], y.values[:, 0])

    def test_refinement_shrinks_endpoint_change(self, rough_hurst):
        fields = [PolyVectorField((parse_polynomial("x1", 1),))]
        grid = TimeGrid(1.0, 1025)
        p = sample_fbm(rough_hurst, grid, 1, 1, seed=5)[0]
        ends = []
        for n in (65, 257, 1025):
            drv = RoughDriver(grid=TimeGrid(1.0, n), values=p.values[:: (1025 - 1) // (n - 1)])
            y, _ = rde_solve(fields, np.array([1.0]), drv)
            ends.append(y.values[-1, 0])
        gap_coarse = abs(ends[1] - ends[0])
        gap_fine = abs(ends[2] - ends[1])
        assert gap_fine < gap_coarse
        assert gap_fine < 0.05

    def test_taylor_term_pairing_convention(self):
        # One deterministic segment with a known area pins the (i, j) pairing:
        # dy = y dx with x linear gives y (1 + dx + dx^2/2) per step.
        fields = [PolyVectorField((parse_polynomial("x1", 1),))]
        grid = TimeGrid(1.0, 2)
        p = SamplePath(grid, np.array([[0.0], [0.5]]), hurst=None)
        y, _ = rde_solve(fields, np.array([2.0]), RoughDriver.from_path(p))
        assert y.values[-1, 0] == pytest.approx(2.0 * (1 + 0.5 + 0.125))

    def test_correction_fields_are_exact_directional_derivatives(self, yamato):
        w = taylor_correction_fields(yamato)
        # grad A3 . A2 has third component -2 (differentiate -2 x1 along A2).
        assert [str(c) for c in w[1][2].components] == ["0", "0", "-2"]
        assert [str(c) for c in w[2][1].components] == ["0", "0", "2"]

    def test_blow_up_reports_time(self):
        fields = [PolyVectorField((parse_polynomial("x1^2", 1),))]
        grid = TimeGrid(1.0, 7)
        ramp = 1e3 * np.arange(7.0)[:, None]
        p = SamplePath(grid, ramp, hurst=None)
        flat = 1e3 * np.ones((7, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                rde_solve(fields, np.array([1.0]), RoughDriver.from_path(p))
            with pytest.raises(BlowUpError) as batch_err:
                rde_solve_batch(fields, np.array([1.0]), grid, np.stack([flat, ramp, flat]))
        assert 0.0 < err.value.when <= 1.0
        # The batch route reports the same grid time, not a step index.
        assert batch_err.value.when == err.value.when
        assert batch_err.value.when in grid.times

    def test_batch_matches_single(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 129)
        for fields in (yamato, [PolyVectorField((parse_polynomial("x1", 1),))]):
            d, m = len(fields), fields[0].m
            a = np.linspace(1.0, 0.5, m)
            paths = sample_fbm(rough_hurst, grid, d, 3, seed=8)
            batch = rde_solve_batch(fields, a, grid, np.stack([p.values for p in paths]))
            assert batch.shape == (3, 129, m)
            for i, p in enumerate(paths):
                want = davie_chen(fields, a, RoughDriver.from_path(p))
                assert np.max(np.abs(batch[i] - want)) < 1e-12

    def test_single_path_is_a_batch_of_one(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 129)
        a = np.array([0.3, -0.2, 0.1])
        values = sample_fbm(rough_hurst, grid, 3, 2, seed=6)[1].values
        y, _ = rde_solve(yamato, a, RoughDriver(grid=grid, values=values))
        assert np.array_equal(y.values, rde_solve_batch(yamato, a, grid, values))
        assert np.array_equal(y.values, rde_solve_batch(yamato, a, grid, np.stack([values, -values]))[0])

    def test_batch_checks_its_inputs(self, yamato, fbm_path_d3):
        grid, values = fbm_path_d3.grid, fbm_path_d3.values
        with pytest.raises(DomainError):
            rde_solve_batch(yamato, np.zeros(3), TimeGrid(1.0, 60), values)
        with pytest.raises(DomainError):
            rde_solve_batch(yamato, np.zeros(2), grid, values)
        with pytest.raises(DomainError):
            rde_solve_batch(yamato, np.zeros(3), grid, values[:, :2])


class TestTimeMajorDavie:
    """``rde_solve_batch`` keeps its state time-major and steps it one dependency
    level at a time over blocks of steps; the path-major step loop does the same
    arithmetic and must give the same bits."""

    @given(problem=davie_problems())
    @settings(max_examples=60, deadline=None)
    def test_level_blocks_match_the_step_loop(self, problem):
        family, batch, block, steps, seed = problem
        rng = np.random.default_rng(seed)
        grid = TimeGrid(1.0, steps + 1)
        values = np.cumsum(rng.normal(0.0, 0.3, batch + (steps + 1, family.d)), axis=-2)
        a = rng.uniform(-1.0, 1.0, family.m)
        per_step = sum(family.davie_stack.coef.shape) * math.prod(batch)
        with mock.patch.object(controlled, "BLOCK_FLOATS", block * per_step):
            got = rde_solve_batch(family, a, grid, values)
        want = davie_path_major(family, a, grid, values)
        assert got.shape == want.shape == batch + (steps + 1, family.m)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("paths", [None, 3])
    def test_blow_up_time_is_the_first_non_finite_row_and_warns_nothing(self, paths):
        square = [PolyVectorField((parse_polynomial("x1^2", 1),))]
        grid = TimeGrid(1.0, 65)
        values = np.linspace(0.0, 1.0, 65)[:, None]
        if paths:
            values = values * np.arange(1.0, paths + 1.0)[:, None, None]
        a = np.array([5.0])
        with np.errstate(over="ignore", invalid="ignore"):
            loop = davie_path_major(square, a, grid, values)
        finite = np.isfinite(loop).reshape(-1, 65).all(axis=0)
        assert not finite.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                rde_solve_batch(square, a, grid, values)
        assert err.value.when == grid.times[np.argmin(finite)]

    def test_blow_up_inside_a_block_of_an_acyclic_family(self):
        # y2 reads y1 only; its increments overflow at row 9, inside one block of all 39 steps.
        fields = [PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2))),
                  PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1^2", 2)))]
        assert FieldFamily.of(fields).davie_stack.levels == ((0,), (1,))
        grid = TimeGrid(1.0, 40)
        values = np.stack([1e153 * np.arange(40.0), np.arange(40.0)], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            loop = davie_path_major(fields, np.zeros(2), grid, values)
        first = np.argmin(np.isfinite(loop).all(axis=1))
        assert first == 9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                rde_solve_batch(fields, np.zeros(2), grid, values)
        assert err.value.when == grid.times[first]

    def test_cotangent_batch_matches_path_major_loop(self, yamato, rough_hurst):
        # The dichotomy's solve on a 257-point grid.
        grid = TimeGrid(1e-4, 257)
        family = FieldFamily.of(yamato).cotangent
        start = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 1.0])
        values = sample_fbm_array(rough_hurst, grid, 3, 500, seed=0)
        got = rde_solve_batch(family, start, grid, values)
        assert got.shape == (500, 257, 6)
        assert np.array_equal(got, davie_path_major(family, start, grid, values))

    def test_two_batch_axes_match_path_major_loop(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 65)
        a = np.array([0.4, -0.2, 0.7])
        values = sample_fbm_array(rough_hurst, grid, 3, 6, seed=3).reshape(2, 3, 65, 3)
        got = rde_solve_batch(yamato, a, grid, values)
        assert got.shape == (2, 3, 65, 3)
        assert np.array_equal(got, davie_path_major(yamato, a, grid, values))

    def test_one_path_matches_path_major_loop_and_keeps_its_layout(self, yamato, fbm_path_d3):
        grid, values = fbm_path_d3.grid, fbm_path_d3.values
        a = np.array([0.4, -0.2, 0.7])
        got = rde_solve_batch(yamato, a, grid, values)
        assert got.flags.c_contiguous
        assert np.array_equal(got, davie_path_major(yamato, a, grid, values))

    def test_transpose_views_the_time_major_state(self, yamato, rough_hurst):
        # norris reads the state component-major through .T, without a copy:
        # .T views the (n_points, m, n_paths) state with its first two axes swapped.
        grid = TimeGrid(1.0, 65)
        got = rde_solve_batch(yamato, np.zeros(3), grid, sample_fbm_array(rough_hurst, grid, 3, 5, seed=4))
        rows = got.T
        assert rows.shape == (3, 65, 5)
        assert rows.swapaxes(0, 1).flags.c_contiguous
        assert np.shares_memory(rows, got)


class TestControlledNorm:
    def test_constant_path_zero_norm(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        z = ControlledPath(drv.grid, np.ones((65, 1)), np.zeros((65, 1, 2)), drv)
        n = controlled_norm(z, 0.35)
        assert n.path_part == 0.0 and n.remainder_part == 0.0
        assert n.value == 0.0

    def test_solution_norm_is_finite(self, rough_hurst):
        fields = [PolyVectorField((parse_polynomial("x1", 1),))]
        grid = TimeGrid(1.0, 257)
        p = sample_fbm(rough_hurst, grid, 1, 1, seed=2)[0]
        _, ctrl = rde_solve(fields, np.array([1.0]), RoughDriver.from_path(p))
        n = controlled_norm(ctrl, 0.35)
        assert np.isfinite(n.value) and n.value > 0

    def test_unmodelled_driver_remainder_grows_under_refinement(self, rough_hurst):
        # z = x with zeta = 0: the remainder IS delta x, whose 2k-Hoelder
        # norm diverges as the grid refines once 2k > H.
        vals = {}
        for n in (65, 257):
            grid = TimeGrid(1.0, n)
            p = sample_fbm(rough_hurst, grid, 1, 1, seed=13)[0]
            drv = RoughDriver.from_path(p)
            z = ControlledPath(grid, p.values, np.zeros((n, 1, 1)), drv)
            vals[n] = controlled_norm(z, 0.35).remainder_part
        assert vals[257] > vals[65]

    def test_kappa_domain(self, fbm_path_d2):
        drv = RoughDriver.from_path(fbm_path_d2)
        z = ControlledPath(drv.grid, np.ones((65, 1)), np.zeros((65, 1, 2)), drv)
        with pytest.raises(DomainError):
            controlled_norm(z, 0.2)

    def test_solution_norms_report_against_driver_norms(self, rough_hurst):
        # Shape-only report: solution norms grow with the driver norms but
        # stay finite path by path (no specific polynomial is asserted).
        from roughflow.fbm import sample_fbm_array
        from roughflow.increments import Increment2, holder_norm

        fields = [PolyVectorField((parse_polynomial("x1", 1),))]
        grid = TimeGrid(1.0, 65)
        drivers = sample_fbm_array(rough_hurst, grid, 1, 100, seed=31)
        norms, driver_norms = [], []
        for k in range(drivers.shape[0]):
            drv = RoughDriver(grid=grid, values=drivers[k])
            _, ctrl = rde_solve(fields, np.array([1.0]), drv)
            norms.append(controlled_norm(ctrl, 0.35).value)
            dx = drivers[k][None, :, :] - drivers[k][:, None, :]
            driver_norms.append(holder_norm(Increment2(grid, dx), 0.35))
        norms = np.array(norms)
        driver_norms = np.array(driver_norms)
        assert np.all(np.isfinite(norms)) and np.all(norms > 0)
        # monotone association with the driver magnitude: paths with larger
        # driver norms carry larger solution norms on average
        order = np.argsort(driver_norms)
        low, high = norms[order[:50]], norms[order[50:]]
        assert np.mean(high) > np.mean(low)
        rank_corr = np.corrcoef(
            np.argsort(np.argsort(norms)), np.argsort(np.argsort(driver_norms))
        )[0, 1]
        assert rank_corr > 0.3
