import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.errors import DomainError, ValidationError
from roughflow.fbm import TimeGrid
from roughflow.increments import (
    Increment1,
    Increment2,
    Increment3,
    _check_closed,
    delta1,
    delta2,
    holder_norm,
    holder_norm_c3,
    sewing,
    triples,
)
from roughflow.reporting import write_csv

from helpers import (
    compensated_sum,
    delta2_fancy,
    holder_norm_c3_per_call,
    holder_sup_norm,
    increment3_of,
    interpolation_chain_check,
    interpolation_constant,
    product_rule_defect,
    sewing_trials_per_call,
    sup_norm,
    triple_indices,
)


def random_increment2(grid, rng, shape=()):
    v = rng.standard_normal((grid.n_points, grid.n_points) + shape)
    idx = np.arange(grid.n_points)
    v[idx, idx] = 0.0
    return Increment2(grid, v)


def smooth_closed_c3(grid, coeffs):
    """h = delta(g) for g_{st} = f_s (x_t - x_s): closed by construction."""
    t = grid.times
    f = coeffs[0] * np.sin(np.pi * t) + coeffs[1] * t**2 + coeffs[2]
    x = coeffs[3] * np.cos(2 * np.pi * t) + coeffs[4] * t + coeffs[5] * t**3
    germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
    return germ, delta2(germ)


class TestDelta:
    def test_constant_path_has_zero_increments(self, grid65):
        g = Increment1(grid65, np.full(65, 3.7))
        assert np.max(np.abs(delta1(g).values)) == 0.0

    def test_linear_path(self):
        grid = TimeGrid(1.0, 3)
        g = Increment1(grid, grid.times.copy())
        assert delta1(g).values[0, 2] == pytest.approx(1.0)

    def test_hand_evaluated_triple(self):
        grid = TimeGrid(1.0, 3)
        t = grid.times
        h = Increment2(grid, (t[None, :] - t[:, None]) ** 2)
        d = delta2(h)
        # (delta h)_{0, 1/2, 1} = 1 - 1/4 - 1/4 = 1/2, the one triple of the grid
        assert d.values.shape == (1,) and d.values[0] == pytest.approx(0.5)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_delta_delta_is_zero(self, seed):
        grid = TimeGrid(1.0, 17)
        rng = np.random.default_rng(seed)
        g = Increment1(grid, rng.standard_normal((17, 2)))
        dd = delta2(delta1(g))
        assert np.max(np.abs(dd.values)) < 1e-14

    def test_diagonal_must_vanish(self, grid65):
        with pytest.raises(DomainError):
            Increment2(grid65, np.ones((65, 65)))


class TestTripleTable:
    """The shared table and flat gathers against the per-call routes in ``helpers``."""

    @pytest.mark.parametrize("n", [3, 4, 17, 65])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_delta2_on_table_equals_fancy_indexing(self, n, shape):
        rng = np.random.default_rng(n)
        germ = random_increment2(TimeGrid(1.0, n), rng, shape)
        tab = triples(germ.grid)
        i, u, j = triple_indices(n)
        assert np.array_equal(tab.i, i) and np.array_equal(tab.u, u) and np.array_equal(tab.j, j)
        expect = delta2_fancy(germ, i, u, j)
        assert expect.shape == (len(i),) + shape
        assert np.array_equal(delta2(germ).values, expect)

    @pytest.mark.parametrize("n", [3, 4, 17, 65])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_holder_norm_c3_equals_per_call_route(self, n, shape):
        rng = np.random.default_rng(n + 1)
        germ = random_increment2(TimeGrid(1.0, n), rng, shape)
        i, u, j = triple_indices(n)
        hv = delta2_fancy(germ, i, u, j)
        for gamma, rho in ((0.6, 0.6), (0.3, 0.9)):
            assert holder_norm_c3(delta2(germ), gamma, rho) == holder_norm_c3_per_call(germ.grid.times, i, u, j, hv, gamma, rho)

    def test_one_table_per_grid_dies_with_the_grid(self):
        grid = TimeGrid(1.0, 9)
        tab = triples(grid)
        assert triples(grid) is tab
        assert tab.split_weights(0.6, 0.6) is tab.split_weights(0.6, 0.6)
        assert triples(TimeGrid(1.0, 9)) is not tab
        ref = weakref.ref(tab)
        del grid, tab
        gc.collect()
        assert ref() is None

    def test_values_are_evaluated_once(self, grid65, rng):
        h = delta2(random_increment2(grid65, rng))
        assert h.values is h.values

    def test_closedness_check_at_129_points_rejects_non_closed(self, rng):
        grid = TimeGrid(1.0, 129)  # 349,504 triples, every one compared
        v = rng.standard_normal((129, 129, 129))
        with pytest.raises(ValidationError):
            _check_closed(increment3_of(grid, lambda i, u, j: v[i, u, j]))

    def test_closedness_check_at_129_points_accepts_closed(self, rng):
        grid = TimeGrid(1.0, 129)
        _, h = smooth_closed_c3(grid, rng.standard_normal(6))
        assert _check_closed(h).shape == (129, 129)

    def test_defect_at_one_triple_of_150_points_rejected(self, rng):
        # 551,300 triples; the defect at (1, 4, 6) shows only if every triple is compared.
        grid = TimeGrid(1.0, 150)
        _, h = smooth_closed_c3(grid, rng.standard_normal(6))
        tab = triples(grid)
        values = h.values.copy()
        values[(tab.i == 1) & (tab.u == 4) & (tab.j == 6)] += 1.0
        with pytest.raises(ValidationError):
            sewing(Increment3(grid, values), 1.2)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unit_defect_at_any_triple_rejected(self, data):
        n = data.draw(st.integers(4, 40), label="n")
        grid = TimeGrid(1.0, n)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        h = delta2(random_increment2(grid, np.random.default_rng(seed)))
        # The i = 0 block leads the table; it is what the check reconstructs from.
        first_block = data.draw(st.booleans(), label="first_block")
        rows = (n - 1) * (n - 2) // 2 if first_block else len(h.values)
        k = data.draw(st.integers(0, rows - 1), label="row")
        values = h.values.copy()
        values[k] += 1.0
        with pytest.raises(ValidationError):
            _check_closed(Increment3(grid, values))

    def test_two_point_grid_has_no_3_increment(self):
        grid = TimeGrid(1.0, 2)
        germ = Increment2(grid, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(DomainError, match="at least 3 points"):
            sewing(delta2(germ), 1.2)
        with pytest.raises(DomainError, match="at least 3 points"):
            holder_norm_c3(delta2(germ), 0.6, 0.6)
        with pytest.raises(DomainError, match="at least 3 points"):
            Increment3(grid, np.zeros(0))

    def test_values_need_one_row_per_triple(self, grid65):
        with pytest.raises(DomainError, match="one row per strict triple"):
            Increment3(grid65, np.zeros(65))

    @pytest.mark.parametrize("argv, points, trials, seed", [([], 65, 100, 0), (["--grid-points", "33", "--seed", "7"], 33, 100, 7)])
    def test_sewing_test_trials_equal_per_call_route(self, argv, points, trials, seed, tmp_path):
        from roughflow.cli import main

        assert main(["sewing-test", *argv, "--out", str(tmp_path)]) == 0
        expect = write_csv(
            tmp_path / "expect.csv",
            ["trial", "norm_ratio", "delta_residual"],
            sewing_trials_per_call(points, trials, seed),
        )
        assert (tmp_path / f"sewing-test-seed{seed}" / "trials.csv").read_bytes() == expect.read_bytes()


class TestHolderNorms:
    def test_zero_increment(self, grid65):
        z = Increment2(grid65, np.zeros((65, 65)))
        assert holder_norm(z, 0.5) == 0.0
        assert sup_norm(z) == 0.0

    def test_linear_increment_exponent_one(self, grid65):
        t = grid65.times
        f = Increment2(grid65, t[None, :] - t[:, None])
        assert holder_norm(f, 1.0) == pytest.approx(1.0)

    def test_linear_increment_exponent_half(self, grid65):
        # sup (t-s)^{1/2} on [0,1] is attained at the full interval.
        t = grid65.times
        f = Increment2(grid65, t[None, :] - t[:, None])
        assert holder_norm(f, 0.5) == pytest.approx(1.0)

    def test_sup_norm_composite(self, grid65, rng):
        f = random_increment2(grid65, rng)
        assert holder_sup_norm(f, 0.5) == pytest.approx(
            holder_norm(f, 0.5) + sup_norm(f)
        )

    def test_positive_exponent_required(self, grid65, rng):
        with pytest.raises(DomainError):
            holder_norm(random_increment2(grid65, rng), 0.0)


class TestSewing:
    def test_zero_maps_to_zero(self, grid65):
        h = increment3_of(grid65, lambda i, u, j: np.zeros(np.shape(i)))
        lam = sewing(h, 1.2)
        assert np.max(np.abs(lam.values)) == 0.0

    def test_inverts_delta_to_machine_precision(self, grid65, rng):
        _, h = smooth_closed_c3(grid65, rng.standard_normal(6))
        lam = sewing(h, 1.2)
        assert np.max(np.abs(delta2(lam).values - h.values)) < 1e-12

    def test_norm_bound_with_slack(self, grid65, rng):
        bound = 1.0 / (2**1.2 - 2.0)
        for _ in range(20):
            _, h = smooth_closed_c3(grid65, rng.standard_normal(6))
            lam = sewing(h, 1.2)
            ratio = holder_norm(lam, 1.2) / holder_norm_c3(h, 0.6, 0.6)
            assert ratio <= bound + 0.05

    def test_linearity(self, grid65, rng):
        g1, h1 = smooth_closed_c3(grid65, rng.standard_normal(6))
        g2, h2 = smooth_closed_c3(grid65, rng.standard_normal(6))
        combo = Increment3(grid65, 2.0 * h1.values - 0.5 * h2.values)
        lam = sewing(combo, 1.2).values
        expect = 2.0 * sewing(h1, 1.2).values - 0.5 * sewing(h2, 1.2).values
        assert np.max(np.abs(lam - expect)) < 1e-12

    def test_compensated_sums_converge_to_integral(self):
        # (id - Lambda delta) applied to f_s (delta x)_{st} recovers
        # int f dx; first-order in the mesh for generic smooth data.
        errors = []
        for n in (257, 1025):
            grid = TimeGrid(1.0, n)
            t = grid.times
            f = np.sin(2 * np.pi * t)
            x = np.cos(np.pi * t) + 0.3 * t**2
            germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
            val = compensated_sum(germ, 0, n - 1)
            tt = np.linspace(0, 1, 400001)
            oracle = np.trapezoid(
                np.sin(2 * np.pi * tt) * (-np.pi * np.sin(np.pi * tt) + 0.6 * tt), tt
            )
            errors.append(abs(val - oracle))
        assert errors[1] < errors[0] / 2.5
        assert errors[1] < 1e-2

    def test_mu_must_exceed_one(self, grid65):
        h = increment3_of(grid65, lambda i, u, j: np.zeros(np.shape(i)))
        with pytest.raises(DomainError):
            sewing(h, 1.0)

    def test_non_closed_rejected(self, grid65, rng):
        v = rng.standard_normal((65, 65, 65))
        with pytest.raises(ValidationError):
            sewing(increment3_of(grid65, lambda i, u, j: v[i, u, j]), 1.2)


class TestProductRule:
    def test_three_point_grid(self, rng):
        grid = TimeGrid(1.0, 3)
        v = rng.standard_normal((3, 3))
        np.fill_diagonal(v, 0.0)
        g = Increment2(grid, v)
        h = Increment1(grid, rng.standard_normal(3))
        assert product_rule_defect(g, h) < 1e-14

    def test_zero_left_factor(self, grid65):
        g = Increment2(grid65, np.zeros((65, 65)))
        h = Increment1(grid65, np.ones(65))
        assert product_rule_defect(g, h) == 0.0

    def test_dense_grid_matrix_valued(self, grid65, rng):
        g = random_increment2(grid65, rng, shape=(3, 2))
        h = Increment1(grid65, rng.standard_normal((65, 2)))
        assert product_rule_defect(g, h) < 1e-12

    def test_dimension_mismatch(self, grid65, rng):
        g = random_increment2(grid65, rng, shape=(3, 2))
        h = Increment1(grid65, rng.standard_normal((65, 3)))
        with pytest.raises(DomainError):
            product_rule_defect(g, h)


class TestInterpolation:
    def test_constant_path_trivial(self, grid65):
        rep = interpolation_chain_check(Increment1(grid65, np.ones(65)), 0.25, 0.3)
        assert rep["holder_alpha"] == 0.0
        assert rep["holds"]

    def test_identity_path_closed_form(self, grid65):
        rep = interpolation_chain_check(
            Increment1(grid65, grid65.times.copy()), 0.25, 0.3
        )
        assert rep["holder_alpha"] == pytest.approx(1.0)
        assert rep["rhs"] == pytest.approx(interpolation_constant(0.25, 0.3))
        assert rep["holds"]

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_random_paths_satisfy_bound(self, seed):
        grid = TimeGrid(1.0, 33)
        rng = np.random.default_rng(seed)
        b = Increment1(grid, np.cumsum(rng.standard_normal(33)) * 0.1)
        assert interpolation_chain_check(b, 0.25, 0.3)["holds"]

    def test_exponent_ordering_enforced(self, grid65):
        with pytest.raises(DomainError):
            interpolation_chain_check(Increment1(grid65, np.ones(65)), 0.4, 0.3)
