import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow import norris
from roughflow.controlled import rde_solve_batch
from roughflow.errors import DomainError
from roughflow.fbm import TimeGrid, SamplePath, sample_fbm, sample_fbm_array
from roughflow.increments import Increment1
from roughflow.liefields import FieldFamily, PolyVectorField, parse_polynomial
from roughflow.norris import (
    TwoScale,
    alpha_matrix,
    block_stats_mc,
    concentration_table,
    hermite_moments,
    norris_dichotomy_mc,
    s_k,
)

from helpers import (
    alpha,
    block_stats,
    dichotomy_norms_augmented,
    hermite,
    interpolation_check,
    isserlis_fourth_variation_moments,
    path_sup_norms,
    sample_fourth_variation,
    sheared_yamato,
)


class TestHermite:
    def test_reference_values(self):
        assert hermite(2, 1.0) == 0.0
        assert hermite(4, 0.0) == 3.0
        assert hermite(4, 2.0) == -5.0

    @given(x=st.floats(-5, 5), k=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_three_term_recurrence(self, x, k):
        lhs = hermite(k + 1, x)
        rhs = x * hermite(k, x) - k * hermite(k - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_degree_range_enforced(self):
        with pytest.raises(DomainError):
            hermite(7, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)

    def test_vectorized(self):
        x = np.linspace(-2, 2, 7)
        assert np.allclose(hermite(2, x), x**2 - 1)
        assert np.allclose(hermite(4, x), x**4 - 6 * x**2 + 3)


class TestAlpha:
    def test_zero_lag_is_one(self):
        for h in (0.35, 0.4, 0.45):
            assert alpha(0, h) == 1.0

    def test_adjacent_lag_value(self):
        # Covariance formula gives (2^{2H} - 2)/2, negative for H < 1/2.
        assert alpha(1, 0.4) == pytest.approx(0.5 * (2**0.8 - 2))
        assert alpha(1, 0.4) < 0

    def test_power_decay(self):
        ratio = alpha(200, 0.4) / alpha(100, 0.4)
        assert ratio == pytest.approx(2 ** (2 * 0.4 - 2), rel=1e-3)

    @given(h=st.floats(0.05, 0.95), big_m=st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_telescoping_partial_sum(self, h, big_m):
        total = sum(alpha(m, h) for m in range(big_m + 1))
        closed = 0.5 * ((big_m + 1) ** (2 * h) - big_m ** (2 * h) + 1)
        assert total == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            alpha(-1, 0.4)


class TestHermiteMoments:
    def test_mean_is_three_k(self):
        assert hermite_moments(10, 0.4)[0] == pytest.approx(30.0)
        assert hermite_moments(8, 0.35)[0] == pytest.approx(24.0)

    @pytest.mark.parametrize("h", [0.35, 0.4, 0.45])
    def test_isserlis_oracle_at_k3(self, h):
        mean, var = hermite_moments(3, h)
        cov = alpha_matrix(3, h)
        mean_o, var_o = isserlis_fourth_variation_moments(cov)
        assert mean == pytest.approx(mean_o, abs=1e-10)
        assert var == pytest.approx(var_o, abs=1e-10)

    def test_compact_printed_form_is_rejected_by_oracle(self):
        # The weights (24, 2) circulate in a compact form; the enumeration
        # oracle pins (24, 72).
        cov = alpha_matrix(3, 0.4)
        _, var_o = isserlis_fourth_variation_moments(cov)
        compact = float(np.sum(24.0 * cov**4 + 2.0 * cov**2))
        ours = hermite_moments(3, 0.4)[1]
        assert ours == pytest.approx(var_o, abs=1e-10)
        assert abs(compact - var_o) > 1.0

    def test_delta_scaling(self):
        mean1, var1 = hermite_moments(6, 0.4, delta=1.0)
        mean2, var2 = hermite_moments(6, 0.4, delta=0.5)
        assert mean2 == pytest.approx(mean1 * 0.5**1.6)
        assert var2 == pytest.approx(var1 * 0.5**3.2)

    def test_monte_carlo_agreement(self):
        xs = sample_fourth_variation(8, 0.4, 30000, seed=3)
        mean, var = hermite_moments(8, 0.4)
        z = (xs.mean() - mean) / (xs.std(ddof=1) / np.sqrt(xs.size))
        assert abs(z) < 3
        assert abs(xs.var(ddof=1) - var) / var < 0.05

    def test_s_k_linearity(self):
        assert s_k(256, 0.4) / 256 == pytest.approx(s_k(64, 0.4) / 64, rel=0.1)


class TestTwoScale:
    def test_ratio_property(self):
        ts = TwoScale(2**-10, 2**-5)
        assert ts.r == 32

    @pytest.mark.parametrize(
        "delta,Delta", [(0.1, 0.15), (0.2, 0.1), (0.5, 1.5), (2**-3, 2**-3)]
    )
    def test_invalid_scales(self, delta, Delta):
        with pytest.raises(DomainError):
            TwoScale(delta, Delta)


class TestBlockStats:
    def test_constant_path(self):
        grid = TimeGrid(1.0, 257)
        p = SamplePath(grid, np.zeros((257, 1)), hurst=None)
        bs = block_stats(p, TwoScale(2**-8, 2**-4))
        assert np.max(bs.x_blocks) == 0.0
        assert bs.x_total == 0.0

    def test_misaligned_grid_rejected(self):
        grid = TimeGrid(1.0, 257)
        p = SamplePath(grid, np.zeros((257, 1)), hurst=None)
        with pytest.raises(DomainError):
            block_stats(p, TwoScale(1 / 300, 32 / 300))

    def test_block_decomposition_consistency(self, rough_hurst):
        grid = TimeGrid(1.0, 257)
        p = sample_fbm(rough_hurst, grid, 1, 1, seed=6)[0]
        bs = block_stats(p, TwoScale(2**-8, 2**-4))
        assert bs.x_blocks.shape == (16,)
        assert np.allclose(bs.y_blocks, bs.x_blocks**0.25)
        assert bs.x_total == pytest.approx(np.sum(bs.x_blocks))

    def test_mc_mean_matches_closed_form(self, rough_hurst):
        rep = block_stats_mc(rough_hurst, TwoScale(2**-8, 2**-4), 2000, seed=11)
        assert abs(rep["mean"] - rep["mean_target"]) < 3 * rep["mean_stderr"]

    def test_time_scaling_of_block_means(self, rough_hurst):
        # Halving all time scales multiplies E X_N by (1/2)^{4H}.
        a = block_stats_mc(rough_hurst, TwoScale(2**-8, 2**-4), 1500, seed=11)
        b = block_stats_mc(
            rough_hurst, TwoScale(2**-9, 2**-5), 1500, seed=11, horizon=0.5
        )
        ratio = b["mean"] / a["mean"]
        target = 0.5 ** (4 * rough_hurst.value)
        stderr = ratio * (
            a["mean_stderr"] / a["mean"] + b["mean_stderr"] / b["mean"]
        )
        assert abs(ratio - target) < 3 * stderr + 1e-12

    def test_concentration_shape(self, rough_hurst):
        ts = TwoScale(2**-8, 2**-4)
        rep = block_stats_mc(rough_hurst, ts, 6000, seed=11)
        us = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        conc = concentration_table(rep["x_samples"], rough_hurst, ts, us)
        f = conc["frequency"]
        assert np.all(np.diff(f) < 0)
        # Local slopes of log(-log f) vs log u flatten toward the
        # stretched-exponential shape in the tail (sub-Gaussian window).
        lnl = np.log(-np.log(f))
        local = np.diff(lnl) / np.diff(np.log(us))
        assert np.all(local[-2:] < 1.0)
        assert np.mean(local[-2:]) == pytest.approx(0.6, abs=0.25)


class TestInterpolationReport:
    def test_fbm_path_satisfies_bound(self, rough_hurst):
        grid = TimeGrid(1.0, 129)
        p = sample_fbm(rough_hurst, grid, 1, 1, seed=9)[0]
        rep = interpolation_check(Increment1(grid, p.values[:, 0]), 0.25, 0.3)
        assert rep["holds"]
        assert np.all(np.isfinite(rep["implied_C"]))

    def test_identity_path_closed_form(self):
        grid = TimeGrid(1.0, 65)
        rep = interpolation_check(Increment1(grid, grid.times.copy()), 0.25, 0.3)
        assert rep["holder_alpha"] == pytest.approx(1.0)
        assert rep["rhs"] == pytest.approx(2 ** (1 - 0.25 / 0.3))
        assert rep["holds"]


class TestDichotomyProbe:
    def test_unit_integrand_frequencies_decay(self, rough_hurst):
        # d = m = 1 with V = d/dx and U = x d/dx: Z^U = a + B, so y = B and
        # z is identically 1: the joint event is a shrinking ball for B.
        v = PolyVectorField((parse_polynomial("1", 1),))
        u = PolyVectorField((parse_polynomial("x1", 1),))
        rep = norris_dichotomy_mc(
            v and [v], u, np.array([1.0]), rough_hurst,
            [0.8, 0.4, 0.2, 0.1], q=0.5, n_paths=600,
            horizon=0.05, grid_points=33, seed=5,
        )
        freqs = [r["frequency"] for r in rep["rows"]]
        assert rep["non_increasing"]
        assert freqs[0] > freqs[-1]
        assert np.max(np.abs(rep["z_norms"] - 1.0)) < 1e-10

    def test_yamato_probe_has_positive_exponent(self, yamato, rough_hurst):
        rep = norris_dichotomy_mc(
            yamato, yamato[1], np.array([0, 0, 1.0]), rough_hurst,
            [0.4, 0.2, 0.1, 0.05], q=0.5, n_paths=500,
            horizon=1e-4, seed=7,
        )
        assert rep["non_increasing"]
        assert rep["fitted_exponent"] > 0

    def test_vacuous_tail_reports_upper_bounds(self, yamato, rough_hurst):
        # eps larger than any norm in the sample with a large q: the
        # z-threshold eps^q exceeds every ||z||, so all counts vanish.
        rep = norris_dichotomy_mc(
            yamato, yamato[1], np.array([0, 0, 1.0]), rough_hurst,
            [10.0, 12.0], q=4.0, n_paths=100,
            horizon=1e-4, seed=3,
        )
        assert all(r["upper_bound_only"] for r in rep["rows"])
        assert np.isnan(rep["fitted_exponent"])

    @pytest.mark.parametrize("eps", [[0.4, 0.4], [0.4, 0.4, 0.2]])
    def test_repeated_eps_raises(self, yamato, rough_hurst, eps):
        # A repeated eps would be one more row of the fit, weighted twice, or a
        # degenerate fit on a single abscissa.
        with pytest.raises(DomainError, match="distinct"):
            norris_dichotomy_mc(
                yamato, yamato[1], np.array([0, 0, 1.0]), rough_hurst,
                eps, q=0.5, n_paths=10, horizon=1e-4, seed=0,
            )

    def test_q_must_be_positive(self, yamato, rough_hurst):
        with pytest.raises(DomainError):
            norris_dichotomy_mc(
                yamato, yamato[1], np.array([0, 0, 1.0]), rough_hurst,
                [0.4], q=0.0, n_paths=10, horizon=1e-4, seed=0,
            )


class TestPathNorms:
    """``_path_norms`` is the sup norm of time-major paths; the same maximum
    over path-major paths is its oracle."""

    # Exponent 0 of the ||.||_{gamma, infty} norms: the sup norm, the only one the probe takes.
    @pytest.mark.parametrize("exponent", [0.0])
    @pytest.mark.parametrize("d", [None, 3], ids=["scalar", "vector"])
    def test_matches_pair_table(self, rough_hurst, exponent, d):
        grid = TimeGrid(0.01, 65)
        paths = sample_fbm_array(rough_hurst, grid, d or 1, 40, seed=12)
        if d is None:
            paths = paths[:, :, 0]
        got = norris._path_norms(paths.T)
        assert got.shape == (40,)
        assert np.array_equal(got, path_sup_norms(paths))


class TestCotangentPairing:
    """The dichotomy pairs w = eta^T J^{-1} of the cotangent lift with U(y); the
    full (y, J, J^{-1}) system contracted with eta is its oracle."""

    # The norris-mc default run (2,000 paths on 65 points, horizon 1e-4, seed 0), then a longer grid.
    @pytest.mark.parametrize("grid_points, n_paths", [(65, 2000), (257, 500)])
    def test_matches_augmented_oracle_bitwise_at_cli_eta(self, yamato, rough_hurst, grid_points, n_paths):
        eta = np.array([0.0, 0.0, 1.0])
        rep = norris_dichotomy_mc(
            yamato, yamato[1], eta, rough_hurst, [0.4, 0.2, 0.1, 0.05], q=0.5, n_paths=n_paths,
            horizon=1e-4, grid_points=grid_points, seed=0,
        )
        y_norms, z_norms = dichotomy_norms_augmented(
            yamato, yamato[1], eta, rough_hurst, n_paths, horizon=1e-4, grid_points=grid_points, seed=0
        )
        assert np.array_equal(rep["y_norms"], y_norms)
        assert np.array_equal(rep["z_norms"], z_norms)

    def test_solves_the_cotangent_lift_from_a_and_unit_eta(self, yamato, rough_hurst, monkeypatch):
        seen = []

        def spy(fields, a, grid, values):
            seen.append((fields, a))
            return rde_solve_batch(fields, a, grid, values)

        monkeypatch.setattr(norris, "rde_solve_batch", spy)
        norris_dichotomy_mc(
            yamato, yamato[1], np.array([0.0, 0.0, 2.0]), rough_hurst, [0.4], q=0.5, n_paths=8,
            a=[1.0, 2.0, 3.0], horizon=1e-4, seed=0,
        )
        [(family, start)] = seen
        assert family is FieldFamily.of(yamato).cotangent
        assert np.array_equal(start, [1.0, 2.0, 3.0, 0.0, 0.0, 1.0])

    def test_random_eta_matches_augmented_oracle(self, rough_hurst):
        fields = sheared_yamato()
        rng = np.random.default_rng(41)
        eta = rng.standard_normal(3)
        eta /= np.linalg.norm(eta)
        a = rng.standard_normal(3)
        kwargs = dict(a=a, horizon=0.01, grid_points=65, seed=9)
        rep = norris_dichotomy_mc(fields, fields[1], eta, rough_hurst, [0.4, 0.2], q=0.5, n_paths=400, **kwargs)
        y_norms, z_norms = dichotomy_norms_augmented(fields, fields[1], eta, rough_hurst, 400, **kwargs)
        assert np.max(np.abs(rep["y_norms"] - y_norms) / np.abs(y_norms)) <= 1e-13
        assert np.max(np.abs(rep["z_norms"] - z_norms) / np.abs(z_norms)) <= 1e-13

    @pytest.mark.parametrize(
        "a, eta",
        [([0.0, 0.0], [0.0, 0.0, 1.0]), ([0.0] * 4, [0.0, 0.0, 1.0]), (None, [0.0, 1.0]), (None, [0.0, 0.0, 0.0])],
        ids=["short-a", "long-a", "short-eta", "zero-eta"],
    )
    def test_bad_initial_or_eta_raises(self, yamato, rough_hurst, a, eta):
        with pytest.raises(DomainError):
            norris_dichotomy_mc(
                yamato, yamato[1], np.array(eta), rough_hurst, [0.4], q=0.5, n_paths=4, a=a, horizon=1e-4, seed=0,
            )
