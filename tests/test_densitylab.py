import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow.controlled import RoughDriver, rde_solve
from roughflow.densitylab import (
    KDE_BLOCK,
    KDE_CHUNK,
    check_hypotheses,
    density_report,
    flow_endpoint_samples,
    kde,
    smoothness_proxies,
    yamato_explicit,
    yamato_explicit_batch,
)
from roughflow.errors import DomainError, PreconditionError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm_array
from roughflow.liefields import PolyVectorField, constant_brackets, hormander_rank, is_nilpotent, parse_polynomial
from roughflow.strichartz import strichartz_solve


class TestYamatoFields:
    def test_field_structure(self, yamato):
        assert yamato[0].is_zero
        assert [str(c) for c in yamato[1].components] == ["1", "0", "2*x2"]
        assert [str(c) for c in yamato[2].components] == ["0", "1", "-2*x1"]

    def test_hypotheses_hold(self, yamato):
        assert is_nilpotent(yamato, 3)[0]
        assert constant_brackets(yamato, 3)
        assert hormander_rank(yamato, [1.0, 1.0, 1.0], 2) == 3

    def test_check_hypotheses_report(self, yamato, rng):
        rep = check_hypotheses(yamato, 3, rng.standard_normal((4, 3)))
        assert rep["nilpotent"] and rep["constant_brackets"] and rep["hormander_full"]


class TestExplicitSolution:
    def test_zero_driver_returns_initial(self):
        grid = TimeGrid(1.0, 5)
        p = SamplePath(grid, np.zeros((5, 3)), hurst=None)
        out = yamato_explicit(p, [1.0, 2.0, 3.0], 1.0)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_wrong_dimension_rejected(self, fbm_path_d2):
        with pytest.raises(DomainError):
            yamato_explicit(fbm_path_d2, np.zeros(3), 1.0)

    def test_agreement_with_flow_representation(self, yamato, fbm_path_d3):
        a = np.array([0.2, -0.4, 1.1])
        flow = strichartz_solve(yamato, fbm_path_d3, a, 1.0, 3)
        assert np.max(np.abs(flow - yamato_explicit(fbm_path_d3, a, 1.0))) < 1e-10

    def test_agreement_with_rde_solver(self, yamato, fbm_path_d3):
        a = np.array([0.2, -0.4, 1.1])
        y, _ = rde_solve(yamato, a, RoughDriver.from_path(fbm_path_d3))
        assert np.max(np.abs(y.values[-1] - yamato_explicit(fbm_path_d3, a, 1.0))) < 1e-4

    def test_batch_matches_scalar(self, rough_hurst):
        grid = TimeGrid(1.0, 17)
        drivers = sample_fbm_array(rough_hurst, grid, 3, 5, seed=3)
        a = np.array([0.5, 0.1, -0.2])
        batch = yamato_explicit_batch(drivers, a)
        for i in range(5):
            p = SamplePath(grid, drivers[i], hurst=rough_hurst)
            assert np.max(np.abs(batch[i] - yamato_explicit(p, a, 1.0))) < 1e-13


class TestKde:
    def test_standard_normal_oracle(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        est = kde(rng.standard_normal(100000))
        xs = est.xs[(est.xs >= -3) & (est.xs <= 3)]
        target = np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(est(xs) - target)) <= 0.01

    def test_mass_close_to_one(self, rng):
        est = kde(rng.standard_normal(5000))
        assert 0.95 <= est.mass <= 1.0 + 1e-9

    def test_atom_detected(self):
        with pytest.raises(DomainError):
            kde(np.full(500, 2.5))

    def test_minimum_sample_size(self, rng):
        with pytest.raises(DomainError):
            kde(rng.standard_normal(50))

    def test_values_nonnegative(self, rng):
        est = kde(rng.standard_normal(2000))
        assert np.all(est.values >= 0.0)

    def test_chunked_sum_equals_dense_evaluation(self, rng):
        n = 2 * KDE_CHUNK + 77  # the last chunk is partial
        x = rng.standard_normal(n)
        est = kde(x, grid_points=64)
        u = (est.xs[:, None] - x[None, :]) / est.bandwidth
        dense = np.exp(-0.5 * u * u).sum(axis=1) / (n * est.bandwidth * np.sqrt(2 * np.pi))
        assert np.max(np.abs(est.values - dense)) <= 1e-13

    @pytest.mark.parametrize("kwargs", [{"grid_points": 1}, {"grid_points": 0}, {"span": -100.0}])
    def test_meaningless_grid_refused(self, rng, kwargs):
        with pytest.raises(DomainError):
            kde(rng.standard_normal(500), **kwargs)

    def test_silverman_default_bandwidth(self, rng):
        x = rng.standard_normal(10000)
        est = kde(x)
        assert est.bandwidth == pytest.approx(1.06 * np.std(x) * 10000 ** (-0.2))


def dense_kde(est, x):
    """The one-shot sum over every sample at every grid point."""
    u = (est.xs[:, None] - x[None, :]) / est.bandwidth
    return np.exp(-0.5 * u * u).sum(axis=1) / (x.size * est.bandwidth * np.sqrt(2 * np.pi))


def stress_samples(law, n, scale, seed):
    rng = np.random.default_rng(seed)
    if law == "cauchy":
        return scale * rng.standard_cauchy(n)
    if law == "clusters":  # two clusters 1e3 apart: windows between them are empty
        return scale * np.concatenate([rng.standard_normal(n // 2), 1e3 + rng.standard_normal(n - n // 2)])
    return scale * rng.standard_normal(n)


class TestWindowedKde:
    """The windowed sum drops only terms below e^{-72} of the kernel's peak, so
    it equals the dense sum up to rounding, whatever the samples look like."""

    @settings(max_examples=40, deadline=None)
    @given(
        law=st.sampled_from(["normal", "cauchy", "clusters"]),
        n=st.integers(100, 6000),
        scale=st.sampled_from([1e-9, 1.0, 1e3]),
        grid_points=st.one_of(st.integers(2, 3 * KDE_BLOCK + 1), st.sampled_from([77, 512])),
        bandwidth=st.one_of(st.none(), st.floats(0.01, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(law="cauchy", n=50000, scale=1.0, grid_points=77, bandwidth=None, seed=0)
    @example(law="clusters", n=4000, scale=1.0, grid_points=512, bandwidth=0.5, seed=1)
    @example(law="normal", n=3000, scale=1e-9, grid_points=512, bandwidth=None, seed=2)
    @example(law="normal", n=3000, scale=1.0, grid_points=77, bandwidth=0.3, seed=3)
    def test_windowed_sum_equals_dense_sum(self, law, n, scale, grid_points, bandwidth, seed):
        x = stress_samples(law, n, scale, seed)
        if bandwidth is not None:
            bandwidth *= scale
        est = kde(x, bandwidth=bandwidth, grid_points=grid_points)
        dense = dense_kde(est, x)
        assert np.max(np.abs(est.values - dense)) <= 1e-13 * dense.max()

    def test_empty_windows_between_clusters(self):
        x = stress_samples("clusters", 4000, 1.0, 1)
        est = kde(x, bandwidth=0.5)
        assert np.any(est.values == 0.0) and np.all(dense_kde(est, x)[est.values == 0.0] == 0.0)


class TestFlowSamples:
    def test_gaussian_component_law(self, yamato, rough_hurst):
        # y^1_T - a_1 is exactly fBm at time T: N(0, T^{2H}).
        samples = flow_endpoint_samples(
            yamato, rough_hurst, 1.0, 20000, seed=2, n=3, initial=np.zeros(3)
        )
        est = kde(samples[:, 0])
        xs = est.xs[(est.xs >= -3) & (est.xs <= 3)]
        target = np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(est(xs) - target)) <= 0.02


class TestDensityReport:
    def test_component_three_probe(self, yamato, rough_hurst):
        rep = density_report(yamato, rough_hurst, 1.0, 20000, functional=3, seed=6)
        assert 0.95 <= rep["mass"] <= 1.0 + 1e-9
        assert abs(rep["skewness"]) <= 3 * rep["skewness_stderr"]
        assert rep["ks_statistic"] <= 0.02
        for rel in rep["proxy_stability_rel"].values():
            assert rel <= 0.2

    def test_linear_functional_accepted(self, yamato, rough_hurst):
        rep = density_report(
            yamato, rough_hurst, 1.0, 5000, functional=np.array([1.0, 1.0, 0.0]) / 2,
            seed=1,
        )
        assert rep["functional"] == "linear functional"

    def test_refusal_names_failed_hypothesis(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        with pytest.raises(PreconditionError) as err:
            density_report([e1], rough_hurst, 1.0, 1000, functional=2, n=2)
        assert err.value.name == "Hoermander spanning"

    def test_component_out_of_range(self, yamato, rough_hurst):
        with pytest.raises(DomainError):
            density_report(yamato, rough_hurst, 1.0, 1000, functional=4)


class TestSmoothnessProxies:
    def test_finite_differences_of_smooth_estimate(self, rng):
        est = kde(rng.standard_normal(20000))
        prox = smoothness_proxies(est)
        assert prox["max_abs_d1"] > 0
        assert np.isfinite(prox["max_abs_d2"])

    def test_short_grid_refused(self, rng):
        # kde keeps its >= 2 contract, but a second difference needs 3 points.
        est = kde(rng.standard_normal(500), grid_points=2)
        with pytest.raises(DomainError):
            smoothness_proxies(est)
        assert np.isfinite(smoothness_proxies(kde(rng.standard_normal(500), grid_points=3))["max_abs_d2"])
