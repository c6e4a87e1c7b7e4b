import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow.controlled import RoughDriver, rde_solve
from roughflow.densitylab import (
    FLOW_BLOCK,
    FLOW_STEPS,
    KDE_BLOCK,
    KDE_CHUNK,
    check_hypotheses,
    density_report,
    flow_endpoint_samples,
    kde,
    ks_two_sample,
    smoothness_proxies,
    yamato_explicit_batch,
)
from roughflow.errors import DomainError, PreconditionError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm_array
from roughflow.liefields import FieldFamily, PolyVectorField, hormander_rank, parse_polynomial
from roughflow.strichartz import strichartz_solve

from helpers import (
    batch_levy_prefix_loop,
    flow_endpoint_samples_whole,
    quadratic_shear,
    sheared_yamato,
    yamato_explicit,
)


class TestYamatoFields:
    def test_field_structure(self, yamato):
        assert yamato[0].is_zero
        assert [str(c) for c in yamato[1].components] == ["1", "0", "2*x2"]
        assert [str(c) for c in yamato[2].components] == ["0", "1", "-2*x1"]

    def test_hypotheses_hold(self, yamato):
        assert FieldFamily.of(yamato).nilpotent(3)[0]
        assert FieldFamily.of(yamato).constant_brackets(3)
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

    def test_batch_equals_prefix_area_oracle(self, rough_hurst):
        # The oracle reads the last slice of every prefix Levy area, as the per-segment Chen loop builds it.
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), 3, 20_000, seed=8)
        a = np.array([0.5, 0.1, -0.2])
        area = batch_levy_prefix_loop(drivers)[:, -1]
        b = drivers[:, -1] - drivers[:, 0]
        want = np.stack(
            [
                a[0] + b[:, 1],
                a[1] + b[:, 2],
                a[2] + 2.0 * a[1] * b[:, 1] - 2.0 * a[0] * b[:, 2] + 2.0 * (area[:, 2, 1] - area[:, 1, 2]),
            ],
            axis=1,
        )
        got = yamato_explicit_batch(drivers, a)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_batch_memory_is_flat_in_grid_length(self, rough_hurst):
        # 20k paths on 33 points: every prefix Levy area takes 45 MiB, the running sum peaks near 5 MiB.
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), 3, 20_000, seed=8)
        tracemalloc.start()
        try:
            yamato_explicit_batch(drivers, np.zeros(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("bad", ["overflow", "inf", "nan"])
    def test_spread_that_is_not_finite_refused_unwarned(self, rng, bad):
        x = rng.standard_normal(500)
        if bad == "overflow":
            x *= 1e200  # finite samples whose squares overflow
        else:
            x[7] = float(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sample spread is not finite"):
                kde(x)

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

    @pytest.mark.parametrize("kwargs", [{"grid_points": 1}, {"grid_points": 0}])
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

    @pytest.mark.parametrize(
        "n_paths", [1000, FLOW_BLOCK, FLOW_BLOCK + 1, 2 * FLOW_BLOCK + 123],
        ids=["below", "one-block", "one-block-plus-one", "blocks-and-remainder"],
    )
    @pytest.mark.parametrize("per_path", [False, True], ids=["shared-initial", "per-path-initial"])
    def test_blocks_equal_whole_batch(self, yamato, rough_hurst, n_paths, per_path):
        rng = np.random.default_rng(n_paths)
        initial = rng.standard_normal((n_paths, 3) if per_path else 3)
        got = flow_endpoint_samples(yamato, rough_hurst, 1.0, n_paths, 5, 3, initial, grid_points=9)
        want = flow_endpoint_samples_whole(yamato, rough_hurst, 1.0, n_paths, 5, 3, initial, grid_points=9)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_memory_stays_flat_in_path_count(self, yamato, rough_hurst):
        # Traced bytes beyond the driver batch at 60k paths: 24.7 MiB when every stage
        # ran on the whole batch (growing with the path count), 10.1 MiB in path blocks.
        n_paths, grid_points = 60_000, 33
        flow_endpoint_samples(yamato, rough_hurst, 1.0, 2000, 1, 3, np.zeros(3), grid_points)
        tracemalloc.start()
        try:
            flow_endpoint_samples(yamato, rough_hurst, 1.0, n_paths, 1, 3, np.zeros(3), grid_points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        drivers = n_paths * grid_points * 3 * 8
        assert peak - drivers < 16 * 2**20


@cache
def interleaving_highs(n: int) -> tuple[int, ...]:
    """max_x |#{a <= x} - #{b <= x}| for each of the C(2n, n) interleavings of two sorted samples of size n."""
    highs = []
    for positions in itertools.combinations(range(2 * n), n):
        walk, high = 0, 0
        for i in range(2 * n):
            walk += 1 if i in positions else -1
            high = max(high, abs(walk))
        highs.append(high)
    return tuple(highs)


class TestKsTwoSample:
    @pytest.mark.parametrize("n", [200, 1000, 10000, 20000])
    @pytest.mark.parametrize("shift, below", [(0.0, 1.0), (3.0, 0.05), (10.0, 1e-9)])
    def test_matches_scipy_exact_bit_for_bit(self, n, shift, below):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) + shift / np.sqrt(n)
        oracle = ks_2samp(a, b, method="exact")
        assert ks_two_sample(a, b) == (float(oracle.statistic), float(oracle.pvalue))
        assert oracle.pvalue <= below

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_law_by_counting_interleavings(self, n):
        # b = a + h - 1/2 puts the largest count difference at exactly h.
        highs = interleaving_highs(n)
        a = np.arange(n, dtype=float)
        for h in range(1, n + 1):
            d, p = ks_two_sample(a, a + h - 0.5)
            assert d == h / n
            exact = Fraction(sum(high >= h for high in highs), math.comb(2 * n, n))
            assert p == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_statistic_is_the_largest_count_difference(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        h = max(abs(int(np.sum(a <= x)) - int(np.sum(b <= x))) for x in np.concatenate([a, b]))
        assert ks_two_sample(a, b)[0] == h / 8

    def test_equal_counts_everywhere(self, rng):
        a = rng.standard_normal(50)
        assert ks_two_sample(a, rng.permutation(a)) == (0.0, 1.0)
        assert ks_two_sample([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == (0.0, 1.0)

    @pytest.mark.parametrize("sizes", [(10, 11), (200, 100), (0, 0), (0, 1)])
    def test_other_sizes_refused(self, sizes):
        with pytest.raises(DomainError, match="one size"):
            ks_two_sample(np.zeros(sizes[0]), np.ones(sizes[1]))


class TestDensityReport:
    def test_component_three_probe(self, yamato, rough_hurst):
        rep = density_report(yamato, rough_hurst, 1.0, 20000, functional=3, seed=6)
        assert 0.95 <= rep["mass"] <= 1.0 + 1e-9
        assert abs(rep["skewness"]) <= 3 * rep["skewness_stderr"]
        assert rep["ks_statistic"] <= 0.02
        for rel in rep["proxy_stability_rel"].values():
            assert rel <= 0.2

    def test_refusal_names_failed_hypothesis(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        with pytest.raises(PreconditionError) as err:
            density_report([e1], rough_hurst, 1.0, 1000, functional=2)
        assert err.value.name == "Hoermander spanning"

    def test_refuses_non_constant_brackets(self, rough_hurst):
        # The flows run on this 4-nilpotent family; the density theorem's hypothesis fails.
        with pytest.raises(PreconditionError) as err:
            density_report(quadratic_shear(), rough_hurst, 1.0, 1000, functional=2)
        assert err.value.name == "constant brackets"

    def test_component_out_of_range(self, yamato, rough_hurst):
        with pytest.raises(DomainError):
            density_report(yamato, rough_hurst, 1.0, 1000, functional=4)


class TestFlowRoute:
    def test_summary_records_polynomial_route(self, yamato, rough_hurst):
        rep = density_report(yamato, rough_hurst, 1.0, 1000, functional=3, seed=2, grid_points=9)
        assert rep["flow"] == {"route": "polynomial", "degree": 2, "depth": 2, "nodes": 1}

    def test_uncertified_family_takes_rk4_route(self, rough_hurst):
        sheared = sheared_yamato()
        rep = density_report(sheared, rough_hurst, 1.0, 1000, functional=3, seed=2, grid_points=9)
        assert rep["flow"] == {"route": "rk4", "steps": FLOW_STEPS}
        a = np.array([0.3, -0.5, 0.8])
        got = flow_endpoint_samples(sheared, rough_hurst, 1.0, 500, 4, 3, [a[0] - a[2], a[1], a[2]], grid_points=17)
        y = yamato_explicit_batch(sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 3, 500, 4), a)
        assert np.max(np.abs(got - np.stack([y[:, 0] - y[:, 2], y[:, 1], y[:, 2]], axis=1))) <= 1e-10


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
