import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from roughflow.errors import DomainError
from roughflow.fbm import (
    CHOLESKY_CAP,
    DH_MIN_POINTS,
    TRANSPORT_FLOATS,
    HurstParam,
    SamplePath,
    TimeGrid,
    covariance,
    covariance_matrix,
    sample_fbm,
    sample_fbm_array,
    _cholesky_with_jitter,
    _embedding_eigenvalues,
    _transport,
)

from helpers import calibrate_c, kernel_K, kernel_covariance


class TestHurstParam:
    def test_rough_regime_flag(self):
        assert HurstParam(0.4).in_rough_regime
        assert not HurstParam(0.6).in_rough_regime
        assert not HurstParam(0.25).in_rough_regime

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_range_enforced(self, bad):
        with pytest.raises(DomainError):
            HurstParam(bad)


class TestTimeGrid:
    def test_uniform_spacing(self):
        g = TimeGrid(2.0, 5)
        assert np.allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])
        assert g.mesh == 0.5

    def test_index_of_off_grid(self):
        g = TimeGrid(1.0, 5)
        assert g.index_of(0.75) == 3
        with pytest.raises(DomainError):
            g.index_of(0.3)


class TestCovariance:
    def test_diagonal_is_one_at_unit_time(self):
        for h in (0.35, 0.4, 0.45, 0.5, 0.7):
            assert covariance(1.0, 1.0, HurstParam(h)) == pytest.approx(1.0)

    def test_brownian_case_is_min(self):
        assert covariance(1.0, 2.0, HurstParam(0.5)) == pytest.approx(1.0)

    def test_rough_value(self):
        # (1 + 2^{0.8} - 1)/2 = 2^{0.8}/2
        assert covariance(1.0, 2.0, HurstParam(0.4)) == pytest.approx(2**0.8 / 2)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            covariance(-1.0, 1.0, HurstParam(0.4))

    @given(
        s=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0),
        c=st.floats(0.1, 2.0),
        h=st.floats(0.05, 0.95),
    )
    @example(s=3.0, t=2.9999999999999996, c=0.75, h=0.125)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_scaling(self, s, t, c, h):
        hp = HurstParam(h)
        assert covariance(s, t, hp) == pytest.approx(covariance(t, s, hp))
        # c*s and c*t are rounded, and their float difference need not be c*(t - s):
        # at s = 3, t = 3 - 4.4e-16, c = 0.75 it is 4.4e-16, not 3.3e-16, which moves
        # |t-s|^{2H} by 7 % at H = 1/8.  So the identity R(u, v) = c^{2H} R(u/c, v/c)
        # is evaluated exactly at the rounded inputs u, v.  The cancellation in
        # (s^{2H} + t^{2H} - |t-s|^{2H})/2 limits the attainable accuracy to ~1e-8.
        u, v = c * s, c * t
        with mpmath.workdps(60):
            two_h, scale = 2 * mpmath.mpf(h), mpmath.mpf(c)
            a, b = mpmath.mpf(u) / scale, mpmath.mpf(v) / scale
            scaled = scale**two_h * (a**two_h + b**two_h - abs(b - a) ** two_h) / 2
        assert covariance(u, v, hp) == pytest.approx(float(scaled), rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("h", [0.35, 0.4, 0.45])
    def test_matrix_factorizes_with_tiny_jitter(self, h):
        g = TimeGrid(1.0, 129)
        cov = covariance_matrix(g, HurstParam(h))
        # Succeeds with jitter well below the documented 1e-10 ceiling.
        np.linalg.cholesky(cov + 1e-12 * np.eye(128))


class TestSampling:
    def test_seed_determinism_bitwise(self, rough_hurst):
        for n_points in (33, DH_MIN_POINTS):
            g = TimeGrid(1.0, n_points)
            a = sample_fbm(rough_hurst, g, d=2, n_paths=3, seed=9)
            b = sample_fbm(rough_hurst, g, d=2, n_paths=3, seed=9)
            for pa, pb in zip(a, b):
                assert np.array_equal(pa.values, pb.values)

    def test_paths_are_the_batch_sampler_path_by_path(self, rough_hurst):
        for n_points in (33, DH_MIN_POINTS):
            g = TimeGrid(1.0, n_points)
            paths = sample_fbm(rough_hurst, g, d=2, n_paths=3, seed=9)
            batch = sample_fbm_array(rough_hurst, g, 2, 3, seed=9)
            assert len(paths) == 3
            for p, values in zip(paths, batch):
                assert np.array_equal(p.values, values)
                assert p.seed == 9 and p.hurst == rough_hurst and p.grid is g
                assert np.all(p.values[0] == 0.0)

    def test_paths_vanish_at_origin(self, rough_hurst):
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 17), d=3, n_paths=1, seed=0)[0]
        assert np.all(p.values[0] == 0.0)
        with pytest.raises(DomainError):
            SamplePath(TimeGrid(1.0, 3), np.ones((3, 1)), hurst=rough_hurst)

    def test_grid_cap(self, rough_hurst):
        with pytest.raises(DomainError):
            sample_fbm(rough_hurst, TimeGrid(1.0, CHOLESKY_CAP + 1), 1, 1, 0)

    def test_endpoint_variance_matches_law(self, rough_hurst):
        n = 4000
        vals = sample_fbm_array(rough_hurst, TimeGrid(1.0, 65), 1, n, seed=4)
        v = np.var(vals[:, -1, 0], ddof=1)
        se = v * math.sqrt(2.0 / (n - 1))
        assert abs(v - 1.0) < 3 * se

    def test_components_uncorrelated(self, rough_hurst):
        n = 4000
        vals = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), 2, n, seed=5)
        x, y = vals[:, -1, 0], vals[:, -1, 1]
        corr = np.mean(x * y)
        se = np.std(x * y, ddof=1) / math.sqrt(n)
        assert abs(corr) < 3 * se

    def test_increment_stationarity(self, rough_hurst):
        # Var(B_{t+h} - B_t) depends only on h: exact in law, checked by MC.
        n = 4000
        vals = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), 1, n, seed=6)[:, :, 0]
        h_steps = 8  # h = 0.25
        for start in (0, 8, 16):
            inc = vals[:, start + h_steps] - vals[:, start]
            v = np.var(inc, ddof=1)
            target = 0.25 ** (2 * rough_hurst.value)
            se = v * math.sqrt(2.0 / (n - 1))
            assert abs(v - target) < 3 * se

    def test_array_sampler_deterministic(self, rough_hurst):
        for n_points in (17, DH_MIN_POINTS):
            g = TimeGrid(1.0, n_points)
            a = sample_fbm_array(rough_hurst, g, 2, 5, seed=3)
            b = sample_fbm_array(rough_hurst, g, 2, 5, seed=3)
            assert np.array_equal(a, b)
            assert a.shape == (5, n_points, 2) and np.all(a[:, 0] == 0.0)


def reference_sample_fbm_array(hurst, grid, d, n_paths, seed):
    """The unblocked sampler: one transport of the whole batch, then a
    path-major copy.  Oracle of the in-place time-major sampler."""
    k, apply = _transport(grid, hurst)
    n = grid.n_points - 1
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = apply(rng.standard_normal((k, n_paths * d)))
    out = np.zeros((n_paths, grid.n_points, d))
    out[:, 1:, :] = g.reshape(n, n_paths, d).transpose(1, 0, 2)
    return out


class TestInPlaceSampler:
    @pytest.mark.parametrize("n_points", [33, 257, DH_MIN_POINTS])
    def test_matches_unblocked_sampler_bitwise(self, rough_hurst, n_points):
        g = TimeGrid(1.0, n_points)
        k, _ = _transport(g, rough_hurst)
        block = 1 << (TRANSPORT_FLOATS // k).bit_length() - 1
        # Columns below, at and above one block, the last not a multiple of it.
        for d, n_paths in ((1, block - 1), (1, block), (1, 2 * block + 3), (3, block // 2 + 1)):
            a = sample_fbm_array(rough_hurst, g, d, n_paths, seed=8)
            b = reference_sample_fbm_array(rough_hurst, g, d, n_paths, seed=8)
            assert a.shape == (n_paths, n_points, d)
            assert np.array_equal(a, b)
            assert np.all(a[:, 0] == 0.0)


def root_buffer(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


class TestPathBuffers:
    def test_davies_harte_path_holds_only_its_own_bytes(self, rough_hurst):
        g = TimeGrid(1.0, DH_MIN_POINTS)
        p = sample_fbm(rough_hurst, g, 1, 1, seed=6)[0]
        assert p.values.nbytes == 8 * DH_MIN_POINTS
        assert root_buffer(p.values).nbytes == p.values.nbytes
        assert np.array_equal(p.values, reference_sample_fbm_array(rough_hurst, g, 1, 1, seed=6)[0])
        batch = sample_fbm_array(rough_hurst, g, 3, 2, seed=6)
        assert root_buffer(batch).nbytes == batch.nbytes
        assert np.array_equal(batch, reference_sample_fbm_array(rough_hurst, g, 3, 2, seed=6))

    def test_cholesky_route_holds_only_the_batch(self, rough_hurst):
        # Its normal buffer has the batch's own n + 1 rows, so it is returned as a view.
        batch = sample_fbm_array(rough_hurst, TimeGrid(1.0, 257), 2, 3, seed=6)
        assert root_buffer(batch).nbytes == batch.nbytes


class TestTransport:
    """The samplers are linear in their normals: pushing the identity through
    the transport gives its matrix A, whose law is fixed by A A^T."""

    @pytest.mark.parametrize("h", [0.4, 0.7])
    def test_circulant_embedding_reproduces_covariance(self, h):
        g = TimeGrid(1.0, DH_MIN_POINTS)
        k, apply = _transport(g, HurstParam(h))
        assert k == 2 * (g.n_points - 1)
        # Identity columns in blocks keep the transient arrays small.
        a = np.hstack([apply(np.eye(k, 512, -i)) for i in range(0, k, 512)])
        cov = covariance_matrix(g, HurstParam(h))
        assert np.max(np.abs(a @ a.T - cov)) <= 1e-12

    @pytest.mark.parametrize("n_points", [DH_MIN_POINTS, CHOLESKY_CAP])
    def test_one_pass_coefficients_match_two_pass(self, rough_hurst, n_points):
        g = TimeGrid(1.0, n_points)
        n = n_points - 1
        k, apply = _transport(g, rough_hurst)
        z = np.random.default_rng(n).standard_normal((k, 37))
        scale = np.sqrt(n * _embedding_eigenvalues(g, rough_hurst))
        scale[[0, n]] *= math.sqrt(2.0)
        coef = (scale[:, None] * z[: n + 1]).astype(complex)
        coef[1:n].imag = scale[1:n, None] * z[n + 1 :]
        two_pass = np.cumsum(np.fft.irfft(coef, n=2 * n, axis=0)[:n], axis=0)
        assert np.array_equal(apply(z), two_pass)

    def test_short_grids_keep_the_cholesky_factor(self, rough_hurst):
        g = TimeGrid(1.0, 1025)
        k, apply = _transport(g, rough_hurst)
        factor, _ = _cholesky_with_jitter(covariance_matrix(g, rough_hurst))
        assert k == g.n_points - 1
        assert np.array_equal(apply(np.eye(k)), factor)

    def test_embedding_eigenvalues_positive_across_hurst(self):
        g = TimeGrid(1.0, CHOLESKY_CAP)
        for h in np.linspace(0.01, 0.99, 99):
            assert _embedding_eigenvalues(g, HurstParam(float(h))).min() > 0.0


class TestVolterraKernel:
    def test_zero_outside_domain(self):
        assert kernel_K(1.0, 1.5, 0.4) == 0.0
        assert kernel_K(1.0, 1.0, 0.4) == 0.0
        assert kernel_K(1.0, 0.0, 0.4) == 0.0

    @pytest.mark.parametrize("h", [0.35, 0.4, 0.45])
    def test_calibration_matches_beta_identity(self, h):
        # Independent closed form for the same normalization:
        # c_H^2 = 2H / ((1-2H) B(1-2H, H+1/2)).
        closed = math.sqrt(2 * h / ((1 - 2 * h) * beta_fn(1 - 2 * h, h + 0.5)))
        assert calibrate_c(h) == pytest.approx(closed, rel=1e-6)

    def test_square_integral_recovers_power_law(self):
        # int_0^t K(t,r)^2 dr = t^{2H} under the calibration convention.
        for t in (0.5, 1.0):
            val = kernel_covariance(t, t, 0.4)
            assert val == pytest.approx(t**0.8, rel=1e-3)

    def test_cross_integral_recovers_covariance(self):
        val = kernel_covariance(0.5, 1.0, 0.4)
        assert val == pytest.approx(covariance(0.5, 1.0, HurstParam(0.4)), rel=1e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            kernel_K(1.0, -0.5, 0.4)
