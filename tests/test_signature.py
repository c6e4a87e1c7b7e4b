import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow.errors import DomainError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow.signature import batch_signature_levels, chen_concat, path_signature

from helpers import (
    batch_levy_prefix_loop,
    batch_signature_levels_fold,
    chen_fold,
    levy_area,
    segment_signature,
    signature_scaling_check,
)


def simplex_oracle_level3(v, word, n_nodes=4001):
    """Nested-quadrature oracle over the simplex for one linear segment.

    For a linear segment each iterated integrand is constant, so the entry
    is prod(v_{w_l}) times the simplex volume, computed here by three
    cumulative trapezoid passes.
    """
    u = np.linspace(0.0, 1.0, n_nodes)
    f = np.ones_like(u)
    for _ in range(3):
        f = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(u))))
    return v[word[0] - 1] * v[word[1] - 1] * v[word[2] - 1] * f[-1]


class TestSegmentSignature:
    def test_level_one_is_increment(self):
        sig = segment_signature(np.array([1.0, 2.0]), 3)
        assert sig.value((1,)) == 1.0
        assert sig.value((2,)) == 2.0

    def test_level_two_is_half_product(self):
        sig = segment_signature(np.array([1.0, 2.0]), 3)
        assert sig.value((1, 2)) == pytest.approx(1.0)
        assert sig.value((2, 1)) == pytest.approx(1.0)

    def test_level_three_against_simplex_quadrature(self):
        v = np.array([1.0, 2.0])
        sig = segment_signature(v, 3)
        assert sig.value((1, 2, 2)) == pytest.approx(2.0 / 3.0)
        oracle = simplex_oracle_level3(v, (1, 2, 2))
        assert sig.value((1, 2, 2)) == pytest.approx(oracle, rel=1e-6)

    def test_bad_word_rejected(self):
        sig = segment_signature(np.array([1.0, 2.0]), 2)
        with pytest.raises(DomainError):
            sig.value((3,))
        with pytest.raises(DomainError):
            sig.value((1, 2, 1))


class TestChen:
    def test_trivial_segment_is_identity(self, rng):
        a = segment_signature(rng.standard_normal(3), 3, 0.0, 0.5)
        b = segment_signature(np.zeros(3), 3, 0.5, 1.0)
        c = chen_concat(a, b)
        for k in range(3):
            assert np.allclose(c.levels[k], a.levels[k])

    def test_level_two_cross_term(self, rng):
        va, vb = rng.standard_normal(2), rng.standard_normal(2)
        a = segment_signature(va, 2, 0.0, 0.5)
        b = segment_signature(vb, 2, 0.5, 1.0)
        c = chen_concat(a, b)
        for i in range(2):
            for j in range(2):
                expect = (
                    a.levels[1][i, j] + b.levels[1][i, j] + va[i] * vb[j]
                )
                assert c.levels[1][i, j] == pytest.approx(expect)

    @given(seed=st.integers(0, 10**9))
    @example(seed=11237)
    @settings(max_examples=25, deadline=None)
    def test_associativity_level_three(self, seed):
        rng = np.random.default_rng(seed)
        a = segment_signature(rng.standard_normal(3), 3, 0.0, 0.3)
        b = segment_signature(rng.standard_normal(3), 3, 0.3, 0.6)
        c = segment_signature(rng.standard_normal(3), 3, 0.6, 1.0)
        left = chen_concat(chen_concat(a, b), c)
        right = chen_concat(a, chen_concat(b, c))
        for k in range(3):
            # Level-3 entries reach about 37, where 1e-14 absolute is under 2 ulp.
            scale = max(1.0, float(np.max(np.abs(left.levels[k]))))
            assert np.max(np.abs(left.levels[k] - right.levels[k])) < 1e-14 * scale

    def test_interval_mismatch_rejected(self, rng):
        a = segment_signature(rng.standard_normal(2), 2, 0.0, 0.4)
        b = segment_signature(rng.standard_normal(2), 2, 0.6, 1.0)
        with pytest.raises(DomainError):
            chen_concat(a, b)


class TestPathSignature:
    def test_level_one_is_path_increment(self, fbm_path_d2):
        sig = path_signature(fbm_path_d2, 0.0, 1.0, 1)
        assert np.allclose(
            sig.levels[0], fbm_path_d2.values[-1] - fbm_path_d2.values[0]
        )

    def test_single_segment_matches_segment_signature(self):
        grid = TimeGrid(1.0, 2)
        p = SamplePath(grid, np.array([[0.0, 0.0], [0.7, -0.4]]), hurst=None)
        sig = path_signature(p, 0.0, 1.0, 3)
        seg = segment_signature(np.array([0.7, -0.4]), 3)
        for k in range(3):
            assert np.allclose(sig.levels[k], seg.levels[k])

    def test_level_two_against_quadrature_oracle(self):
        # Two-segment path: int (B_u - B_s) (x) dB_u on a fine linear refinement.
        grid = TimeGrid(1.0, 3)
        vals = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 0.5]])
        p = SamplePath(grid, vals, hurst=None)
        s2 = path_signature(p, 0.0, 1.0, 2).levels[1]
        tt = np.linspace(0, 1, 100001)
        fine = np.stack([np.interp(tt, grid.times, vals[:, k]) for k in range(2)], axis=1)
        db = np.diff(fine, axis=0)
        mid = 0.5 * (fine[:-1] + fine[1:]) - fine[0]
        oracle = np.einsum("ki,kj->ij", mid, db)
        assert np.max(np.abs(s2 - oracle)) < 1e-12

    def test_chen_defect_vanishes_on_grid_triples(self, fbm_path_d2):
        vals = fbm_path_d2.values
        prefix = batch_signature_levels(vals[None], 2, prefixes=True)[1][:, 0]

        def b2(i, j):
            return prefix[j] - prefix[i] - np.outer(vals[i] - vals[0], vals[j] - vals[i])

        worst = 0.0
        for i in range(0, 65, 5):
            for u in range(i + 1, 65, 7):
                for j in range(u + 1, 65, 3):
                    defect = b2(i, j) - b2(i, u) - b2(u, j)
                    cross = np.outer(vals[u] - vals[i], vals[j] - vals[u])
                    worst = max(worst, float(np.max(np.abs(defect - cross))))
        assert worst < 1e-13

    def test_matches_chen_fold_on_random_intervals(self, rough_hurst, fbm_path_d2):
        # The per-segment fold keeps levy_area, and so yamato_explicit, on an independent route.
        p3 = sample_fbm(rough_hurst, TimeGrid(1.0, 65), d=3, n_paths=1, seed=5)[0]
        rng = np.random.default_rng(13)
        for p in (fbm_path_d2, p3):
            times = p.grid.times
            for _ in range(12):
                i, j = sorted(rng.choice(65, size=2, replace=False))
                got = path_signature(p, times[i], times[j], 4)
                want = chen_fold(p, i, j, 4)
                assert (got.s, got.t, got.d, got.level) == (want.s, want.t, want.d, want.level)
                for k in range(4):
                    assert np.max(np.abs(got.levels[k] - want.levels[k])) <= 1e-14
            whole = path_signature(p, 0.0, 1.0, 4)
            for k in range(4):
                assert np.max(np.abs(whole.levels[k] - chen_fold(p, 0, 64, 4).levels[k])) <= 1e-14

    def test_empty_interval_rejected(self, fbm_path_d2):
        with pytest.raises(DomainError):
            path_signature(fbm_path_d2, 0.5, 0.5, 2)
        with pytest.raises(DomainError):
            path_signature(fbm_path_d2, 0.75, 0.25, 2)

    def test_off_grid_times_rejected(self, fbm_path_d2):
        with pytest.raises(DomainError):
            path_signature(fbm_path_d2, 0.0, 0.99, 2)

    def test_chen_identity_level_three_on_splits(self, fbm_path_d2):
        # Multiplicativity holds exactly at every level for the exact
        # piecewise-linear signature, here checked at level 3.
        full = path_signature(fbm_path_d2, 0.0, 1.0, 3)
        for mid in (0.25, 0.5, 0.75):
            glued = chen_concat(
                path_signature(fbm_path_d2, 0.0, mid, 3),
                path_signature(fbm_path_d2, mid, 1.0, 3),
            )
            for k in range(3):
                assert np.max(np.abs(glued.levels[k] - full.levels[k])) < 1e-13

    def test_shuffle_identity_level_two(self, fbm_path_d2):
        sig = path_signature(fbm_path_d2, 0.0, 1.0, 2)
        b1, b2 = sig.levels
        assert np.max(np.abs(b2 + b2.T - np.outer(b1, b1))) < 1e-13

    def test_diagonal_levy_entries(self, fbm_path_d2):
        area = levy_area(fbm_path_d2, 0.0, 1.0)
        b1 = fbm_path_d2.values[-1] - fbm_path_d2.values[0]
        assert np.allclose(np.diag(area), 0.5 * b1**2)

    @given(c=st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_dilation_scaling(self, c, fbm_path_d2):
        sig = path_signature(fbm_path_d2, 0.0, 1.0, 3)
        scaled = SamplePath(fbm_path_d2.grid, c * fbm_path_d2.values, hurst=None)
        sig_c = path_signature(scaled, 0.0, 1.0, 3)
        assert signature_scaling_check(sig, sig_c, c) < 1e-12


class TestBatchEngines:
    def test_batch_levels_match_single(self, rough_hurst):
        grid = TimeGrid(1.0, 17)
        paths = sample_fbm(rough_hurst, grid, d=2, n_paths=4, seed=8)
        vals = np.stack([p.values for p in paths])
        levels = batch_signature_levels(vals, 3)
        for i, p in enumerate(paths):
            sig = path_signature(p, 0.0, 1.0, 3)
            for k in range(3):
                assert np.max(np.abs(levels[k][i] - sig.levels[k])) < 1e-13

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        n_points=st.sampled_from([2, 3, 17, 33]),
        n_paths=st.sampled_from([1, 4]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_match_chen_fold(self, seed, n, d, n_points, n_paths, data):
        stop = data.draw(st.one_of(st.none(), st.integers(1, n_points - 1)), label="stop")
        steps = np.random.default_rng(seed).standard_normal((n_paths, n_points - 1, d))
        vals = np.concatenate([np.zeros((n_paths, 1, d)), np.cumsum(steps, axis=1)], axis=1)
        got = batch_signature_levels(vals[:, : None if stop is None else stop + 1], n)
        want = batch_signature_levels_fold(vals, n, stop)
        for k in range(n):
            assert got[k].shape == (n_paths,) + (d,) * (k + 1)
            scale = max(1.0, float(np.max(np.abs(want[k]))))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * scale

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        n_points=st.sampled_from([2, 3, 17]),
        n_paths=st.sampled_from([1, 4]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_levels_match_chen_fold_at_every_time(self, seed, n, d, n_points, n_paths, data):
        stop = data.draw(st.one_of(st.none(), st.integers(1, n_points - 1)), label="stop")
        steps = np.random.default_rng(seed).standard_normal((n_paths, n_points - 1, d))
        vals = np.concatenate([np.zeros((n_paths, 1, d)), np.cumsum(steps, axis=1)], axis=1)
        rows = n_points if stop is None else stop + 1
        got = batch_signature_levels(vals[:, :rows], n, prefixes=True)
        for j in range(rows):
            want = batch_signature_levels_fold(vals, n, j) if j else None
            for k in range(n):
                assert got[k].shape == (rows, n_paths) + (d,) * (k + 1)
                if want is None:
                    assert np.all(got[k][0] == 0.0)
                    continue
                scale = max(1.0, float(np.max(np.abs(want[k]))))
                assert np.max(np.abs(got[k][j] - want[k])) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_levels_do_not_depend_on_the_batch(self, rough_hurst, d):
        # 2^12 + 100 paths: blocks of 7 and of 2^12 both leave a ragged last block.
        n_paths = 2**12 + 100
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), d, n_paths, seed=17)
        whole = batch_signature_levels(drivers, 3)
        for block in (1, 7, 2**12):
            for s in range(0, n_paths, block):
                part = batch_signature_levels(drivers[s : s + block], 3)
                for k in range(3):
                    assert np.array_equal(part[k], whole[k][s : s + block])

    def test_invalid_arguments_rejected(self):
        vals = np.zeros((2, 5, 2))
        with pytest.raises(DomainError):
            batch_signature_levels(vals, 0)
        with pytest.raises(DomainError, match="invalid segment count"):
            batch_signature_levels(vals[:, :1], 2)

    def test_levy_prefix_matches_segment_loop(self, rough_hurst):
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 65), 3, 50, seed=9)
        got = batch_signature_levels(drivers, 2, prefixes=True)[1].transpose(1, 0, 2, 3)
        want = batch_levy_prefix_loop(drivers)
        assert got.shape == want.shape == (50, 65, 3, 3)
        assert np.all(got[:, 0] == 0.0)
        for k in range(65):
            scale = max(1.0, float(np.max(np.abs(want[:, k]))))
            assert np.max(np.abs(got[:, k] - want[:, k])) <= 1e-13 * scale

    def test_levy_prefix_matches_signature(self, fbm_path_d2):
        prefix = batch_signature_levels(fbm_path_d2.values[None], 2, prefixes=True)[1][:, 0]
        sig = path_signature(fbm_path_d2, 0.0, 0.5, 2)
        assert np.max(np.abs(prefix[32] - sig.levels[1])) < 1e-13


class TestSerialization:
    def test_json_round_trip(self):
        sig = segment_signature(np.array([1.0, -2.0]), 2)
        blob = json.loads(sig.to_json())
        assert blob["level"] == 2
        assert blob["interval"] == [0.0, 1.0]
        table = {tuple(e["word"]): e["value"] for e in blob["entries"]}
        assert table[(1,)] == 1.0
        assert table[(1, 2)] == pytest.approx(-1.0)
