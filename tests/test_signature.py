import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.errors import DomainError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm
from roughflow.signature import (
    batch_levy_prefix,
    batch_signature_levels,
    chen_concat,
    levy_area,
    path_signature,
    segment_signature,
)

from helpers import signature_scaling_check


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
    @settings(max_examples=25, deadline=None)
    def test_associativity_level_three(self, seed):
        rng = np.random.default_rng(seed)
        a = segment_signature(rng.standard_normal(3), 3, 0.0, 0.3)
        b = segment_signature(rng.standard_normal(3), 3, 0.3, 0.6)
        c = segment_signature(rng.standard_normal(3), 3, 0.6, 1.0)
        left = chen_concat(chen_concat(a, b), c)
        right = chen_concat(a, chen_concat(b, c))
        for k in range(3):
            assert np.max(np.abs(left.levels[k] - right.levels[k])) < 1e-14

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
        prefix = batch_levy_prefix(vals[None])[0]

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

    def test_levy_prefix_matches_signature(self, fbm_path_d2):
        prefix = batch_levy_prefix(fbm_path_d2.values[None])[0]
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
