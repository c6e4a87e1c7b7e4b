import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughflow.controlled import RoughDriver, rde_solve
from roughflow.densitylab import yamato_explicit
from roughflow.errors import BlowUpError, DomainError, PreconditionError
from roughflow.fbm import HurstParam, SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow.liefields import PolyVectorField, parse_polynomial
from roughflow.signature import batch_signature_levels, chen_concat, path_signature
from roughflow.strichartz import (
    bracket_table,
    build_Z,
    build_Z_batch,
    descent_count,
    exp_flow,
    exp_flow_batch,
    psi,
    psi_batch,
    rk4,
    strichartz_solve,
)

from helpers import coefficient_abs_sum, psi_table


def interpreted_exp_flow_batch(terms, a, steps):
    """The term-by-term route the compiled batched flow replaced (its oracle).

    Every RK4 stage reads each bracket field's exact Fraction polynomials
    through ``Polynomial.__call__`` and weights it by the per-path psi.
    """
    n_paths, m = terms[0][1].shape[0], terms[0][0].m

    def rhs(y):
        out = np.zeros_like(y)
        for fld, scalars in terms:
            out += scalars[:, None] * np.stack([c(y) for c in fld.components], axis=-1)
        return out

    return rk4(rhs, np.broadcast_to(np.asarray(a, dtype=float), (n_paths, m)).copy(), steps)


class TestDescents:
    def test_identity_has_none(self):
        for k in (1, 2, 5):
            assert descent_count(tuple(range(1, k + 1))) == 0

    def test_swap(self):
        assert descent_count((2, 1)) == 1

    def test_three_one_two(self):
        assert descent_count((3, 1, 2)) == 1

    def test_reversal_has_all(self):
        assert descent_count((4, 3, 2, 1)) == 3

    def test_invalid_permutation(self):
        with pytest.raises(DomainError):
            descent_count((1, 3))


class TestPsi:
    def test_level_one_is_increment(self, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        for i in (1, 2, 3):
            assert psi(sig, (i,)) == sig.value((i,))

    def test_level_two_quarter_difference(self, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        for i, j in ((1, 2), (2, 3), (3, 1)):
            expect = 0.25 * (sig.value((i, j)) - sig.value((j, i)))
            assert psi(sig, (i, j)) == pytest.approx(expect, abs=1e-15)

    def test_level_two_antisymmetry(self, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        tab = psi_table(sig, 2)
        for i in (1, 2, 3):
            assert tab[(i, i)] == 0.0
            for j in range(1, 4):
                assert tab[(i, j)] == pytest.approx(-tab[(j, i)], abs=1e-15)

    def test_word_longer_than_signature(self, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            psi(sig, (1, 2, 3))

    def test_coefficient_sums_by_enumeration(self):
        # Eulerian-count closed form: sum over descents e of A(k,e)/(k^2 C(k-1,e)).
        eulerian = {1: [1], 2: [1, 1], 3: [1, 4, 1], 4: [1, 11, 11, 1], 5: [1, 26, 66, 26, 1]}
        for k, counts in eulerian.items():
            expect = sum(
                a / (k**2 * math.comb(k - 1, e)) for e, a in enumerate(counts)
            )
            assert coefficient_abs_sum(k) == pytest.approx(expect, abs=1e-14)
        # The sums stay bounded by 1 through k = 4 and peak at 26/25 for k = 5.
        for k in (1, 2, 3, 4):
            assert coefficient_abs_sum(k) <= 1.0
        assert coefficient_abs_sum(5) == pytest.approx(26.0 / 25.0)


class TestBuildZ:
    def test_commuting_fields_keep_level_one_only(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 9), d=2, n_paths=1, seed=3)[0]
        sig = path_signature(p, 0.0, 1.0, 1)
        z = build_Z([e1, e2], sig, 2)
        words = sorted(w for w, _, _ in z.terms)
        assert words == [(1,), (2,)]
        b1 = p.values[-1] - p.values[0]
        assert np.allclose(z(np.zeros(2)), b1)

    def test_yamato_assembly(self, yamato, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        z = build_Z(yamato, sig, 3)
        assert z.degree == 1
        words = sorted((w for w, _, _ in z.terms), key=lambda w: (len(w), w))
        assert words == [(2,), (3,), (2, 3), (3, 2)]
        # Z(y) = (psi^2, psi^3, 2 y2 psi^2 - 2 y1 psi^3 - 4 (psi^23 - psi^32))
        p2, p3 = psi(sig, (2,)), psi(sig, (3,))
        p23, p32 = psi(sig, (2, 3)), psi(sig, (3, 2))
        y = np.array([0.3, -0.4, 0.9])
        expect = np.array(
            [p2, p3, 2 * y[1] * p2 - 2 * y[0] * p3 - 4 * (p23 - p32)]
        )
        assert np.max(np.abs(z(y) - expect)) < 1e-14

    def test_zero_path_gives_empty_flow(self, yamato):
        grid = TimeGrid(1.0, 5)
        p = SamplePath(grid, np.zeros((5, 3)), hurst=None)
        sig = path_signature(p, 0.0, 1.0, 2)
        z = build_Z(yamato, sig, 3)
        assert z.terms == ()
        assert np.allclose(exp_flow(z, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_nilpotency_enforced(self, fbm_path_d3):
        # dilation-like fields are not nilpotent at any order
        grow = PolyVectorField(
            (parse_polynomial("x1", 3), parse_polynomial("x2", 3), parse_polynomial("x3", 3))
        )
        e1 = PolyVectorField(
            (parse_polynomial("1", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        with pytest.raises(PreconditionError) as err:
            build_Z([grow, e1, PolyVectorField.zero(3)], sig, 3)
        assert err.value.name == "nilpotency"
        # the override flag exists for callers who certified it themselves
        build_Z([grow, e1, PolyVectorField.zero(3)], sig, 3, check_nilpotency=False)

    def test_bracket_table_prunes_zeros(self, yamato):
        table = bracket_table(yamato, 3)
        assert (1,) not in table  # the zero field never enters
        assert set(table) == {(2,), (3,), (2, 3), (3, 2)}


class TestExpFlow:
    def test_zero_field(self):
        z = PolyVectorField.zero(3)
        a = np.array([1.0, -2.0, 0.5])
        assert np.allclose(exp_flow(z, a), a)

    def test_constant_field_translates(self):
        z = PolyVectorField(
            (parse_polynomial("2", 2), parse_polynomial("-1", 2))
        )
        assert np.allclose(exp_flow(z, np.zeros(2)), [2.0, -1.0])

    def test_linear_field_exponential(self):
        z = PolyVectorField((parse_polynomial("x1", 1),))
        val = exp_flow(z, np.array([1.0]), steps=256)
        assert abs(val[0] - math.e) < 1e-10
        # fourth-order convergence in the step count
        coarse = exp_flow(z, np.array([1.0]), steps=32)
        ratio = abs(coarse[0] - math.e) / abs(val[0] - math.e)
        assert ratio > 1000  # (256/32)^4 = 4096 up to rounding

    def test_blow_up(self):
        z = PolyVectorField((parse_polynomial("x1^3", 1),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                exp_flow(z, np.array([100.0]), steps=64)


class TestStrichartzSolve:
    def test_commuting_constant_fields_exact(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 9), d=2, n_paths=1, seed=3)[0]
        a = np.array([1.0, 2.0])
        out = strichartz_solve([e1, e2], p, a, 1.0, 2)
        assert np.max(np.abs(out - (a + p.values[-1]))) < 1e-13

    def test_matches_explicit_solution(self, yamato, fbm_path_d3):
        a = np.array([0.3, -0.5, 0.9])
        ours = strichartz_solve(yamato, fbm_path_d3, a, 1.0, 3)
        explicit = yamato_explicit(fbm_path_d3, a, 1.0)
        assert np.max(np.abs(ours - explicit)) < 1e-10

    def test_matches_rde_endpoint(self, yamato, fbm_path_d3):
        a = np.array([0.1, 0.2, -0.3])
        ours = strichartz_solve(yamato, fbm_path_d3, a, 1.0, 3)
        y, _ = rde_solve(yamato, a, RoughDriver.from_path(fbm_path_d3))
        assert np.max(np.abs(ours - y.values[-1])) < 1e-4

    def test_flow_composition_under_chen(self, yamato, fbm_path_d3):
        # Signature over [0, 1] assembled from halves gives the same flow.
        a = np.array([0.0, 0.0, 0.0])
        sig_full = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        sig_glued = chen_concat(
            path_signature(fbm_path_d3, 0.0, 0.5, 2),
            path_signature(fbm_path_d3, 0.5, 1.0, 2),
        )
        za = build_Z(yamato, sig_full, 3)
        zb = build_Z(yamato, sig_glued, 3)
        assert np.max(
            np.abs(exp_flow(za, a) - exp_flow(zb, a))
        ) < 1e-13

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_explicit_agreement_random_drivers(self, seed, yamato):
        grid = TimeGrid(1.0, 17)
        p = sample_fbm(HurstParam(0.4), grid, d=3, n_paths=1, seed=seed)[0]
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3)
        ours = strichartz_solve(yamato, p, a, 1.0, 3)
        assert np.max(np.abs(ours - yamato_explicit(p, a, 1.0))) < 1e-10


class TestBatchEngine:
    def test_batch_matches_per_path_solve(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 17)
        drivers = sample_fbm_array(rough_hurst, grid, 3, 6, seed=9)
        levels = batch_signature_levels(drivers, 2)
        terms = build_Z_batch(yamato, levels, 3)
        a = np.array([0.4, -0.2, 0.7])
        batch = exp_flow_batch(terms, a, steps=256)
        for i in range(6):
            p = SamplePath(grid, drivers[i], hurst=rough_hurst)
            single = strichartz_solve(yamato, p, a, 1.0, 3)
            assert np.max(np.abs(batch[i] - single)) < 1e-12

    def test_compiled_flow_matches_interpreted_oracle(self, yamato, rough_hurst):
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 3, 300, seed=4)
        terms = build_Z_batch(yamato, batch_signature_levels(drivers, 2), 3)
        a = np.array([0.4, -0.2, 0.7])
        fast = exp_flow_batch(terms, a, steps=64)
        assert np.max(np.abs(fast - interpreted_exp_flow_batch(terms, a, 64))) < 1e-12

    def test_compiled_flow_oracle_degree_two_family(self, rough_hurst):
        # V1 = d/dx1, V2 = x1^2 d/dx2: [V1, V2] = 2 x1 d/dx2 is not constant,
        # [[V1, V2], V1] = -2 d/dx2, and every order-4 bracket vanishes.
        v1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1^2", 2)))
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 2, 200, seed=6)
        terms = build_Z_batch([v1, v2], batch_signature_levels(drivers, 3), 4)
        assert max(fld.degree for fld, _ in terms) == 2
        a = np.random.default_rng(6).standard_normal((200, 2))  # one start per path
        fast = exp_flow_batch(terms, a, steps=64)
        assert np.max(np.abs(fast - interpreted_exp_flow_batch(terms, a, 64))) < 1e-12

    def test_psi_batch_matches_scalar(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 17)
        drivers = sample_fbm_array(rough_hurst, grid, 3, 4, seed=2)
        levels = batch_signature_levels(drivers, 2)
        for word in ((2,), (2, 3), (3, 2)):
            batch = psi_batch(levels, word)
            for i in range(4):
                p = SamplePath(grid, drivers[i], hurst=rough_hurst)
                sig = path_signature(p, 0.0, 1.0, 2)
                assert batch[i] == pytest.approx(psi(sig, word), abs=1e-14)
