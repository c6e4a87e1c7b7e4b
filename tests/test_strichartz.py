import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughflow.controlled import RoughDriver, rde_solve
from roughflow.densitylab import flow_endpoint_samples, yamato_explicit_batch
from roughflow.errors import BlowUpError, DomainError, PreconditionError
from roughflow.fbm import HurstParam, SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow.flows import jacobian_path_strichartz, malliavin_via_jacobian
from roughflow.liefields import CompiledField, FieldFamily, PolyVectorField, flow_certificate, parse_polynomial
from roughflow.signature import batch_signature_levels, chen_concat, path_signature
from roughflow import liefields, strichartz
from roughflow.strichartz import (
    build_Z_batch,
    descent_count,
    exp_flow_batch,
    flow_route,
    frozen_flow,
    polynomial_flow,
    psi_batch,
    rk4,
    strichartz_solve,
    variational,
)

from helpers import (
    augmented,
    augmented_jacobian_fields,
    chain_family,
    coefficient_abs_sum,
    evaluate,
    frozen_field,
    gauss_legendre_golub_welsch,
    prefix_signatures,
    psi,
    sheared_yamato,
    triangular_families,
    yamato_explicit,
)


def signature_levels(p, level):
    """Signature tables of one path over its whole grid, as a batch of one."""
    return batch_signature_levels(p.values[None], level)


def frozen(fields, n, weights):
    """Z_t from ``build_Z_batch``'s psi rows as one compiled field per path, as ``exp_flow_batch`` sums it."""
    return CompiledField.stack(list(FieldFamily.of(fields).brackets(n).values())).weighted(weights)


def weighted_flow(fields, weights, a, steps=256):
    """[exp(sum_f weights[f] V_f)](a) per path: at n = 2 the brackets are the
    nonzero fields, so the rows of zero fields drop."""
    keep = [not fld.is_zero for fld in fields]
    return exp_flow_batch(fields, 2, np.asarray(weights, dtype=float)[keep], a, steps)


def flow_once(z, a, steps=256):
    """[exp(z)](a) for one field ``z``: ``exp_flow_batch`` on a batch of one."""
    return weighted_flow([z], np.ones((1, 1)), a, steps)[0]


def interpreted_exp_flow_batch(fields, n, weights, a, steps):
    """The term-by-term route the compiled batched flow replaced (its oracle).

    Every RK4 stage reads each bracket field's exact Fraction polynomials
    through ``helpers.evaluate`` and weights it by the per-path psi.
    """
    terms = list(zip(FieldFamily.of(fields).brackets(n).values(), weights))
    n_paths, m = weights.shape[1], terms[0][0].m

    def rhs(y):
        out = np.zeros_like(y)
        for fld, scalars in terms:
            out += scalars[:, None] * np.stack([evaluate(c, y) for c in fld.components], axis=-1)
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
        levels = signature_levels(fbm_path_d3, 2)
        for i in (1, 2, 3):
            assert psi_batch(levels, (i,))[0] == levels[0][0, i - 1]

    def test_level_two_quarter_difference(self, fbm_path_d3):
        levels = signature_levels(fbm_path_d3, 2)
        b2 = levels[1][0]
        for i, j in ((1, 2), (2, 3), (3, 1)):
            expect = 0.25 * (b2[i - 1, j - 1] - b2[j - 1, i - 1])
            assert psi_batch(levels, (i, j))[0] == pytest.approx(expect, abs=1e-15)

    def test_level_two_antisymmetry(self, fbm_path_d3):
        levels = signature_levels(fbm_path_d3, 2)
        for i in (1, 2, 3):
            assert psi_batch(levels, (i, i))[0] == 0.0
            for j in range(1, 4):
                assert psi_batch(levels, (i, j))[0] == pytest.approx(-psi_batch(levels, (j, i))[0], abs=1e-15)

    def test_word_longer_than_signature(self, yamato, fbm_path_d3):
        sig = path_signature(fbm_path_d3, 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            psi(sig, (1, 2, 3))
        # Order 4 reads level-3 words, which a level-2 table does not hold.
        with pytest.raises(DomainError):
            build_Z_batch(yamato, signature_levels(fbm_path_d3, 2), 4)

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
        weights = build_Z_batch([e1, e2], signature_levels(p, 1), 2)
        assert list(FieldFamily.of([e1, e2]).brackets(2)) == [(1,), (2,)]
        assert weights.shape == (2, 1)
        b1 = p.values[-1] - p.values[0]
        assert np.allclose(frozen([e1, e2], 2, weights)(np.zeros((2, 1)))[:, 0], b1)

    def test_yamato_assembly(self, yamato, fbm_path_d3):
        weights = build_Z_batch(yamato, signature_levels(fbm_path_d3, 2), 3)
        assert max(c.degree for fld in FieldFamily.of(yamato).brackets(3).values() for c in fld.components) == 1
        words = sorted(FieldFamily.of(yamato).brackets(3), key=lambda w: (len(w), w))
        assert words == [(2,), (3,), (2, 3), (3, 2)]
        # Z(y) = (psi^2, psi^3, 2 y2 psi^2 - 2 y1 psi^3 - 4 (psi^23 - psi^32)), psi by the oracle.
        sig = prefix_signatures(fbm_path_d3, 64, 2)[64]
        p2, p3 = psi(sig, (2,)), psi(sig, (3,))
        p23, p32 = psi(sig, (2, 3)), psi(sig, (3, 2))
        y = np.array([0.3, -0.4, 0.9])
        expect = np.array(
            [p2, p3, 2 * y[1] * p2 - 2 * y[0] * p3 - 4 * (p23 - p32)]
        )
        assert np.max(np.abs(frozen(yamato, 3, weights)(y[:, None])[:, 0] - expect)) < 1e-14

    def test_zero_path_gives_empty_flow(self, yamato):
        grid = TimeGrid(1.0, 5)
        p = SamplePath(grid, np.zeros((5, 3)), hurst=None)
        weights = build_Z_batch(yamato, signature_levels(p, 2), 3)
        assert weights.shape == (4, 1) and np.all(weights == 0.0)
        a = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(strichartz_solve(yamato, p, a, 1.0, 3), a)

    def test_nilpotency_enforced(self, fbm_path_d3):
        # dilation-like fields are not nilpotent at any order
        grow = PolyVectorField(
            (parse_polynomial("x1", 3), parse_polynomial("x2", 3), parse_polynomial("x3", 3))
        )
        e1 = PolyVectorField(
            (parse_polynomial("1", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        fields = [grow, e1, PolyVectorField.zero(3)]
        with pytest.raises(PreconditionError) as err:
            build_Z_batch(fields, signature_levels(fbm_path_d3, 2), 3)
        assert err.value.name == "nilpotency"
        with pytest.raises(PreconditionError) as err:
            strichartz_solve(fields, fbm_path_d3, np.zeros(3), 1.0, 3)
        assert err.value.name == "nilpotency"

    def test_bad_inputs_raise_domain_error(self, yamato, fbm_path_d3, fbm_path_d2):
        levels = signature_levels(fbm_path_d3, 2)
        with pytest.raises(DomainError, match="order must be >= 2"):
            build_Z_batch(yamato, levels, 1)
        with pytest.raises(DomainError, match="need signature level >= 2"):
            build_Z_batch(yamato, levels[:1], 3)
        with pytest.raises(DomainError, match="3 fields for alphabet size 2"):
            build_Z_batch(yamato, signature_levels(fbm_path_d2, 2), 3)

    def test_bracket_table_prunes_zeros(self, yamato):
        table = FieldFamily.of(yamato).brackets(3)
        assert (1,) not in table  # the zero field never enters
        assert set(table) == {(2,), (3,), (2, 3), (3, 2)}


class TestExpFlow:
    def test_zero_field(self):
        z = PolyVectorField.zero(3)
        a = np.array([1.0, -2.0, 0.5])
        assert np.allclose(flow_once(z, a), a)

    def test_constant_field_translates(self):
        z = PolyVectorField(
            (parse_polynomial("2", 2), parse_polynomial("-1", 2))
        )
        assert np.allclose(flow_once(z, np.zeros(2)), [2.0, -1.0])

    def test_linear_field_exponential(self):
        # x1 d1 reads itself: no flow certificate, so the flow runs RK4.
        z = PolyVectorField((parse_polynomial("x1", 1),))
        val = flow_once(z, np.array([1.0]), steps=256)
        assert abs(val[0] - math.e) < 1e-10
        # fourth-order convergence in the step count
        coarse = flow_once(z, np.array([1.0]), steps=32)
        ratio = abs(coarse[0] - math.e) / abs(val[0] - math.e)
        assert ratio > 1000  # (256/32)^4 = 4096 up to rounding

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 3), (5, 2)])
    def test_wrong_initial_shape_raises(self, yamato, shape):
        psi = np.zeros((len(FieldFamily.of(yamato).brackets(3)), 5))
        with pytest.raises(DomainError):
            exp_flow_batch(yamato, 3, psi, np.zeros(shape))

    def test_blow_up(self):
        z = PolyVectorField((parse_polynomial("x1^3", 1),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                flow_once(z, np.array([100.0]), steps=64)


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
        ya, yb = (
            exp_flow_batch(yamato, 3, build_Z_batch(yamato, [lvl[None] for lvl in sig.levels], 3), a)[0]
            for sig in (sig_full, sig_glued)
        )
        assert np.max(np.abs(ya - yb)) < 1e-13
        assert np.array_equal(ya, strichartz_solve(yamato, fbm_path_d3, a, 1.0, 3))

    def test_matches_explicit_solution_at_every_grid_time(self, yamato, fbm_path_d3):
        a = np.array([0.3, -0.5, 0.9])
        for t in fbm_path_d3.grid.times[1:]:
            ours = strichartz_solve(yamato, fbm_path_d3, a, t, 3)
            assert np.max(np.abs(ours - yamato_explicit(fbm_path_d3, a, t))) <= 1e-13

    def test_uncertified_family_matches_rk4_oracle(self, fbm_path_d3):
        sheared = sheared_yamato()
        assert FieldFamily.of(sheared).flow_certificate(3) is None
        a = np.array([0.3, -0.5, 0.9])
        sig = prefix_signatures(fbm_path_d3, 64, 2)[64]
        want = rk4(frozen_field(sheared, sig, 3), a, 64)
        assert np.max(np.abs(strichartz_solve(sheared, fbm_path_d3, a, 1.0, 3, steps=64) - want)) <= 1e-13

    def test_start_time_rejected(self, yamato, fbm_path_d3):
        with pytest.raises(DomainError):
            strichartz_solve(yamato, fbm_path_d3, np.zeros(3), 0.0, 3)

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
        weights = build_Z_batch(yamato, levels, 3)
        a = np.array([0.4, -0.2, 0.7])
        batch = exp_flow_batch(yamato, 3, weights, a, steps=256)
        for i in range(6):
            p = SamplePath(grid, drivers[i], hurst=rough_hurst)
            single = strichartz_solve(yamato, p, a, 1.0, 3)
            assert np.max(np.abs(batch[i] - single)) < 1e-12

    def test_compiled_flow_matches_interpreted_oracle(self, yamato, rough_hurst):
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 3, 300, seed=4)
        weights = build_Z_batch(yamato, batch_signature_levels(drivers, 2), 3)
        a = np.array([0.4, -0.2, 0.7])
        fast = exp_flow_batch(yamato, 3, weights, a, steps=64)
        assert np.max(np.abs(fast - interpreted_exp_flow_batch(yamato, 3, weights, a, 64))) < 1e-12

    def test_compiled_flow_oracle_degree_two_family(self, rough_hurst):
        # V1 = d/dx1, V2 = x1^2 d/dx2: [V1, V2] = 2 x1 d/dx2 is not constant,
        # [[V1, V2], V1] = -2 d/dx2, and every order-4 bracket vanishes.
        v1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1^2", 2)))
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 2, 200, seed=6)
        weights = build_Z_batch([v1, v2], batch_signature_levels(drivers, 3), 4)
        assert max(c.degree for fld in FieldFamily.of([v1, v2]).brackets(4).values() for c in fld.components) == 2
        a = np.random.default_rng(6).standard_normal((200, 2))  # one start per path
        fast = exp_flow_batch([v1, v2], 4, weights, a, steps=64)
        assert np.max(np.abs(fast - interpreted_exp_flow_batch([v1, v2], 4, weights, a, 64))) < 1e-12

    def test_psi_batch_matches_scalar(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 17)
        drivers = sample_fbm_array(rough_hurst, grid, 3, 4, seed=2)
        levels = batch_signature_levels(drivers, 2)
        for word in ((2,), (2, 3), (3, 2)):
            batch = psi_batch(levels, word)
            for i in range(4):
                p = SamplePath(grid, drivers[i], hurst=rough_hurst)
                sig = prefix_signatures(p, 16, 2)[16]
                assert batch[i] == pytest.approx(psi(sig, word), abs=1e-14)


class TestFamilyFlow:
    """Z_t is (family, n, psi): the flow reads the family's kept bracket stack and certificate."""

    def test_warm_family_compiles_nothing(self, yamato, fbm_path_d3, rough_hurst, monkeypatch):
        monkeypatch.setattr(liefields, "_FAMILIES", {})
        a = np.array([0.3, -0.5, 0.9])

        def run():
            return (
                strichartz_solve(yamato, fbm_path_d3, a, 1.0, 3),
                jacobian_path_strichartz(yamato, fbm_path_d3, a, 3)[1].J,
                flow_endpoint_samples(yamato, rough_hurst, 1.0, 64, seed=5, n=3, initial=a, grid_points=17),
                malliavin_via_jacobian(yamato, fbm_path_d3, a, 0.5, 3).values,
            )

        warm = run()
        family = FieldFamily.of(yamato)
        assert set(liefields._FAMILIES) == {family.key}

        def refuse(fields):
            raise AssertionError("a warm family was compiled again")

        monkeypatch.setattr(CompiledField, "stack", staticmethod(refuse))
        for before, after in zip(warm, run()):
            assert np.array_equal(before, after)
        assert set(liefields._FAMILIES) == {family.key}

    @pytest.mark.parametrize("case, route", [("yamato", "polynomial"), ("augmented", "polynomial"), ("sheared", "rk4")])
    def test_route_run_is_the_route_recorded(self, case, route, yamato, rough_hurst, monkeypatch):
        base = FieldFamily.of(sheared_yamato() if case == "sheared" else yamato)
        family = augmented(base) if case == "augmented" else base
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 17), 3, 4, seed=7)
        weights = build_Z_batch(family, batch_signature_levels(drivers, 2), 3)
        ran = []
        for name, label in (("polynomial_flow", "polynomial"), ("rk4", "rk4")):
            real = getattr(strichartz, name)
            monkeypatch.setattr(strichartz, name, lambda *args, real=real, label=label: ran.append(label) or real(*args))
        exp_flow_batch(family, 3, weights, np.zeros(family.m), steps=8)
        assert ran == [flow_route(family, 3, 8)["route"]] == [route]

    def test_zero_family_is_the_identity(self, rough_hurst):
        zero = [PolyVectorField.zero(3)] * 2
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 9), 2, 5, seed=1)
        a = np.random.default_rng(2).standard_normal((5, 3))
        for n in (2, 3):
            weights = build_Z_batch(zero, batch_signature_levels(drivers, n - 1), n)
            assert weights.shape == (0, 5)
            assert np.array_equal(exp_flow_batch(zero, n, weights, a), a)
            assert np.array_equal(exp_flow_batch(zero, n, weights, a[0]), np.broadcast_to(a[0], (5, 3)))

    def test_psi_rows_must_match_the_brackets(self, yamato):
        with pytest.raises(DomainError, match=r"psi must be \(4, n_paths\)"):
            exp_flow_batch(yamato, 3, np.ones((3, 2)), np.zeros(3))


class TestVariational:
    """The tangent columns of ``variational`` against the flow of the augmented (y, J, J^{-1}) fields."""

    @given(fields=triangular_families(), seed=st.integers(0, 2**32 - 1))
    @example(fields=chain_family(), seed=0)
    @settings(max_examples=25, deadline=None)
    def test_tangent_columns_match_the_augmented_flow(self, fields, seed):
        certificate, aug = flow_certificate(fields), augmented_jacobian_fields(fields)
        assert certificate is not None and flow_certificate(aug) is not None
        rng = np.random.default_rng(seed)
        n_paths, m = 4, fields[0].m
        weights = rng.uniform(-1.0, 1.0, (len(fields), n_paths))
        a = rng.uniform(-1.0, 1.0, (m, n_paths))
        stack, eye = CompiledField.stack(fields), np.eye(m)

        def tangent_flow(z, y0):
            start = np.concatenate([y0[..., None], np.broadcast_to(eye[:, None], (m, n_paths, m))], axis=-1)
            end = frozen_flow(variational(z), start, certificate, steps=1)
            return end[..., 0], end[..., 1:].transpose(1, 0, 2)

        y, J = tangent_flow(stack.weighted(weights), a)
        J_inv = tangent_flow(stack.weighted(-weights), y)[1]
        identity = np.broadcast_to(eye.reshape(m * m, 1), (m * m, n_paths))
        start = np.vstack([a, identity, identity])
        want = polynomial_flow(CompiledField.stack(aug).weighted(weights), start, *flow_certificate(aug))
        blocks = (want[:m].T, want[m : m + m * m].T.reshape(n_paths, m, m), want[m + m * m :].T.reshape(n_paths, m, m))
        for got, expect in zip((y.T, J, J_inv), blocks):
            assert np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect))) <= 1e-12

    def test_chain_family_is_deep_and_of_high_degree(self):
        # The explicit example above: depth 3 and degree 3.
        assert flow_certificate(chain_family()) == (3, 3)


def triangular_flow_closed_form(components, weights, a):
    """Time-1 flow of sum_i weights[i] c_i(x) d_i, where c_i reads only x_1 .. x_{i-1},
    one component after another by exact polynomial integration in s."""
    out = np.empty_like(a)
    for p in range(a.shape[0]):
        y = []
        for i, comp in enumerate(components):
            rhs = np.polynomial.Polynomial([0.0])
            for expo, c in parse_polynomial(comp, len(components)).terms.items():
                term = np.polynomial.Polynomial([float(c)])
                for k, e in enumerate(expo[:i]):
                    term = term * y[k] ** e
                rhs = rhs + term
            y.append(a[p, i] + weights[i, p] * rhs.integ())
        out[p] = [yi(1.0) for yi in y]
    return out


class TestPolynomialFlow:
    @given(fields=triangular_families(), seed=st.integers(0, 2**32 - 1))
    @example(fields=[PolyVectorField(tuple(parse_polynomial(c, 4) for c in ("1", "x1^2", "x2^2", "x3^2")))], seed=0)
    @settings(max_examples=25, deadline=None)
    def test_triangular_families_match_fine_rk4(self, fields, seed):
        assert FieldFamily.of(fields).flow_certificate(2) is not None
        rng = np.random.default_rng(seed)
        n_paths, m = 5, fields[0].m
        weights = rng.uniform(-1.0, 1.0, (len(fields), n_paths))
        a = rng.uniform(-1.0, 1.0, (n_paths, m))
        got = weighted_flow(fields, weights, a)
        want = rk4(CompiledField.stack(fields).weighted(weights), a.T, 4096).T
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10

    def test_yamato_matches_explicit_solution(self, yamato, rough_hurst):
        drivers = sample_fbm_array(rough_hurst, TimeGrid(1.0, 33), 3, 2000, seed=12)
        a = np.array([0.7, -1.3, 0.4])
        weights = build_Z_batch(yamato, batch_signature_levels(drivers, 2), 3)
        assert np.max(np.abs(exp_flow_batch(yamato, 3, weights, a) - yamato_explicit_batch(drivers, a))) <= 1e-13

    @pytest.mark.parametrize(
        "components, certificate, nodes",
        [
            # x3 reads x2, of degree 3, yet 2 nodes suffice: the 2-node Gauss step has order 4.
            (("1", "x1^2", "x2"), (4, 3), 2),
            (("1", "x1^3", "0"), (4, 2), 2),
            (("1", "x1", "x2^2"), (5, 3), 3),
        ],
        ids=["linear-read", "cubic", "quadratic-read"],
    )
    def test_node_count_is_exact_and_one_fewer_is_not(self, monkeypatch, components, certificate, nodes):
        fields = [
            PolyVectorField(tuple(parse_polynomial(c if k == i else "0", 3) for k in range(3)))
            for i, c in enumerate(components)
        ]
        assert FieldFamily.of(fields).flow_certificate(2) == certificate
        assert strichartz.gauss_nodes(certificate[0]) == nodes
        rng = np.random.default_rng(8)
        weights, a = rng.uniform(-1.5, 1.5, (3, 6)), rng.uniform(-1.0, 1.0, (6, 3))
        exact = triangular_flow_closed_form(components, weights, a)
        assert np.max(np.abs(weighted_flow(fields, weights, a) - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))
        monkeypatch.setattr(strichartz, "gauss_nodes", lambda degree: nodes - 1)
        assert np.max(np.abs(weighted_flow(fields, weights, a) - exact)) > 1e-6

    def test_gauss_legendre_tables_match_golub_welsch(self):
        for n in range(1, 21):
            w, integrals = strichartz._gauss_legendre(n)
            w_gw, integrals_gw = gauss_legendre_golub_welsch(n)
            assert np.max(np.abs(w - w_gw)) <= 2e-15
            assert np.max(np.abs(integrals - integrals_gw)) <= 2e-15
            assert not w.flags.writeable and not integrals.flags.writeable
        # Yamato's flows need one node, where both give the same bits.
        for got, want in zip(strichartz._gauss_legendre(1), gauss_legendre_golub_welsch(1)):
            assert np.array_equal(got, want)

    def test_uncertified_dilation_keeps_fourth_order_rk4(self):
        weights = np.array([0.5, -1.0, 1.5])
        dilation = [PolyVectorField((parse_polynomial("x1", 1),))]
        assert FieldFamily.of(dilation).flow_certificate(2) is None
        a = np.array([[1.0], [2.0], [-0.5]])
        exact = a[:, 0] * np.exp(weights)
        errors = [np.max(np.abs(exp_flow_batch(dilation, 2, weights[None], a, steps)[:, 0] - exact)) for steps in (8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 2**3.7 <= coarse / fine <= 2**4.3

    def test_overflow_raises_blow_up(self):
        shear = [
            PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2))),
            PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1^2", 2))),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                exp_flow_batch(shear, 2, np.ones((2, 2)), np.array([[1e200, 0.0], [0.0, 0.0]]))
