import numpy as np
import pytest

from roughflow.controlled import ControlledPath, RoughDriver
from roughflow.errors import DomainError, PreconditionError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow import flows
from roughflow.flows import (
    jacobian_path_strichartz,
    malliavin_derivative,
    malliavin_via_jacobian,
    split_signatures,
)
from roughflow.liefields import FieldFamily, PolyVectorField, bracket, parse_polynomial
from roughflow import strichartz
from roughflow.strichartz import flow_route, strichartz_solve
from roughflow.signature import batch_signature_levels, path_signature

from helpers import (
    augmented_jacobian_fields,
    chain_family,
    d_psi,
    d_signature_entry,
    jacobian_flow_rde,
    jacobian_flow_strichartz,
    jacobian_path_rk4,
    malliavin_derivative_steps,
    ode_endpoints,
    pair_integral,
    prefix_signatures,
    psi,
    quadratic_shear,
    sheared_yamato,
    suffix_signatures,
    yamato_explicit,
    z_dynamics_pair,
    z_family,
    z_process,
)

A_INIT = np.array([0.4, -0.2, 0.7])


def max_gap(pairs):
    return max(float(np.max(np.abs(got - want))) for got, want in pairs)


def yamato_jacobian_closed_form(p, t_idx):
    b = p.values[t_idx] - p.values[0]
    J = np.eye(3)
    J[2, 0] = -2.0 * b[2]
    J[2, 1] = 2.0 * b[1]
    return J


class TestJacobianFlows:
    def test_zero_fields_give_identity(self, rough_hurst):
        fields = [PolyVectorField.zero(2), PolyVectorField.zero(2)]
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 9), d=2, n_paths=1, seed=1)[0]
        J, Jb = jacobian_flow_strichartz(fields, p, np.zeros(2), 1.0, 2)
        assert np.allclose(J, np.eye(2)) and np.allclose(Jb, np.eye(2))
        a = np.array([0.5, -1.0])
        y, jac = jacobian_path_strichartz(fields, p, a, 2)
        assert np.array_equal(y.values, np.broadcast_to(a, (9, 2)))
        assert np.array_equal(jac.J, np.broadcast_to(np.eye(2), (9, 2, 2)))
        assert np.array_equal(strichartz_solve(fields, p, a, 1.0, 2), a)
        # No nonzero bracket: D_u y_t vanishes for every u.
        assert np.array_equal(malliavin_derivative(fields, p, a, 1.0, 2).values, np.zeros((9, 2, 2)))

    def test_matches_explicit_solution_gradient(self, yamato, fbm_path_d3):
        J, Jb = jacobian_flow_strichartz(yamato, fbm_path_d3, A_INIT, 1.0, 3)
        expect = yamato_jacobian_closed_form(fbm_path_d3, 64)
        assert np.max(np.abs(J - expect)) < 1e-12
        assert np.max(np.abs(J @ Jb - np.eye(3))) < 1e-12

    def test_finite_difference_oracle(self, yamato, fbm_path_d3):
        J, _ = jacobian_flow_strichartz(yamato, fbm_path_d3, A_INIT, 1.0, 3)
        eps = 1e-4
        fd = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            hi = strichartz_solve(yamato, fbm_path_d3, A_INIT + e, 1.0, 3)
            lo = strichartz_solve(yamato, fbm_path_d3, A_INIT - e, 1.0, 3)
            fd[:, k] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(fd - J)) < 1e-6

    def test_flow_property_with_restarted_flow(self, yamato, fbm_path_d3):
        J_full, _ = jacobian_flow_strichartz(yamato, fbm_path_d3, A_INIT, 1.0, 3)
        J_half, _ = jacobian_flow_strichartz(yamato, fbm_path_d3, A_INIT, 0.5, 3)
        y_half = strichartz_solve(yamato, fbm_path_d3, A_INIT, 0.5, 3)
        sub = SamplePath(
            TimeGrid(0.5, 33),
            fbm_path_d3.values[32:] - fbm_path_d3.values[32],
            hurst=None,
        )
        J_rest, _ = jacobian_flow_strichartz(yamato, sub, y_half, 0.5, 3)
        assert np.max(np.abs(J_rest @ J_half - J_full)) < 1e-8

    def test_rde_route_agrees_with_flow_route(self, yamato, fbm_path_d3):
        ypath, jac = jacobian_flow_rde(
            yamato, RoughDriver.from_path(fbm_path_d3), A_INIT
        )
        J, _ = jacobian_flow_strichartz(yamato, fbm_path_d3, A_INIT, 1.0, 3)
        assert np.max(np.abs(jac.J[-1] - J)) < 1e-10
        assert jac.inverse_residual() < 1e-9
        assert np.max(
            np.abs(ypath.values[-1] - yamato_explicit(fbm_path_d3, A_INIT, 1.0))
        ) < 1e-12

    def test_batched_path_matches_pointwise(self, yamato, fbm_path_d3):
        ypath, jac = jacobian_path_strichartz(yamato, fbm_path_d3, A_INIT, 3)
        assert jac.inverse_residual() < 1e-9
        for k in (0, 16, 32, 64):
            expect = yamato_jacobian_closed_form(fbm_path_d3, k)
            assert np.max(np.abs(jac.J[k] - expect)) < 1e-12
        assert np.max(
            np.abs(ypath.values[32] - strichartz_solve(yamato, fbm_path_d3, A_INIT, 0.5, 3))
        ) < 1e-12

    def test_hypothesis_gate(self, fbm_path_d3):
        grow = PolyVectorField(
            (parse_polynomial("x1^2", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        e1 = PolyVectorField(
            (parse_polynomial("1", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        with pytest.raises(PreconditionError):
            jacobian_flow_strichartz(
                [grow, e1, PolyVectorField.zero(3)], fbm_path_d3, A_INIT, 1.0, 3
            )
        # [x1^2 d1, d1, 0] is not 3-nilpotent: build_Z_batch refuses before any flow runs.
        with pytest.raises(PreconditionError) as err:
            jacobian_path_strichartz([grow, e1, PolyVectorField.zero(3)], fbm_path_d3, A_INIT, 3)
        assert err.value.name == "nilpotency"

    def test_nilpotency_checked_on_every_jacobian_route(self, fbm_path_d2):
        # [V1, V2] = d2 is constant but nonzero: the pair is not 2-nilpotent.
        v1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1", 2)))
        a, fields = np.zeros(2), [v1, v2]
        routes = (
            lambda: jacobian_flow_strichartz(fields, fbm_path_d2, a, 1.0, 2),
            lambda: jacobian_path_strichartz(fields, fbm_path_d2, a, 2),
            lambda: malliavin_via_jacobian(fields, fbm_path_d2, a, 1.0, 2),
            lambda: malliavin_derivative(fields, fbm_path_d2, a, 1.0, 2),
            # At t = 0 no psi is built, so the route checks the family itself.
            lambda: malliavin_derivative(fields, fbm_path_d2, a, 0.0, 2),
            lambda: z_process(fields, RoughDriver.from_path(fbm_path_d2), v1, np.ones(2), a, method="strichartz", n=2),
        )
        for route in routes:
            with pytest.raises(PreconditionError) as err:
                route()
            assert err.value.name == "nilpotency"

    def test_exact_path_matches_rk4_oracle(self, yamato, fbm_path_d3):
        ypath, jac = jacobian_path_strichartz(yamato, fbm_path_d3, A_INIT, 3)
        y, J, Jb = jacobian_path_rk4(yamato, fbm_path_d3, A_INIT, 3)
        assert max_gap([(ypath.values, y), (jac.J, J), (jac.J_inv, Jb)]) <= 1e-12
        # The certified route is the polynomial flow: it never reads ``steps``.
        _, coarse = jacobian_path_strichartz(yamato, fbm_path_d3, A_INIT, 3, steps=1)
        assert np.array_equal(coarse.J, jac.J) and np.array_equal(coarse.J_inv, jac.J_inv)

    def test_uncertified_family_takes_rk4_fallback(self, fbm_path_d3):
        sheared = sheared_yamato()
        assert FieldFamily.of(sheared).bracket_stack(3).certificate is None
        a = np.array([0.1, -0.5, 0.8])
        ypath, jac = jacobian_path_strichartz(sheared, fbm_path_d3, a, 3, steps=64)
        y, J, Jb = jacobian_path_rk4(sheared, fbm_path_d3, a, 3, steps=64)
        assert max_gap([(ypath.values, y), (jac.J, J), (jac.J_inv, Jb)]) <= 1e-12

    def test_four_nilpotent_family_matches_rk4_oracle(self, fbm_path_d2):
        fields, a = chain_family(), np.array([0.3, -0.4, 0.2])
        assert FieldFamily.of(fields).bracket_stack(4).certificate is not None
        ypath, jac = jacobian_path_strichartz(fields, fbm_path_d2, a, 4)
        y, J, Jb = jacobian_path_rk4(fields, fbm_path_d2, a, 4)
        assert max_gap([(ypath.values, y), (jac.J, J), (jac.J_inv, Jb)]) <= 1e-12

    def test_non_constant_brackets_match_the_ode_oracle(self, fbm_path_d2):
        # Constant brackets are a hypothesis of the density theorem, not of y_t = exp(Z_t)(a).
        fields, a = quadratic_shear(), np.array([0.3, -0.2])
        family = FieldFamily.of(fields)
        assert family.order() == 4 and not family.constant_brackets(4)
        assert family.bracket_stack(4).certificate is not None
        ypath, jac = jacobian_path_strichartz(fields, fbm_path_d2, a, 4)
        y, J, Jb = jacobian_path_rk4(fields, fbm_path_d2, a, 4)
        assert max_gap([(ypath.values, y), (jac.J, J), (jac.J_inv, Jb)]) <= 1e-12
        assert jac.inverse_residual() < 1e-9
        # Central differences of an ODE solve along the piecewise-linear driver.
        eps = 1e-4
        starts = np.vstack([a, a + eps * np.eye(2), a - eps * np.eye(2)])
        ends = ode_endpoints(fields, fbm_path_d2, starts, substeps=4)
        assert np.max(np.abs(ypath.values[-1] - ends[0])) < 1e-12
        fd = (ends[1:3] - ends[3:5]).T / (2 * eps)
        assert np.max(np.abs(fd - jac.J[-1])) < 1e-6

    def test_augmented_fields_shapes(self, yamato):
        aug = augmented_jacobian_fields(yamato)
        assert len(aug) == 3
        assert all(f.m == 3 + 2 * 9 for f in aug)


class TestSignatureDerivatives:
    def test_splitting_formula_level_two(self, fbm_path_d3):
        # D^j_u B^{2,(i,k)} = 1_{i=j} B^k_{ut} + 1_{k=j} B^i_{0u}
        p = fbm_path_d3
        k_t = 64
        prefixes = prefix_signatures(p, k_t, 2)
        suffixes = suffix_signatures(p, k_t, 2)
        k_u = 24
        vals = p.values
        for i, k in ((2, 3), (3, 2), (1, 2)):
            for j in (1, 2, 3):
                got = d_signature_entry(prefixes[k_u], suffixes[k_u], (i, k), j)
                expect = 0.0
                if i == j:
                    expect += vals[k_t, k - 1] - vals[k_u, k - 1]
                if k == j:
                    expect += vals[k_u, i - 1] - vals[0, i - 1]
                assert got == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("k_t", [1, 24, 64])
    def test_split_tables_match_segment_folds(self, fbm_path_d3, k_t):
        prefixes, suffixes = split_signatures(fbm_path_d3, k_t, 3)
        folds = (prefix_signatures(fbm_path_d3, k_t, 3), suffix_signatures(fbm_path_d3, k_t, 3))
        for table, fold in zip((prefixes, suffixes), folds):
            for k, level in enumerate(table):
                assert level.shape == (k_t + 1,) + (3,) * (k + 1)
                for u, sig in enumerate(fold):
                    want = np.zeros_like(level[u]) if sig is None else sig.levels[k]
                    assert np.max(np.abs(level[u] - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
        # The empty intervals are exactly zero, as the folds' None convention says.
        assert all(np.all(lvl[0] == 0.0) for lvl in prefixes)
        assert all(np.all(lvl[k_t] == 0.0) for lvl in suffixes)

    def test_array_d_psi_matches_scalar(self, fbm_path_d3):
        k_t = 40
        prefixes, suffixes = split_signatures(fbm_path_d3, k_t, 3)
        pre, suf = prefix_signatures(fbm_path_d3, k_t, 3), suffix_signatures(fbm_path_d3, k_t, 3)
        words = [(2,), (1, 3), (3, 3), (1, 2, 3), (2, 2, 1)]
        table = flows.d_psi(prefixes, suffixes, words)
        assert table.shape == (len(words), k_t + 1, 3)
        for q, w in enumerate(words):
            for u in (0, 1, 17, k_t - 1, k_t):
                for j in (1, 2, 3):
                    assert table[q, u, j - 1] == pytest.approx(d_psi(pre[u], suf[u], w, j), abs=1e-13)

    def test_cameron_martin_kick_oracle(self, yamato, rough_hurst):
        # Kick component j upward by eps after grid index k_u; the exact
        # derivative of psi is the segment average of the splitting values,
        # approximated here by the endpoint mean to O(mesh^2).
        grid = TimeGrid(1.0, 257)
        p = sample_fbm(rough_hurst, grid, d=3, n_paths=1, seed=17)[0]
        k_t, k_u, j, eps = 256, 100, 3, 1e-6
        prefixes = prefix_signatures(p, k_t, 2)
        suffixes = suffix_signatures(p, k_t, 2)
        word = (2, 3)
        split_vals = [
            d_psi(prefixes[k], suffixes[k], word, j) for k in (k_u, k_u + 1)
        ]
        kicked = p.values.copy()
        kicked[k_u + 1 :, j - 1] += eps
        dropped = p.values.copy()
        dropped[k_u + 1 :, j - 1] -= eps
        sig_hi = path_signature(SamplePath(grid, kicked, hurst=None), 0.0, 1.0, 2)
        sig_lo = path_signature(SamplePath(grid, dropped, hurst=None), 0.0, 1.0, 2)
        fd = (psi(sig_hi, word) - psi(sig_lo, word)) / (2 * eps)
        assert fd == pytest.approx(np.mean(split_vals), abs=1e-8)


class TestMalliavinDerivative:
    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
    def test_wrong_initial_shape_raises(self, yamato, fbm_path_d3, shape):
        a = np.zeros(shape)
        routes = (
            lambda: malliavin_derivative(yamato, fbm_path_d3, a, 0.5, 3, steps=4),
            lambda: malliavin_via_jacobian(yamato, fbm_path_d3, a, 0.5, 3, steps=4),
            lambda: jacobian_path_strichartz(yamato, fbm_path_d3, a, 3, steps=4),
        )
        for route in routes:
            with pytest.raises(DomainError, match=r"must be shape \(3,\), got"):
                route()

    @pytest.mark.parametrize("d", [2, 4])
    def test_wrong_driver_dimension_raises(self, yamato, rough_hurst, d):
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 17), d=d, n_paths=1, seed=5)[0]
        routes = (
            lambda: malliavin_derivative(yamato, p, A_INIT, 0.5, 3),
            lambda: malliavin_via_jacobian(yamato, p, A_INIT, 0.5, 3),
            lambda: jacobian_path_strichartz(yamato, p, A_INIT, 3),
        )
        for route in routes:
            with pytest.raises(DomainError, match=f"3 fields for alphabet size {d}"):
                route()

    def test_steps_must_be_positive(self, yamato, fbm_path_d3):
        # Yamato takes the certified route, which reads no steps; the check holds there too.
        levels = batch_signature_levels(fbm_path_d3.values[None], 2)
        psi_t = strichartz.build_Z_batch(yamato, levels, 3)
        routes = (
            lambda: malliavin_derivative(yamato, fbm_path_d3, A_INIT, 0.5, 3, steps=0),
            lambda: malliavin_via_jacobian(yamato, fbm_path_d3, A_INIT, 0.5, 3, steps=0),
            lambda: jacobian_path_strichartz(yamato, fbm_path_d3, A_INIT, 3, steps=0),
            lambda: strichartz_solve(yamato, fbm_path_d3, A_INIT, 0.5, 3, steps=0),
            lambda: strichartz.exp_flow_batch(yamato, 3, psi_t, A_INIT, steps=-5),
        )
        for route in routes:
            with pytest.raises(DomainError, match="steps must be >= 1"):
                route()

    def test_adaptedness(self, yamato, fbm_path_d3):
        ms = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 0.5, 3, steps=64)
        assert np.max(np.abs(ms.values[32:])) == 0.0  # u >= t = t_32, row u = t included

    def test_commuting_constant_fields(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 17), d=2, n_paths=1, seed=4)[0]
        ms = malliavin_derivative([e1, e2], p, np.zeros(2), 1.0, 2, steps=64)
        assert np.max(np.abs(ms.values[:16] - np.eye(2)[None])) < 1e-12

    @pytest.mark.parametrize("n_points", [33, 65, 129, 257])
    def test_prefix_jacobian_equals_whole_grid_rows(self, yamato, rough_hurst, n_points):
        # malliavin_via_jacobian runs the Jacobian flow on [0, t] only.
        grid = TimeGrid(1.0, n_points)
        p = sample_fbm(rough_hurst, grid, d=3, n_paths=1, seed=n_points)[0]
        y, jac = jacobian_path_strichartz(yamato, p, A_INIT, 3)
        for t in (0.25, 0.5, 0.75):
            k = grid.index_of(t)
            head = SamplePath(TimeGrid(grid.times[k], k + 1), p.values[: k + 1])
            y_head, jac_head = jacobian_path_strichartz(yamato, head, A_INIT, 3)
            assert np.array_equal(y_head.values, y.values[: k + 1])
            assert np.array_equal(jac_head.J, jac.J[: k + 1])
            assert np.array_equal(jac_head.J_inv, jac.J_inv[: k + 1])

    def test_two_routes_agree(self, yamato, fbm_path_d3):
        ode = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        jac = malliavin_via_jacobian(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        assert np.max(np.abs(ode.values[:64] - jac.values[:64])) < 1e-6

    def test_two_routes_agree_on_four_nilpotent_family(self, fbm_path_d2):
        fields, a = chain_family(), np.array([0.3, -0.4, 0.2])
        for t in (0.5, 1.0):
            k_t = fbm_path_d2.grid.index_of(t)
            ode = malliavin_derivative(fields, fbm_path_d2, a, t, 4, steps=128)
            jac = malliavin_via_jacobian(fields, fbm_path_d2, a, t, 4)
            assert np.max(np.abs(ode.values[:k_t] - jac.values[:k_t])) < 1e-9

    def test_two_routes_agree_on_non_constant_brackets(self, fbm_path_d2):
        fields, a = quadratic_shear(), np.array([0.3, -0.2])
        for t in (0.5, 1.0):
            k_t = fbm_path_d2.grid.index_of(t)
            ode = malliavin_derivative(fields, fbm_path_d2, a, t, 4, steps=128)
            jac = malliavin_via_jacobian(fields, fbm_path_d2, a, t, 4, steps=128)
            assert np.max(np.abs(ode.values[:k_t] - jac.values[:k_t])) < 1e-6

    def test_closed_form_on_explicit_system(self, yamato, fbm_path_d3):
        # D^2_u y^3_t = 2 a_2 + 2 (2 B^3_u - B^3_t) from the explicit solution.
        ms = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        b3 = fbm_path_d3.values[:, 2]
        for k in (0, 10, 40, 63):
            expect = 2 * A_INIT[1] + 2 * (2 * b3[k] - b3[64])
            assert ms.values[k, 2, 1] == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("case", ["yamato", "sheared", "chain", "zero"])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize("steps", [32, 128])
    def test_forced_flow_matches_the_step_loop(self, yamato, fbm_path_d2, fbm_path_d3, case, t, steps):
        # Yamato runs the exact polynomial route, where RK4 is exact too; sheared
        # Yamato has no flow certificate and runs RK4 with ``steps`` steps; the
        # 4-nilpotent chain is the one family with brackets of length 3; the
        # all-zero family has no bracket at all, so D is 0.
        fields, p, a, n = {
            "yamato": (yamato, fbm_path_d3, A_INIT, 3),
            "sheared": (sheared_yamato(), fbm_path_d3, A_INIT, 3),
            "chain": (chain_family(), fbm_path_d2, np.array([0.3, -0.4, 0.2]), 4),
            "zero": ([PolyVectorField.zero(2)] * 2, fbm_path_d2, np.array([0.3, -0.4]), 3),
        }[case]
        got = malliavin_derivative(fields, p, a, t, n, steps=steps)
        want = malliavin_derivative_steps(fields, p, a, t, n, steps=steps)
        assert np.max(np.abs(got.values - want.values)) <= 1e-14 * max(1.0, np.max(np.abs(want.values)))

    def test_hypothesis_gate(self, fbm_path_d3):
        grow = PolyVectorField(
            (parse_polynomial("x1^2", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        e1 = PolyVectorField(
            (parse_polynomial("1", 3), parse_polynomial("0", 3), parse_polynomial("0", 3))
        )
        bad = [grow, e1, PolyVectorField.zero(3)]
        with pytest.raises(PreconditionError) as err:
            malliavin_derivative(bad, fbm_path_d3, A_INIT, 1.0, 3)
        assert err.value.name == "nilpotency"


class TestFlowRoutes:
    """The Jacobian and Malliavin flows run the route that ``flow_route`` records for the family."""

    @pytest.mark.parametrize(
        "case, n, route", [("yamato", 3, "polynomial"), ("chain", 4, "polynomial"), ("sheared", 3, "rk4")]
    )
    def test_route_run_is_the_route_recorded(self, case, n, route, yamato, fbm_path_d2, fbm_path_d3, monkeypatch):
        fields = {"yamato": yamato, "chain": chain_family(), "sheared": sheared_yamato()}[case]
        p = fbm_path_d2 if case == "chain" else fbm_path_d3
        ran = []
        for name, label in (("polynomial_flow", "polynomial"), ("rk4", "rk4")):
            real = getattr(strichartz, name)
            monkeypatch.setattr(strichartz, name, lambda *args, real=real, label=label: ran.append(label) or real(*args))
        recorded = flow_route(FieldFamily.of(fields), n, 8)["route"]
        jacobian_path_strichartz(fields, p, A_INIT, n, steps=8)
        # The forward flow of exp(Z_t), then the backward one of exp(-Z_t).
        assert ran == [recorded] * 2 == [route] * 2
        ran.clear()
        malliavin_derivative(fields, p, A_INIT, 0.5, n, steps=8)
        assert ran == [recorded] == [route]

    @pytest.mark.parametrize("case, n", [("yamato", 3), ("chain", 4), ("sheared", 3)])
    def test_malliavin_flows_one_column_per_bracket(self, case, n, yamato, fbm_path_d2, fbm_path_d3, monkeypatch):
        # phi and one tangent column per bracket word, whatever t and the grid.
        fields = {"yamato": yamato, "chain": chain_family(), "sheared": sheared_yamato()}[case]
        p = fbm_path_d2 if case == "chain" else fbm_path_d3
        widths = []
        real = flows.frozen_flow
        monkeypatch.setattr(flows, "frozen_flow", lambda z, y0, *rest: widths.append(y0.shape) or real(z, y0, *rest))
        for t in (0.5, 1.0):
            malliavin_derivative(fields, p, A_INIT, t, n, steps=8)
        family = FieldFamily.of(fields)
        assert widths == [(family.m, 1 + len(family.brackets(n)))] * 2


class TestZProcesses:
    def test_zero_field_gives_zero(self, yamato, fbm_path_d3):
        drv = RoughDriver.from_path(fbm_path_d3)
        z = z_process(yamato, drv, PolyVectorField.zero(3), np.array([0, 0, 1.0]), A_INIT)
        assert np.max(np.abs(z)) == 0.0

    def test_initial_value_is_pairing_at_start(self, yamato, fbm_path_d3):
        drv = RoughDriver.from_path(fbm_path_d3)
        z = z_process(yamato, drv, yamato[1], np.array([0, 0, 1.0]), A_INIT)
        assert z[0] == pytest.approx(2 * A_INIT[1])

    def test_explicit_value_on_yamato(self, yamato, fbm_path_d3):
        drv = RoughDriver.from_path(fbm_path_d3)
        z = z_process(yamato, drv, yamato[1], np.array([0, 0, 1.0]), A_INIT)
        expect = 2 * A_INIT[1] + 4 * fbm_path_d3.values[:, 2]
        assert np.max(np.abs(z - expect)) < 1e-12

    def test_methods_agree(self, yamato, fbm_path_d3):
        drv = RoughDriver.from_path(fbm_path_d3)
        z1 = z_process(yamato, drv, yamato[1], np.array([0, 0, 1.0]), A_INIT)
        z2 = z_process(
            yamato, drv, yamato[1], np.array([0, 0, 1.0]), A_INIT,
            method="strichartz", n=3,
        )
        assert np.max(np.abs(z1 - z2)) < 1e-10

    def test_dynamics_residual_via_rough_integral(self, yamato, fbm_path_d3):
        # Z^U_t - Z^U_0 = sum_j int_0^t Z^{[V_j, U]} dx^j, checked through
        # the rough integral of the controlled integrand family.
        drv = RoughDriver.from_path(fbm_path_d3)
        eta = np.array([0, 0, 1.0])
        y, z = z_dynamics_pair(yamato, drv, yamato[1], eta, A_INIT)
        # The integrands' own expansion supplies the Gubinelli derivative:
        # zeta^{j,i} = Z^{[V_i, [V_j, U]]}.
        second = [
            [bracket(vi, bracket(vj, yamato[1])) for vi in yamato] for vj in yamato
        ]
        zeta = np.stack(
            [
                np.stack(
                    [z_family(yamato, drv, row, eta, A_INIT)[:, k] for k in range(3)],
                    axis=1,
                )
                for row in second
            ],
            axis=1,
        )
        ctrl = ControlledPath(drv.grid, z, zeta, drv)
        integral = pair_integral(ctrl, 0.0, 1.0)
        assert abs((y[-1] - y[0]) - integral) < 1e-4

    def test_moment_probes_stable_under_doubling(self, yamato, rough_hurst):
        grid = TimeGrid(1.0, 33)
        stats = {}
        for n_paths in (200, 400):
            drivers = sample_fbm_array(rough_hurst, grid, 3, n_paths, seed=3)
            sups, jn, jbn = [], [], []
            for i in range(n_paths):
                drv = RoughDriver(grid=grid, values=drivers[i])
                ypath, jac = jacobian_flow_rde(yamato, drv, A_INIT)
                sups.append(np.max(np.linalg.norm(ypath.values, axis=1)))
                jn.append(np.max(np.abs(jac.J)))
                jbn.append(np.max(np.abs(jac.J_inv)))
            stats[n_paths] = [
                np.mean(np.array(sups) ** q) for q in (2, 4)
            ] + [np.mean(np.array(jn) ** 4), np.mean(np.array(jbn) ** 4)]
        for a, b in zip(stats[200], stats[400]):
            assert np.isfinite(a) and np.isfinite(b)
            assert 0.4 < a / b < 2.5
