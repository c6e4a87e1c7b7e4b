import numpy as np
import pytest

from roughflow.controlled import ControlledPath, RoughDriver, pair_integral
from roughflow.densitylab import yamato_explicit
from roughflow.errors import PreconditionError
from roughflow.fbm import SamplePath, TimeGrid, sample_fbm, sample_fbm_array
from roughflow.flows import (
    augmented_jacobian_fields,
    d_psi,
    d_signature_entry,
    jacobian_flow_rde,
    jacobian_path_strichartz,
    malliavin_derivative,
    malliavin_via_jacobian,
    z_dynamics_pair,
    z_family,
    z_process,
    _prefix_signatures,
    _suffix_signatures,
)
from roughflow.liefields import PolyVectorField, bracket, parse_polynomial
from roughflow.strichartz import psi, strichartz_solve
from roughflow.signature import path_signature

from helpers import jacobian_flow_strichartz

A_INIT = np.array([0.4, -0.2, 0.7])


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

    def test_nilpotency_checked_on_every_jacobian_route(self, fbm_path_d2):
        # [V1, V2] = d2 is constant but nonzero: the pair is not 2-nilpotent.
        v1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        v2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("x1", 2)))
        a, fields = np.zeros(2), [v1, v2]
        routes = (
            lambda: jacobian_flow_strichartz(fields, fbm_path_d2, a, 1.0, 2),
            lambda: jacobian_path_strichartz(fields, fbm_path_d2, a, 2),
            lambda: malliavin_via_jacobian(fields, fbm_path_d2, a, 1.0, 2),
            lambda: z_process(fields, RoughDriver.from_path(fbm_path_d2), v1, np.ones(2), a, method="strichartz", n=2),
        )
        for route in routes:
            with pytest.raises(PreconditionError) as err:
                route()
            assert err.value.name == "nilpotency"

    def test_augmented_fields_shapes(self, yamato):
        aug = augmented_jacobian_fields(yamato)
        assert len(aug) == 3
        assert all(f.m == 3 + 2 * 9 for f in aug)


class TestSignatureDerivatives:
    def test_splitting_formula_level_two(self, fbm_path_d3):
        # D^j_u B^{2,(i,k)} = 1_{i=j} B^k_{ut} + 1_{k=j} B^i_{0u}
        p = fbm_path_d3
        k_t = 64
        prefixes = _prefix_signatures(p, k_t, 2)
        suffixes = _suffix_signatures(p, k_t, 2)
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

    def test_cameron_martin_kick_oracle(self, yamato, rough_hurst):
        # Kick component j upward by eps after grid index k_u; the exact
        # derivative of psi is the segment average of the splitting values,
        # approximated here by the endpoint mean to O(mesh^2).
        grid = TimeGrid(1.0, 257)
        p = sample_fbm(rough_hurst, grid, d=3, n_paths=1, seed=17)[0]
        k_t, k_u, j, eps = 256, 100, 3, 1e-6
        prefixes = _prefix_signatures(p, k_t, 2)
        suffixes = _suffix_signatures(p, k_t, 2)
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
    def test_adaptedness(self, yamato, fbm_path_d3):
        ms = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 0.5, 3, steps=64)
        assert np.max(np.abs(ms.values[33:])) == 0.0

    def test_commuting_constant_fields(self, rough_hurst):
        e1 = PolyVectorField((parse_polynomial("1", 2), parse_polynomial("0", 2)))
        e2 = PolyVectorField((parse_polynomial("0", 2), parse_polynomial("1", 2)))
        p = sample_fbm(rough_hurst, TimeGrid(1.0, 17), d=2, n_paths=1, seed=4)[0]
        ms = malliavin_derivative([e1, e2], p, np.zeros(2), 1.0, 2, steps=64)
        assert np.max(np.abs(ms.values[:16] - np.eye(2)[None])) < 1e-12

    def test_two_routes_agree(self, yamato, fbm_path_d3):
        ode = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        jac = malliavin_via_jacobian(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        assert np.max(np.abs(ode.values[:64] - jac.values[:64])) < 1e-6

    def test_closed_form_on_explicit_system(self, yamato, fbm_path_d3):
        # D^2_u y^3_t = 2 a_2 + 2 (2 B^3_u - B^3_t) from the explicit solution.
        ms = malliavin_derivative(yamato, fbm_path_d3, A_INIT, 1.0, 3, steps=128)
        b3 = fbm_path_d3.values[:, 2]
        for k in (0, 10, 40, 63):
            expect = 2 * A_INIT[1] + 2 * (2 * b3[k] - b3[64])
            assert ms.values[k, 2, 1] == pytest.approx(expect, abs=1e-9)

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
        assert "constant" in err.value.name


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
