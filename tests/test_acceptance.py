"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is stated inline next to its assertion; seeds are pinned
so the whole suite is deterministic.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import time
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from roughflow.cli import main as cli_main
from roughflow.controlled import rde_solve_batch
from roughflow.densitylab import kde, yamato_explicit_batch, yamato_fields
from roughflow.fbm import HurstParam, SamplePath, TimeGrid, sample_fbm_array
from roughflow.flows import (
    jacobian_path_strichartz,
    malliavin_derivative,
    malliavin_via_jacobian,
)
from roughflow.increments import (
    Increment2,
    delta2,
    holder_norm,
    holder_norm_c3,
    sewing,
)
from roughflow.liefields import (
    FieldFamily,
    Polynomial,
    PolyVectorField,
    bracket,
    hormander_rank,
)
from roughflow.norris import alpha_matrix, hermite_moments, norris_dichotomy_mc, s_k
from roughflow.signature import batch_signature_levels
from roughflow.strichartz import build_Z_batch, exp_flow_batch, strichartz_solve

from helpers import field_sum, isserlis_fourth_variation_moments, sample_fourth_variation, triple_indices


def report(num: int, name: str, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def yamato():
    return yamato_fields()


def test_criterion_01_fbm_law():
    """Var(B_T) within 3 standard errors of T^{2H} for three Hurst values.

    T = 2 keeps the three targets distinct (2^{2H}), so the check really
    discriminates between the Hurst laws.
    """
    t0 = time.perf_counter()
    big_t = 2.0
    details = []
    for h, seed in ((0.35, 101), (0.40, 102), (0.45, 103)):
        vals = sample_fbm_array(HurstParam(h), TimeGrid(big_t, 257), 1, 10_000, seed)
        endpoint = vals[:, -1, 0]
        v = np.var(endpoint, ddof=1)
        target = big_t ** (2 * h)
        se = v * np.sqrt(2.0 / (endpoint.size - 1))
        assert abs(v - target) < 3 * se, (h, v, target, se)
        details.append(f"H={h}: var={v:.4f} vs {target:.4f} (3SE={3 * se:.4f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(1, "fbm-law", "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_chen_identity():
    """delta B^2 = B^1 (x) B^1 on all triples of a 65-point grid, <= 1e-13."""
    grid = TimeGrid(1.0, 65)
    drivers = sample_fbm_array(HurstParam(0.4), grid, 2, 5, seed=7)
    i, u, j = triple_indices(65)
    worst = 0.0
    for k in range(drivers.shape[0]):
        vals = drivers[k]
        prefix = batch_signature_levels(vals[None], 2, prefixes=True)[1][:, 0]
        rel = vals - vals[0]

        def b2(a, b):
            return (
                prefix[b]
                - prefix[a]
                - np.einsum("ki,kj->kij", rel[a], vals[b] - vals[a])
            )

        defect = b2(i, j) - b2(i, u) - b2(u, j)
        cross = np.einsum("ki,kj->kij", vals[u] - vals[i], vals[j] - vals[u])
        worst = max(worst, float(np.max(np.abs(defect - cross))))
    assert worst <= 1e-13
    report(2, "chen-identity", f"max defect {worst:.2e} over 5 paths x {i.size} triples")


def test_criterion_03_sewing_theorem():
    """Norm ratio <= 1/(2^mu - 2) + 0.05 and delta(Lambda h) = h to 1e-10."""
    mu = 1.2
    bound = 1.0 / (2.0**mu - 2.0)
    grid = TimeGrid(1.0, 65)
    times = grid.times
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    worst_ratio, worst_res = 0.0, 0.0
    for _ in range(100):
        c = rng.standard_normal(6)
        f = c[0] * np.sin(np.pi * times) + c[1] * times**2 + c[2]
        x = c[3] * np.cos(2 * np.pi * times) + c[4] * times + c[5] * times**3
        germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
        h = delta2(germ)
        lam = sewing(h, mu)
        ratio = holder_norm(lam, mu) / holder_norm_c3(h, mu / 2, mu / 2)
        residual = float(np.max(np.abs(delta2(lam).values - h.values)))
        worst_ratio = max(worst_ratio, ratio)
        worst_res = max(worst_res, residual)
    assert worst_ratio <= bound + 0.05
    assert worst_res <= 1e-10
    report(
        3,
        "sewing-theorem",
        f"max ratio {worst_ratio:.3f} vs bound {bound:.3f}+0.05; "
        f"max residual {worst_res:.2e}",
    )


def test_criterion_04_levy_area_moment_exponent():
    """Regression slope of log E|B^2_{0,t}| against log t equals 2H +- 0.1."""
    h = HurstParam(0.4)
    ts = [2.0**-k for k in range(6, 0, -1)]
    means = []
    for k, t in enumerate(ts):
        vals = sample_fbm_array(h, TimeGrid(t, 33), 2, 10_000, seed=200 + k)
        area = batch_signature_levels(vals, 2)[1]
        means.append(np.mean(np.linalg.norm(area, axis=(1, 2))))
    slope = np.polyfit(np.log(ts), np.log(means), 1)[0]
    assert abs(slope - 2 * h.value) <= 0.1
    report(4, "levy-moment-exponent", f"slope {slope:.4f} vs 2H = {2 * h.value}")


def test_criterion_05_strichartz_exactness(yamato):
    """Flow representation vs explicit solution to 1e-10; RDE within 1e-4."""
    grid = TimeGrid(1.0, 1025)
    n_drivers = 100
    drivers = sample_fbm_array(HurstParam(0.4), grid, 3, n_drivers, seed=301)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(302)))
    initial = rng.standard_normal(3)
    explicit = yamato_explicit_batch(drivers, initial)
    levels = batch_signature_levels(drivers, 2)
    flow = exp_flow_batch(yamato, 3, build_Z_batch(yamato, levels, 3), initial, steps=256)
    err_flow = float(np.max(np.abs(flow - explicit)))
    assert err_flow <= 1e-10
    rde = rde_solve_batch(yamato, initial, grid, drivers)[:, -1]
    err_rde = max(
        float(np.max(np.abs(rde - explicit))), float(np.max(np.abs(rde - flow)))
    )
    assert err_rde <= 1e-4
    report(
        5,
        "strichartz-exactness",
        f"flow vs explicit {err_flow:.2e} on {n_drivers} drivers; "
        f"rde (mesh 2^-10) vs both {err_rde:.2e}",
    )


def _random_cubic_field(m, rng):
    comps = []
    for _ in range(m):
        terms = {}
        for e in iter_product(range(4), repeat=m):
            if sum(e) <= 3 and rng.random() < 0.35:
                terms[e] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        comps.append(Polynomial(m, terms))
    return PolyVectorField(tuple(comps))


def test_criterion_06_lie_algebra(yamato):
    """Exact bracket hypotheses for the example family; field identities."""
    ok, witness = FieldFamily.of(yamato).nilpotent(3)
    assert ok and witness is None
    assert FieldFamily.of(yamato).constant_brackets(3)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(55)))
    for _ in range(10):
        assert hormander_rank(yamato, rng.standard_normal(3), 2) == 3
    for trial in range(50):
        u, v, w = (_random_cubic_field(2, rng) for _ in range(3))
        assert field_sum(bracket(u, v), bracket(v, u)).is_zero
        jacobi = field_sum(bracket(u, bracket(v, w)), bracket(v, bracket(w, u)), bracket(w, bracket(u, v)))
        assert jacobi.is_zero
    report(
        6,
        "lie-algebra",
        "nilpotency(3), constant brackets, rank 3 at 10 points; "
        "antisymmetry+Jacobi exact on 50 cubic triples",
    )


def test_criterion_07_hermite_statistics():
    """Closed-form moments vs Isserlis at K=3; MC at K=8; S_K linearity."""
    h = 0.4
    mean_c, var_c = hermite_moments(3, h)
    mean_o, var_o = isserlis_fourth_variation_moments(alpha_matrix(3, h))
    assert abs(mean_c - mean_o) <= 1e-10
    assert abs(var_c - var_o) <= 1e-10

    xs = sample_fourth_variation(8, h, 100_000, seed=77)
    mean8, var8 = hermite_moments(8, h)
    assert mean8 == 24.0
    z = (xs.mean() - mean8) / (xs.std(ddof=1) / np.sqrt(xs.size))
    assert abs(z) < 3
    var_rel = abs(xs.var(ddof=1) - var8) / var8
    assert var_rel < 0.05

    ratio = (s_k(256, h) / 256) / (s_k(64, h) / 64)
    assert abs(ratio - 1.0) < 0.10
    report(
        7,
        "hermite-statistics",
        f"Isserlis gap {abs(var_c - var_o):.1e}; MC mean z={z:.2f}, "
        f"var rel err {var_rel:.3f}; S_K/K ratio {ratio:.4f}",
    )


def test_criterion_08_jacobian_contracts(yamato):
    """Inverse, finite-difference and flow-composition residuals."""
    grid = TimeGrid(1.0, 65)
    drivers = sample_fbm_array(HurstParam(0.4), grid, 3, 3, seed=401)
    a = np.array([0.3, -0.2, 0.5])
    worst_inv = worst_fd = worst_flow = 0.0
    for k in range(drivers.shape[0]):
        p = SamplePath(grid, drivers[k], hurst=HurstParam(0.4))
        ypath, jac = jacobian_path_strichartz(yamato, p, a, 3)
        worst_inv = max(worst_inv, jac.inverse_residual())
        eps = 1e-4
        fd = np.empty((3, 3))
        for col in range(3):
            e = np.zeros(3)
            e[col] = eps
            hi = strichartz_solve(yamato, p, a + e, 1.0, 3)
            lo = strichartz_solve(yamato, p, a - e, 1.0, 3)
            fd[:, col] = (hi - lo) / (2 * eps)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - jac.J[-1]))))
        sub = SamplePath(
            TimeGrid(0.5, 33), drivers[k][32:] - drivers[k][32], hurst=None
        )
        _, jac_rest = jacobian_path_strichartz(yamato, sub, ypath.values[32], 3)
        worst_flow = max(
            worst_flow,
            float(np.max(np.abs(jac_rest.J[-1] @ jac.J[32] - jac.J[-1]))),
        )
    assert worst_inv <= 1e-9
    assert worst_fd <= 1e-6
    assert worst_flow <= 1e-8
    report(
        8,
        "jacobian-contracts",
        f"inverse {worst_inv:.1e} (<=1e-9); FD {worst_fd:.1e} (<=1e-6); "
        f"flow property {worst_flow:.1e} (<=1e-8)",
    )


def test_criterion_09_malliavin_cross_check(yamato):
    """Forced-flow route vs Jacobian route on 17 (u, t) pairs, u <= t, x 50 paths."""
    grid = TimeGrid(1.0, 33)
    n_paths = 50
    drivers = sample_fbm_array(HurstParam(0.4), grid, 3, n_paths, seed=501)
    a = np.array([0.4, -0.2, 0.7])
    u_idx = [1, 4, 7, 10, 13, 16, 19, 22, 25, 28]
    t_list = [0.5, 1.0]
    worst = 0.0
    for k in range(n_paths):
        p = SamplePath(grid, drivers[k], hurst=HurstParam(0.4))
        for t in t_list:
            ode = malliavin_derivative(yamato, p, a, t, 3, steps=128)
            jac = malliavin_via_jacobian(yamato, p, a, t, 3, steps=128)
            k_t = grid.index_of(t)
            sel = [i for i in u_idx if i < k_t] + [k_t]  # u <= t; D_t y_t = 0
            gap = np.max(np.abs(ode.values[sel] - jac.values[sel]))
            worst = max(worst, float(gap))
    assert worst <= 1e-6
    report(
        9,
        "malliavin-cross-check",
        f"max route gap {worst:.2e} over {n_paths} paths x "
        f"{len(u_idx)} u x {len(t_list)} t",
    )


def test_criterion_10_norris_dichotomy(yamato):
    """Joint smallness probabilities decay along the eps ladder."""
    rep = norris_dichotomy_mc(
        yamato,
        yamato[1],
        np.array([0.0, 0.0, 1.0]),
        HurstParam(0.4),
        [0.4, 0.2, 0.1, 0.05],
        q=0.5,
        n_paths=2000,
        horizon=1e-4,
        grid_points=65,
        seed=601,
    )
    assert rep["non_increasing"]
    assert rep["fitted_exponent"] > 0
    freqs = ", ".join(
        f"{r['eps']}:{r['frequency']:.3f}" for r in rep["rows"]
    )
    report(
        10,
        "norris-dichotomy",
        f"frequencies {{{freqs}}}; fitted exponent {rep['fitted_exponent']:.2f} > 0",
    )


def test_criterion_11_density_probe(yamato):
    """Component laws: exact Gaussian match, symmetry, solver-vs-explicit KS."""
    from scipy.stats import ks_2samp

    from roughflow.densitylab import _skewness, flow_endpoint_samples

    h = HurstParam(0.4)
    n = 100_000
    endpoints = flow_endpoint_samples(
        yamato, h, 1.0, n, seed=701, n=3, initial=np.zeros(3)
    )
    # Component 1 is exactly N(0, T^{2H}) = N(0, 1).
    est1 = kde(endpoints[:, 0])
    xs = est1.xs[(est1.xs >= -3) & (est1.xs <= 3)]
    sup_err = float(np.max(np.abs(est1(xs) - np.exp(-0.5 * xs**2) / np.sqrt(2 * np.pi))))
    assert sup_err <= 0.02

    # Component 3: atom-free KDE, symmetric, close to the explicit law.
    comp3 = endpoints[:, 2]
    est3 = kde(comp3)  # raises on an atom
    assert est3.mass >= 0.95
    skew = _skewness(comp3)
    groups = np.array_split(comp3, 16)
    stderr = np.std([_skewness(g) for g in groups], ddof=1) / 4.0
    assert abs(skew) <= 3 * stderr
    drivers = sample_fbm_array(h, TimeGrid(1.0, 33), 3, n, seed=702)
    explicit = yamato_explicit_batch(drivers, np.zeros(3))[:, 2]
    ks = ks_2samp(comp3, explicit).statistic
    assert ks <= 0.01
    report(
        11,
        "density-probe",
        f"comp1 sup err {sup_err:.4f} (<=0.02); comp3 skew {skew:.4f} "
        f"(3SE {3 * stderr:.4f}), KS {ks:.4f} (<=0.01)",
    )


def test_criterion_12_cli_determinism(tmp_path):
    """Re-running every experiment with its seed is byte-identical."""
    runs = {
        "sample-fbm": ["--grid-points", "17", "--paths", "2"],
        "signature": ["--grid-points", "9", "--level", "2"],
        "sewing-test": ["--trials", "3", "--grid-points", "17"],
        "solve": ["--mesh-exp", "4"],
        "check-fields": ["yamato", "--constant-brackets", "--hormander", "0,0,0"],
        "strichartz": ["--grid-points", "9", "--steps", "32"],
        "jacobian": ["--grid-points", "9", "--steps", "32"],
        "malliavin": ["--grid-points", "9", "--steps", "32"],
        "norris-stats": ["--paths", "50"],
        "norris-mc": ["--paths", "100"],
        "density": ["--paths", "1000", "--grid-points", "9"],
    }
    for command, extra in runs.items():
        hashes = []
        for sub in ("run1", "run2"):
            rc = cli_main([command, *extra, "--seed", "5", "--out", str(tmp_path / sub)])
            assert rc == 0
            manifest = (tmp_path / sub / f"{command}-seed5" / "manifest.json").read_bytes()
            hashes.append(manifest)
        assert hashes[0] == hashes[1], f"{command} is not deterministic"
        # And the manifests actually carry content hashes.
        entries = json.loads(hashes[0])["files"]
        assert all(len(e["sha256"]) == 64 for e in entries)
    report(12, "cli-determinism", f"{len(runs)} experiments byte-identical on re-run")
