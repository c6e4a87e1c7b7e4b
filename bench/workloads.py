"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the run seed, runs a fixed round of
work through the package (the timed part), and checks the first round's
outputs against references computed here, apart from the package: the
explicit Yamato solution from cumulative sums, closed-form Malliavin
derivatives, closed-form fourth-variation moments, manifest hashes
recomputed with ``hashlib``, and the shuffle identity.  Later rounds of a
run repeat the same inputs and must reproduce the first round bit for bit.

Calls into the package go through module attributes (``flows.f(...)``),
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from roughflow import cli, controlled, densitylab, fbm, flows, norris, strichartz

HURST = 0.4


class CheckFailed(Exception):
    """An output of the package disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Counts the operations a round attempts and the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


class Workload:
    """A fixed round of work on seeded inputs, and the checks on its outputs.

    ``round`` is the timed part.  ``check`` runs on the first round's
    outputs, ``fingerprint`` on every round's, and ``discard`` releases
    what a round left behind.
    """

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, ops: Ops):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        raise NotImplementedError

    def discard(self, out) -> None:
        pass


class Runner:
    """Times rounds of one workload and compares them with the first round.

    Each round counts its own operations, so ``attempted`` and ``failed``
    are one round's figures whatever the number of rounds.  The first
    round's outputs are kept until :meth:`check_first`, which the caller
    runs after reading the peak memory, so the checks' own arrays do not
    count in ``peak_rss_mb``.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.first_ops: Ops | None = None
        self.reference: str | None = None
        self.problems: list[str] = []

    def timed_round(self, span=None) -> float:
        ops = Ops()
        gc.collect()
        start = time.perf_counter()
        with span or contextlib.nullcontext():
            out = self.workload.round(ops)
        elapsed = time.perf_counter() - start
        self._compare(out, ops)
        return elapsed

    def _compare(self, out, ops: Ops) -> None:
        if self.first_ops is None:
            self.first, self.first_ops = out, ops
            try:
                self.reference = self.workload.fingerprint(out)
            except Exception as exc:
                self.problems.append(f"fingerprint of the first round raised {type(exc).__name__}: {exc}")
            return
        try:
            if (ops.attempted, len(ops.failed)) != (self.first_ops.attempted, len(self.first_ops.failed)):
                self.problems.append(
                    f"a round failed {len(ops.failed)} of {ops.attempted} operations,"
                    f" the first round {len(self.first_ops.failed)} of {self.first_ops.attempted}"
                )
            elif self.workload.fingerprint(out) != self.reference:
                self.problems.append("a round's outputs differ from the first round's")
        except Exception as exc:
            self.problems.append(f"fingerprint raised {type(exc).__name__}: {exc}")
        finally:
            self.workload.discard(out)

    def check_first(self) -> None:
        """Check the first round's outputs against the references, then free them."""
        try:
            self.workload.check(self.first)
        except Exception as exc:  # a check that raises fails the run, like one that fails
            self.problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.workload.discard(self.first)
            self.first = None


def fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# References computed apart from the package
# ---------------------------------------------------------------------------


def fbm_paths(rng: np.random.Generator, n_points: int, d: int, n_paths: int) -> np.ndarray:
    """Exact fBm drivers (n_paths, n_points, d) on [0, 1] by Cholesky of the covariance."""
    t = np.linspace(0.0, 1.0, n_points)[1:]
    two_h = 2.0 * HURST
    cov = 0.5 * (t[:, None] ** two_h + t[None, :] ** two_h - np.abs(t[:, None] - t[None, :]) ** two_h)
    chol = np.linalg.cholesky(cov)
    out = np.zeros((n_paths, n_points, d))
    out[:, 1:, :] = np.einsum("ab,pbd->pad", chol, rng.standard_normal((n_paths, n_points - 1, d)))
    return out


def yamato_explicit_path(values: np.ndarray, a) -> np.ndarray:
    """Explicit Yamato solution at every grid time, (..., n_points, 3).

    y1 = a1 + B2, y2 = a2 + B3, y3 = a3 + 2 a2 B2 - 2 a1 B3 + 2 (A32 - A23),
    with A_ij = sum_m (x^i_m - x^i_0) dx^j_m + dx^i_m dx^j_m / 2 the level-2
    signature of the linear interpolant; the dx dx / 2 terms cancel in A32 - A23.
    """
    a1, a2, a3 = (float(v) for v in a)
    x = values - values[..., :1, :]
    dx = np.diff(values, axis=-2)
    swirl = np.zeros(values.shape[:-1])
    swirl[..., 1:] = np.cumsum(x[..., :-1, 2] * dx[..., 1] - x[..., :-1, 1] * dx[..., 2], axis=-1)
    b2, b3 = x[..., 1], x[..., 2]
    return np.stack([a1 + b2, a2 + b3, a3 + 2.0 * a2 * b2 - 2.0 * a1 * b3 + 2.0 * swirl], axis=-1)


def skewness(x: np.ndarray) -> float:
    c = x - x.mean()
    return float(np.mean(c**3) / np.mean(c**2) ** 1.5)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    pts = np.concatenate([a, b])
    fa = np.searchsorted(a, pts, side="right") / a.size
    fb = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def increment_correlation(lags: np.ndarray) -> np.ndarray:
    """alpha(m) of unit-spaced fBm increments."""
    m = np.abs(lags).astype(float)
    two_h = 2.0 * HURST
    return 0.5 * ((m + 1.0) ** two_h + np.abs(m - 1.0) ** two_h - 2.0 * m**two_h)


def shuffles(u: tuple, v: tuple) -> list[tuple]:
    """All interleavings of two words, with multiplicity."""
    if not u:
        return [v]
    if not v:
        return [u]
    return [(u[0],) + w for w in shuffles(u[1:], v)] + [(v[0],) + w for w in shuffles(u, v[1:])]


# ---------------------------------------------------------------------------
# mc_density
# ---------------------------------------------------------------------------


class McDensity(Workload):
    """Criterion-11 density probe: 100k flow endpoints, KDEs of y1 and y3."""

    PATHS = 100_000
    GRID = 33
    HORIZON = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.fields = densitylab.yamato_fields()
        self.hurst = fbm.HurstParam(HURST)
        self.seed = 2 * seed
        self.independent_seed = 2 * seed + 1

    def _probe(self, ops: Ops, n_paths: int):
        ends = ops.run(
            "flow_endpoint_samples",
            densitylab.flow_endpoint_samples,
            self.fields, self.hurst, self.HORIZON, n_paths, seed=self.seed, n=3,
            initial=np.zeros(3), grid_points=self.GRID,
        )
        est1 = ops.run("kde y1", lambda: densitylab.kde(ends[:, 0]))
        est3 = ops.run("kde y3", lambda: densitylab.kde(ends[:, 2]))
        return ends, est1, est3

    def warm_up(self) -> None:
        self._probe(Ops(), 2_000)

    def round(self, ops: Ops):
        return self._probe(ops, self.PATHS)

    def fingerprint(self, out) -> str:
        ends, est1, est3 = out
        return fingerprint(ends, est1.values, est3.values)

    def check(self, out) -> None:
        ends, est1, est3 = out
        require(all(o is not None for o in out), "an operation of the round failed")
        grid = fbm.TimeGrid(self.HORIZON, self.GRID)
        drivers = fbm.sample_fbm_array(self.hurst, grid, 3, self.PATHS, self.seed)
        err = float(np.max(np.abs(ends - yamato_explicit_path(drivers, np.zeros(3))[:, -1])))
        require(err <= 1e-10, f"flow endpoints differ from the explicit solution by {err:.3e} > 1e-10")
        del drivers

        sigma = self.HORIZON**HURST
        xs = est1.xs[(est1.xs >= -3.0) & (est1.xs <= 3.0)]
        exact = np.exp(-0.5 * (xs / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        sup = float(np.max(np.abs(est1(xs) - exact)))
        require(sup <= 0.02, f"KDE of y1 is {sup:.4f} from N(0, t^2H) in sup norm > 0.02")

        y3 = ends[:, 2]
        require(est3.mass >= 0.95, f"KDE of y3 has mass {est3.mass:.4f} < 0.95")
        groups = np.array_split(y3, 64)
        stderr = float(np.std([skewness(g) for g in groups], ddof=1) / math.sqrt(len(groups)))
        skew = skewness(y3)
        require(abs(skew) <= 3.0 * stderr, f"y3 skewness {skew:.4f} exceeds 3 SE = {3 * stderr:.4f}")

        independent = fbm.sample_fbm_array(self.hurst, grid, 3, self.PATHS, self.independent_seed)
        ks = ks_distance(y3, yamato_explicit_path(independent, np.zeros(3))[:, -1, 2])
        require(ks <= 0.01, f"KS distance of y3 to the explicit law {ks:.4f} > 0.01")


# ---------------------------------------------------------------------------
# path_flows
# ---------------------------------------------------------------------------


class PathFlows(Workload):
    """Per-path Jacobian and Malliavin flows (criteria 08/09) and rde_solve."""

    JACOBIAN_DRIVERS, JACOBIAN_GRID = 2, 65
    MALLIAVIN_DRIVERS, MALLIAVIN_GRID, MALLIAVIN_STEPS = 2, 33, 128
    MALLIAVIN_TIMES = (0.5, 1.0)
    RDE_DRIVERS, RDE_GRID = 3, 1025

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.fields = densitylab.yamato_fields()
        hurst = fbm.HurstParam(HURST)

        def paths(count, n_points):
            grid = fbm.TimeGrid(1.0, n_points)
            return [fbm.SamplePath(grid, v, hurst=hurst) for v in fbm_paths(rng, n_points, 3, count)]

        self.a = 0.5 * rng.standard_normal(3)
        self.jacobian_paths = paths(self.JACOBIAN_DRIVERS, self.JACOBIAN_GRID)
        self.malliavin_paths = paths(self.MALLIAVIN_DRIVERS, self.MALLIAVIN_GRID)
        self.rde_paths = paths(self.RDE_DRIVERS, self.RDE_GRID)

    def warm_up(self) -> None:
        p = self.malliavin_paths[0]
        flows.jacobian_path_strichartz(self.fields, p, self.a, 3, steps=8)
        flows.malliavin_derivative(self.fields, p, self.a, 1.0, 3, steps=8)
        flows.malliavin_via_jacobian(self.fields, p, self.a, 1.0, 3, steps=8)
        controlled.rde_solve(self.fields, self.a, controlled.RoughDriver.from_path(p))

    def round(self, ops: Ops):
        jac = [
            ops.run("jacobian_path_strichartz", flows.jacobian_path_strichartz, self.fields, p, self.a, 3)
            for p in self.jacobian_paths
        ]
        mal = []
        for p in self.malliavin_paths:
            for t in self.MALLIAVIN_TIMES:
                ode = ops.run(
                    "malliavin_derivative", flows.malliavin_derivative,
                    self.fields, p, self.a, t, 3, steps=self.MALLIAVIN_STEPS,
                )
                via = ops.run(
                    "malliavin_via_jacobian", flows.malliavin_via_jacobian,
                    self.fields, p, self.a, t, 3, steps=self.MALLIAVIN_STEPS,
                )
                mal.append((p, t, ode, via))
        rde = [
            ops.run("rde_solve", controlled.rde_solve, self.fields, self.a, controlled.RoughDriver.from_path(p))
            for p in self.rde_paths
        ]
        return jac, mal, rde

    def fingerprint(self, out) -> str:
        jac, mal, rde = out
        arrays = [r[1].J for r in jac] + [r[1].J_inv for r in jac]
        arrays += [s.values for _, _, ode, via in mal for s in (ode, via)]
        arrays += [r[0].values for r in rde]
        return fingerprint(*arrays)

    def check(self, out) -> None:
        jac, mal, rde = out
        require(all(r is not None for r in jac), "jacobian_path_strichartz failed")
        require(all(s is not None for *_, ode, via in mal for s in (ode, via)), "a Malliavin route failed")
        require(all(r is not None for r in rde), "rde_solve failed")
        for p, (_, jpath) in zip(self.jacobian_paths, jac):
            inv = jpath.inverse_residual()
            require(inv <= 1e-9, f"J J^-1 - I = {inv:.2e} > 1e-9")
            eps = 1e-4
            fd = np.empty((3, 3))
            for col in range(3):
                e = np.zeros(3)
                e[col] = eps
                hi = strichartz.strichartz_solve(self.fields, p, self.a + e, 1.0, 3)
                lo = strichartz.strichartz_solve(self.fields, p, self.a - e, 1.0, 3)
                fd[:, col] = (hi - lo) / (2.0 * eps)
            gap = float(np.max(np.abs(fd - jpath.J[-1])))
            require(gap <= 1e-6, f"J differs from central finite differences by {gap:.2e} > 1e-6")

        a1, a2 = self.a[0], self.a[1]
        for p, t, ode, via in mal:
            k_t = p.grid.index_of(t)
            b = p.values[:k_t]  # B_u for grid u < t
            closed = np.zeros((k_t, 3, 3))
            closed[:, 0, 1] = 1.0
            closed[:, 1, 2] = 1.0
            closed[:, 2, 1] = 2.0 * a2 + 4.0 * b[:, 2] - 2.0 * p.values[k_t, 2]
            closed[:, 2, 2] = -2.0 * a1 + 2.0 * p.values[k_t, 1] - 4.0 * b[:, 1]
            routes = float(np.max(np.abs(ode.values[:k_t] - via.values[:k_t])))
            require(routes <= 1e-6, f"Malliavin routes differ by {routes:.2e} > 1e-6 at t={t}")
            for label, s in (("forced flow", ode), ("Jacobian", via)):
                gap = float(np.max(np.abs(s.values[:k_t] - closed)))
                require(gap <= 1e-8, f"{label} route is {gap:.2e} from the closed form > 1e-8 at t={t}")

        for p, result in zip(self.rde_paths, rde):
            gap = float(np.max(np.abs(result[0].values - yamato_explicit_path(p.values, self.a))))
            require(gap <= 1e-4, f"rde_solve is {gap:.2e} from the explicit solution > 1e-4")


# ---------------------------------------------------------------------------
# fine_grid
# ---------------------------------------------------------------------------


class FineGrid(Workload):
    """Block statistics at delta = 2^-12 and the dichotomy on a 257-point grid."""

    DELTA_EXP, RATIO_EXP, BLOCK_PATHS = 12, 5, 100
    DICHOTOMY_PATHS, DICHOTOMY_GRID, DICHOTOMY_HORIZON = 2000, 257, 1e-4
    EPS = (0.4, 0.2, 0.1, 0.05)
    Q = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.fields = densitylab.yamato_fields()
        self.hurst = fbm.HurstParam(HURST)
        self.delta = 2.0 ** (-self.DELTA_EXP)
        self.r = 2**self.RATIO_EXP
        self.block_seed = 2 * seed
        self.dichotomy_seed = 2 * seed + 1

    def _run(self, ops: Ops, block_paths: int, dichotomy_paths: int):
        blocks = ops.run(
            "block_stats_mc", norris.block_stats_mc,
            self.hurst, norris.TwoScale(self.delta, self.delta * self.r), block_paths, self.block_seed,
        )
        dichotomy = ops.run(
            "norris_dichotomy_mc", norris.norris_dichotomy_mc,
            self.fields, self.fields[1], np.array([0.0, 0.0, 1.0]), self.hurst, list(self.EPS),
            self.Q, dichotomy_paths, horizon=self.DICHOTOMY_HORIZON,
            grid_points=self.DICHOTOMY_GRID, seed=self.dichotomy_seed,
        )
        return blocks, dichotomy

    def warm_up(self) -> None:
        self._run(Ops(), 2, 20)

    def round(self, ops: Ops):
        return self._run(ops, self.BLOCK_PATHS, self.DICHOTOMY_PATHS)

    def fingerprint(self, out) -> str:
        blocks, dichotomy = out
        return fingerprint(blocks["x_samples"], dichotomy["y_norms"], dichotomy["z_norms"])

    def check(self, out) -> None:
        blocks, dichotomy = out
        require(blocks is not None, "block_stats_mc failed")
        require(dichotomy is not None, "norris_dichotomy_mc failed")
        x = blocks["x_samples"]
        n_paths = x.shape[0]
        mean_target = 3.0 * self.r * self.delta ** (4.0 * HURST)
        mean_se = float(np.std(x.mean(axis=1), ddof=1) / math.sqrt(n_paths))
        require(
            abs(x.mean() - mean_target) <= 4.0 * mean_se,
            f"block mean {x.mean():.6e} is more than 4 SE ({mean_se:.2e}) from 3 r delta^4H = {mean_target:.6e}",
        )
        lags = np.arange(self.r)[:, None] - np.arange(self.r)[None, :]
        alpha = increment_correlation(lags)
        var_target = self.delta ** (8.0 * HURST) * float(np.sum(24.0 * alpha**4 + 72.0 * alpha**2))
        per_path = np.mean((x - x.mean()) ** 2, axis=1)
        var_se = float(np.std(per_path, ddof=1) / math.sqrt(n_paths))
        require(
            abs(x.var() - var_target) <= 5.0 * var_se,
            f"block variance {x.var():.6e} is more than 5 SE ({var_se:.2e}) from {var_target:.6e}",
        )
        counts = [row["count"] for row in dichotomy["rows"]]
        eps = [row["eps"] for row in dichotomy["rows"]]
        require(eps == sorted(self.EPS, reverse=True), f"eps ladder {eps} is not the requested one")
        require(
            all(c0 >= c1 for c0, c1 in zip(counts, counts[1:])),
            f"dichotomy counts {counts} increase along the eps ladder",
        )
        pos = [(e, c / self.DICHOTOMY_PATHS) for e, c in zip(eps, counts) if c > 0]
        require(len(pos) >= 2, f"fewer than two nonzero dichotomy counts: {counts}")
        slope = float(np.polyfit(np.log([e for e, _ in pos]), np.log([f for _, f in pos]), 1)[0])
        require(slope > 0.0, f"fitted dichotomy exponent {slope:.3f} is not positive")
        require(
            math.isclose(slope, dichotomy["fitted_exponent"], rel_tol=1e-9),
            f"reported exponent {dichotomy['fitted_exponent']} differs from the refit {slope}",
        )


# ---------------------------------------------------------------------------
# cli_defaults
# ---------------------------------------------------------------------------

#: The eleven experiments at their defaults; check-fields needs a family.
EXPERIMENTS = (
    ("sample-fbm",),
    ("signature",),
    ("sewing-test",),
    ("solve",),
    ("check-fields", "yamato", "--constant-brackets", "--hormander", "0,0,0"),
    ("strichartz",),
    ("jacobian",),
    ("malliavin",),
    ("norris-stats",),
    ("norris-mc",),
    ("density",),
)

#: A field file whose header promises nine component lines and gives two.
MALFORMED_FIELDS = "3 3\n0\n0\n"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process: (exit code, stderr).

    An exception that escapes ``main`` is what the console script would
    turn into a traceback and exit code 1.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            return 1, f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n"
    return rc, err.getvalue()


class CliDefaults(Workload):
    """All eleven experiments at their defaults plus two malformed inputs."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.bad_fields = workdir / "malformed_fields.txt"
        self.bad_fields.write_text(MALFORMED_FIELDS)
        self.rounds = 0

    def _experiments(self, ops: Ops, out: Path, extra: dict) -> dict:
        codes = {}
        for argv in EXPERIMENTS:
            args = [*argv, *extra.get(argv[0], ()), "--seed", str(self.seed), "--out", str(out)]
            rc, err = ops.run(argv[0], call_cli, args)
            codes[argv[0]] = rc
            if rc != 0:
                ops.failed.append(f"{argv[0]}: exit {rc}: {err.strip()}")
        # Malformed input: the documented outcome is exit 2 with a one-line message.
        for name, argv in (
            ("malformed field file", ["solve", "--fields", str(self.bad_fields)]),
            ("hormander point of length 1", ["check-fields", "yamato", "--hormander", "0"]),
        ):
            rc, err = ops.run(name, call_cli, [*argv, "--seed", str(self.seed), "--out", str(out / "rejected")])
            lines = err.strip().splitlines()
            if not (rc == 2 and len(lines) == 1):
                ops.failed.append(f"{name}: exit {rc}, {len(lines)} stderr lines, expected exit 2 and one line")
        return codes

    def warm_up(self) -> None:
        small = {
            "sample-fbm": ("--grid-points", "17", "--paths", "2"),
            "sewing-test": ("--trials", "3", "--grid-points", "17"),
            "norris-stats": ("--paths", "50"),
            "norris-mc": ("--paths", "100"),
            "density": ("--paths", "1000", "--grid-points", "9"),
        }
        out = self.workdir / "warm-up"
        self._experiments(Ops(), out, small)
        shutil.rmtree(out)

    def round(self, ops: Ops):
        out = self.workdir / f"round-{self.rounds}"
        self.rounds += 1
        codes = self._experiments(ops, out, {})
        return out, codes

    def fingerprint(self, out) -> str:
        root, _ = out
        digest = hashlib.sha256()
        for manifest in sorted(root.glob("*/manifest.json")):
            digest.update(manifest.parent.name.encode() + manifest.read_bytes())
        return digest.hexdigest()

    def discard(self, out) -> None:
        shutil.rmtree(out[0])

    def check(self, out) -> None:
        root, codes = out
        for argv in EXPERIMENTS:
            require(codes[argv[0]] == 0, f"{argv[0]} exited {codes[argv[0]]}, not 0")
            exp = root / f"{argv[0]}-seed{self.seed}"
            entries = json.loads((exp / "manifest.json").read_text())["files"]
            listed = {e["name"] for e in entries}
            present = {p.name for p in exp.iterdir() if p.is_file() and p.name != "manifest.json"}
            require(listed == present, f"{argv[0]}: manifest lists {sorted(listed)}, directory holds {sorted(present)}")
            for e in entries:
                data = (exp / e["name"]).read_bytes()
                require(
                    hashlib.sha256(data).hexdigest() == e["sha256"] and len(data) == e["bytes"],
                    f"{argv[0]}: manifest hash or size of {e['name']} does not match the file",
                )
        self._check_summaries(root)

    def _check_summaries(self, root: Path) -> None:
        def load(name: str, file: str):
            path = root / f"{name}-seed{self.seed}" / file
            require(path.is_file(), f"{name}: {file} is missing")
            return json.loads(path.read_text())

        sewing = load("sewing-test", "summary.json")
        require(sewing["max_residual"] <= 1e-10, f"sewing residual {sewing['max_residual']:.2e} > 1e-10")
        require(sewing["ratio_ok"] and sewing["residual_ok"], "sewing summary flags a violated bound")

        sig = load("signature", "signature.json")
        values = {tuple(e["word"]): e["value"] for e in sig["entries"]}
        values[()] = 1.0
        worst = 0.0
        for u in values:
            for v in values:
                if u and v and len(u) + len(v) <= sig["level"]:
                    rhs = sum(values[w] for w in shuffles(u, v))
                    worst = max(worst, abs(values[u] * values[v] - rhs) / (1.0 + abs(rhs)))
        require(worst <= 1e-10, f"shuffle identity fails on the signature output by {worst:.2e}")

        flow = load("strichartz", "result.json")
        require(flow["max_abs_difference"] <= 1e-4, f"flow vs RDE endpoint gap {flow['max_abs_difference']:.2e} > 1e-4")
        jac = load("jacobian", "summary.json")
        require(jac["inverse_residual"] <= 1e-9, f"jacobian inverse residual {jac['inverse_residual']:.2e} > 1e-9")
        require(jac["fd_residual"] <= 1e-6, f"jacobian FD residual {jac['fd_residual']:.2e} > 1e-6")
        mal = load("malliavin", "summary.json")
        require(mal["route_residual"] <= 1e-6, f"Malliavin route residual {mal['route_residual']:.2e} > 1e-6")
        fields = load("check-fields", "report.json")
        require(fields["all_pass"] is True, "check-fields reports a failed hypothesis for yamato")
        density = load("density", "summary.json")
        require(density["mass"] >= 0.95, f"density KDE mass {density['mass']:.4f} < 0.95")


WORKLOADS = {
    "mc_density": McDensity,
    "path_flows": PathFlows,
    "fine_grid": FineGrid,
    "cli_defaults": CliDefaults,
}
