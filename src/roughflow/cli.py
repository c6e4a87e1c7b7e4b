"""Experiment runner: subcommands, JSON configs, deterministic artifacts.

Every subcommand resolves its configuration (flags over an optional
``--config`` JSON file over defaults), validates it against a schema,
echoes the resolved config as JSON on stdout, and writes its artifacts
plus a SHA-256 manifest under ``<out>/<experiment>-seed<seed>/``.

Exit codes: 0 success, 2 configuration/schema violation, 3 numeric or
model failure (the offending module's message goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .controlled import RoughDriver, rde_solve
from .densitylab import density_report, yamato_fields
from .errors import RoughflowError
from .fbm import HurstParam, TimeGrid, sample_fbm
from .flows import jacobian_path_strichartz, malliavin_derivative, malliavin_via_jacobian
from .increments import Increment2, delta2, holder_norm, holder_norm_c3, sewing
from .liefields import FieldFamily, PolyVectorField, hormander_rank, parse_field_file
from .norris import TwoScale, block_stats_mc, concentration_table, hermite_moments, norris_dichotomy_mc, s_k
from .reporting import parallel_map, svg_line_plot, write_csv, write_json, write_manifest
from .signature import path_signature
from .strichartz import fields_hash, strichartz_solve
from .increments import _triple_indices

# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _schema(properties: dict, required: list[str]) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


_HURST = {"type": "number", "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0}
_GRID = {"type": "integer", "minimum": 2, "maximum": 4097}
_SEED = {"type": "integer", "minimum": 0}
_PATHS = {"type": "integer", "minimum": 1}
_POSNUM = {"type": "number", "exclusiveMinimum": 0.0}
_FIELDS = {"type": "string", "minLength": 1}
_THREADS = {"type": "integer", "minimum": 1}

SCHEMAS = {
    "sample-fbm": _schema(
        {
            "hurst": _HURST,
            "horizon": _POSNUM,
            "grid_points": _GRID,
            "dim": {"type": "integer", "minimum": 1, "maximum": 16},
            "paths": _PATHS,
            "seed": _SEED,
            "threads": _THREADS,
        },
        ["hurst", "horizon", "grid_points", "dim", "paths", "seed"],
    ),
    "signature": _schema(
        {
            "hurst": _HURST,
            "horizon": _POSNUM,
            "grid_points": _GRID,
            "dim": {"type": "integer", "minimum": 1, "maximum": 8},
            "level": {"type": "integer", "minimum": 1, "maximum": 6},
            "s": {"type": "number", "minimum": 0.0},
            "t": _POSNUM,
            "seed": _SEED,
        },
        ["hurst", "horizon", "grid_points", "dim", "level", "seed"],
    ),
    "sewing-test": _schema(
        {
            "mu": {"type": "number", "exclusiveMinimum": 1.0, "maximum": 2.0},
            "depth": {"type": "integer", "minimum": 1, "maximum": 24},
            "grid_points": _GRID,
            "trials": _PATHS,
            "seed": _SEED,
        },
        ["mu", "depth", "grid_points", "trials", "seed"],
    ),
    "solve": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "horizon": _POSNUM,
            "mesh_exp": {"type": "integer", "minimum": 1, "maximum": 12},
            "initial": {"type": "array", "items": {"type": "number"}},
            "seed": _SEED,
        },
        ["fields", "hurst", "horizon", "mesh_exp", "seed"],
    ),
    "check-fields": _schema(
        {
            "fields": _FIELDS,
            "nilpotent": {"type": "integer", "minimum": 2, "maximum": 6},
            "constant_brackets": {"type": "boolean"},
            "hormander": {"type": "array", "items": {"type": "number"}},
            "up_to": {"type": "integer", "minimum": 1, "maximum": 5},
            "seed": _SEED,
        },
        ["fields", "nilpotent", "seed"],
    ),
    "strichartz": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _POSNUM,
            "grid_points": _GRID,
            "level": {"type": "integer", "minimum": 2, "maximum": 5},
            "steps": {"type": "integer", "minimum": 1, "maximum": 65536},
            "initial": {"type": "array", "items": {"type": "number"}},
            "seed": _SEED,
        },
        ["fields", "hurst", "time", "grid_points", "level", "seed"],
    ),
    "jacobian": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _POSNUM,
            "grid_points": _GRID,
            "level": {"type": "integer", "minimum": 2, "maximum": 5},
            "steps": {"type": "integer", "minimum": 1, "maximum": 65536},
            "initial": {"type": "array", "items": {"type": "number"}},
            "seed": _SEED,
        },
        ["fields", "hurst", "time", "grid_points", "level", "seed"],
    ),
    "malliavin": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _POSNUM,
            "grid_points": _GRID,
            "level": {"type": "integer", "minimum": 2, "maximum": 5},
            "steps": {"type": "integer", "minimum": 1, "maximum": 65536},
            "initial": {"type": "array", "items": {"type": "number"}},
            "seed": _SEED,
        },
        ["fields", "hurst", "time", "grid_points", "level", "seed"],
    ),
    "norris-stats": _schema(
        {
            "hurst": _HURST,
            "delta_exp": {"type": "integer", "minimum": 2, "maximum": 12},
            "ratio_exp": {"type": "integer", "minimum": 1, "maximum": 8},
            "paths": _PATHS,
            "seed": _SEED,
        },
        ["hurst", "delta_exp", "ratio_exp", "paths", "seed"],
    ),
    "norris-mc": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "paths": _PATHS,
            "eps": {"type": "array", "items": _POSNUM, "minItems": 2},
            "q": _POSNUM,
            "horizon": _POSNUM,
            "grid_points": _GRID,
            "seed": _SEED,
        },
        ["fields", "hurst", "paths", "eps", "q", "horizon", "grid_points", "seed"],
    ),
    "density": _schema(
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _POSNUM,
            "component": {"type": "integer", "minimum": 1, "maximum": 16},
            "paths": {"type": "integer", "minimum": 200},
            "grid_points": _GRID,
            "bandwidth": _POSNUM,
            "seed": _SEED,
        },
        ["fields", "hurst", "time", "component", "paths", "grid_points", "seed"],
    ),
}

DEFAULTS = {
    "sample-fbm": {"hurst": 0.4, "horizon": 1.0, "grid_points": 257, "dim": 1, "paths": 10, "seed": 0, "threads": 1},
    "signature": {"hurst": 0.4, "horizon": 1.0, "grid_points": 65, "dim": 2, "level": 4, "seed": 0},
    "sewing-test": {"mu": 1.2, "depth": 12, "grid_points": 65, "trials": 100, "seed": 0},
    "solve": {"fields": "yamato", "hurst": 0.4, "horizon": 1.0, "mesh_exp": 8, "seed": 0},
    "check-fields": {"nilpotent": 3, "seed": 0},
    "strichartz": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 65, "level": 3, "steps": 256, "seed": 0},
    "jacobian": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 65, "level": 3, "steps": 256, "seed": 0},
    "malliavin": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 33, "level": 3, "steps": 128, "seed": 0},
    "norris-stats": {"hurst": 0.4, "delta_exp": 10, "ratio_exp": 5, "paths": 2000, "seed": 0},
    "norris-mc": {"fields": "yamato", "hurst": 0.4, "paths": 2000, "eps": [0.4, 0.2, 0.1, 0.05], "q": 0.5, "horizon": 1e-4, "grid_points": 65, "seed": 0},
    "density": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "component": 3, "paths": 20000, "grid_points": 33, "seed": 0},
}

#: Experiments that lift the driver to level 2, valid only for 1/3 < H < 1/2.
ROUGH_REGIME = {"solve", "strichartz", "jacobian", "malliavin", "norris-mc", "density"}


class ConfigError(Exception):
    pass


def load_fields(spec: str) -> list[PolyVectorField]:
    if spec == "yamato":
        return yamato_fields()
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"fields file does not exist: {spec}")
    return parse_field_file(path.read_text())


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ConfigError(f"config file does not exist: {args.config}")
        try:
            file_cfg = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        config.update(file_cfg)
    for key in SCHEMAS[command]["properties"]:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    try:
        jsonschema.validate(config, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config violates schema: {exc.message}") from exc
    if command in ROUGH_REGIME and not HurstParam(config["hurst"]).in_rough_regime:
        raise ConfigError(f"{command} needs 1/3 < hurst < 1/2, got {config['hurst']}")
    return config


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def run_sample_fbm(config: dict, outdir: Path) -> None:
    grid = TimeGrid(config["horizon"], config["grid_points"])
    paths = sample_fbm(
        HurstParam(config["hurst"]), grid, config["dim"], config["paths"], config["seed"]
    )
    header = ["t"] + [f"comp_{j + 1}" for j in range(config["dim"])]

    def dump(item):
        idx, p = item
        rows = [(t, *vals) for t, vals in zip(grid.times, p.values)]
        write_csv(outdir / f"path_{idx:03d}.csv", header, rows)

    parallel_map(dump, list(enumerate(paths)), config.get("threads", 1))
    write_json(
        outdir / "metadata.json",
        {
            "H": config["hurst"],
            "T": config["horizon"],
            "n_points": config["grid_points"],
            "d": config["dim"],
            "paths": config["paths"],
            "seed": config["seed"],
        },
    )


def run_signature(config: dict, outdir: Path) -> None:
    grid = TimeGrid(config["horizon"], config["grid_points"])
    p = sample_fbm(HurstParam(config["hurst"]), grid, config["dim"], 1, config["seed"])[0]
    s = config.get("s", 0.0)
    t = config.get("t", config["horizon"])
    sig = path_signature(p, s, t, config["level"])
    (outdir / "signature.json").write_text(sig.to_json() + "\n")
    write_json(outdir / "metadata.json", {k: config[k] for k in sorted(config)})


def run_sewing_test(config: dict, outdir: Path) -> None:
    grid = TimeGrid(1.0, config["grid_points"])
    mu = config["mu"]
    bound = 1.0 / (2.0**mu - 2.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config["seed"])))
    times = grid.times
    n = grid.n_points
    ii, uu, jj = _triple_indices(n)
    rows = []
    for trial in range(config["trials"]):
        coeffs = rng.standard_normal(6)
        f = coeffs[0] * np.sin(np.pi * times) + coeffs[1] * times**2 + coeffs[2]
        x = coeffs[3] * np.cos(2 * np.pi * times) + coeffs[4] * times + coeffs[5] * times**3
        germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
        h = delta2(germ)
        lam = sewing(h, mu, depth=config["depth"])
        ratio = holder_norm(lam, mu) / holder_norm_c3(h, mu / 2, mu / 2)
        dl = delta2(lam)
        residual = float(np.max(np.abs(dl(ii, uu, jj) - h(ii, uu, jj))))
        rows.append((trial, ratio, residual))
    write_csv(outdir / "trials.csv", ["trial", "norm_ratio", "delta_residual"], rows)
    ratios = [r[1] for r in rows]
    residuals = [r[2] for r in rows]
    write_json(
        outdir / "summary.json",
        {
            "mu": mu,
            "bound": bound,
            "max_ratio": max(ratios),
            "max_residual": max(residuals),
            "ratio_ok": max(ratios) <= bound + 0.05,
            "residual_ok": max(residuals) <= 1e-10,
            "trials": config["trials"],
        },
    )


def run_solve(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    n_points = 2 ** config["mesh_exp"] + 1
    grid = TimeGrid(config["horizon"], n_points)
    p = sample_fbm(HurstParam(config["hurst"]), grid, len(fields), 1, config["seed"])[0]
    initial = np.asarray(config.get("initial", [0.0] * fields[0].m), dtype=float)
    solution, _ = rde_solve(fields, initial, RoughDriver.from_path(p))
    header = ["t"] + [f"y_{i + 1}" for i in range(fields[0].m)]
    rows = [(t, *vals) for t, vals in zip(grid.times, solution.values)]
    write_csv(outdir / "solution.csv", header, rows)
    write_json(
        outdir / "metadata.json",
        {
            "fields_hash": fields_hash(fields),
            "H": config["hurst"],
            "mesh": grid.mesh,
            "seed": config["seed"],
            "initial": initial.tolist(),
        },
    )


def run_check_fields(config: dict, outdir: Path) -> None:
    family = FieldFamily.of(load_fields(config["fields"]))
    n = config["nilpotent"]
    nil, witness = family.nilpotent(n)
    report = {
        "fields_hash": family.key,
        "nilpotent": {"order": n, "ok": nil, "witness": list(witness) if witness else None},
    }
    if config.get("constant_brackets"):
        report["constant_brackets"] = {"up_to": n, "ok": family.constant_brackets(n)}
    if config.get("hormander") is not None:
        point = [float(v) for v in config["hormander"]]
        up_to = config.get("up_to", n - 1)
        rank = hormander_rank(family.fields, point, up_to)
        report["hormander"] = {
            "point": point,
            "up_to": up_to,
            "rank": rank,
            "full": rank == family.m,
        }
    report["all_pass"] = all(
        section["ok"] if "ok" in section else section["full"]
        for key, section in report.items()
        if isinstance(section, dict) and ("ok" in section or "full" in section)
    )
    write_json(outdir / "report.json", report)


def run_strichartz(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    grid = TimeGrid(config["time"], config["grid_points"])
    p = sample_fbm(HurstParam(config["hurst"]), grid, len(fields), 1, config["seed"])[0]
    initial = np.asarray(config.get("initial", [0.0] * fields[0].m), dtype=float)
    y_flow = strichartz_solve(
        fields, p, initial, config["time"], config["level"], steps=config["steps"]
    )
    y_rde, _ = rde_solve(fields, initial, RoughDriver.from_path(p))
    write_json(
        outdir / "result.json",
        {
            "fields_hash": fields_hash(fields),
            "endpoint_flow": y_flow.tolist(),
            "endpoint_rde": y_rde.values[-1].tolist(),
            "max_abs_difference": float(np.max(np.abs(y_flow - y_rde.values[-1]))),
            "initial": initial.tolist(),
        },
    )


def run_jacobian(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    m = fields[0].m
    grid = TimeGrid(config["time"], config["grid_points"])
    p = sample_fbm(HurstParam(config["hurst"]), grid, len(fields), 1, config["seed"])[0]
    initial = np.asarray(config.get("initial", [0.0] * m), dtype=float)
    _, jac = jacobian_path_strichartz(
        fields, p, initial, config["level"], steps=config["steps"]
    )
    header = (
        ["t"]
        + [f"J_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
        + [f"Jinv_{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    )
    rows = [
        (t, *jac.J[k].ravel(), *jac.J_inv[k].ravel())
        for k, t in enumerate(grid.times)
    ]
    write_csv(outdir / "jacobian.csv", header, rows)
    eps = 1e-4
    fd = np.empty((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = eps
        hi = strichartz_solve(fields, p, initial + e, config["time"], config["level"], steps=config["steps"])
        lo = strichartz_solve(fields, p, initial - e, config["time"], config["level"], steps=config["steps"])
        fd[:, k] = (hi - lo) / (2 * eps)
    write_json(
        outdir / "summary.json",
        {
            "fields_hash": fields_hash(fields),
            "inverse_residual": jac.inverse_residual(),
            "fd_residual": float(np.max(np.abs(fd - jac.J[-1]))),
        },
    )


def run_malliavin(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    m = fields[0].m
    d = len(fields)
    grid = TimeGrid(config["time"], config["grid_points"])
    p = sample_fbm(HurstParam(config["hurst"]), grid, d, 1, config["seed"])[0]
    initial = np.asarray(config.get("initial", [0.0] * m), dtype=float)
    t = config["time"]
    slice_ode = malliavin_derivative(fields, p, initial, t, config["level"], steps=config["steps"])
    slice_jac = malliavin_via_jacobian(fields, p, initial, t, config["level"], steps=config["steps"])
    header = ["u"] + [f"D_{i + 1}{j + 1}" for i in range(m) for j in range(d)]
    rows = [(u, *slice_ode.values[k].ravel()) for k, u in enumerate(grid.times)]
    write_csv(outdir / "malliavin.csv", header, rows)
    k_t = grid.index_of(t)
    write_json(
        outdir / "summary.json",
        {
            "fields_hash": fields_hash(fields),
            "t": t,
            "route_residual": float(
                np.max(np.abs(slice_ode.values[:k_t] - slice_jac.values[:k_t]))
            ),
        },
    )


def run_norris_stats(config: dict, outdir: Path) -> None:
    hurst = HurstParam(config["hurst"])
    delta = 2.0 ** (-config["delta_exp"])
    scales = TwoScale(delta, delta * 2 ** config["ratio_exp"])
    rep = block_stats_mc(hurst, scales, config["paths"], config["seed"])
    u_grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    conc = concentration_table(rep["x_samples"], hurst, scales, u_grid)
    write_csv(
        outdir / "concentration.csv",
        ["u", "frequency"],
        list(zip(conc["u"], conc["frequency"])),
    )
    K = scales.r
    write_json(
        outdir / "summary.json",
        {
            "hurst": config["hurst"],
            "delta": delta,
            "Delta": scales.Delta,
            "r": scales.r,
            "paths": config["paths"],
            "mc_mean": rep["mean"],
            "mean_target": rep["mean_target"],
            "mean_stderr": rep["mean_stderr"],
            "mc_variance": rep["variance"],
            "variance_target": rep["variance_target"],
            "s_k_over_k": s_k(K, hurst) / K,
            "hermite_mean_unit": hermite_moments(K, hurst)[0],
            "concentration_shape_slope": conc["loglog_shape_slope"],
        },
    )


def run_norris_mc(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    u_field = fields[1] if config["fields"] == "yamato" else fields[0]
    eta = np.zeros(fields[0].m)
    eta[-1] = 1.0
    rep = norris_dichotomy_mc(
        fields,
        u_field,
        eta,
        HurstParam(config["hurst"]),
        list(config["eps"]),
        config["q"],
        config["paths"],
        horizon=config["horizon"],
        grid_points=config["grid_points"],
        seed=config["seed"],
    )
    write_csv(
        outdir / "dichotomy.csv",
        ["eps", "eps_q", "count", "frequency", "stderr", "upper_bound_only"],
        [
            (r["eps"], r["eps_q"], r["count"], r["frequency"], r["stderr"], r["upper_bound_only"])
            for r in rep["rows"]
        ],
    )
    write_json(
        outdir / "summary.json",
        {
            "fields_hash": fields_hash(fields),
            "fitted_exponent": rep["fitted_exponent"],
            "non_increasing": rep["non_increasing"],
            "q": rep["q"],
            "horizon": rep["horizon"],
            "paths": rep["n_paths"],
        },
    )


def run_density(config: dict, outdir: Path) -> None:
    fields = load_fields(config["fields"])
    rep = density_report(
        fields,
        HurstParam(config["hurst"]),
        config["time"],
        config["paths"],
        functional=config["component"],
        seed=config["seed"],
        grid_points=config["grid_points"],
        bandwidth=config.get("bandwidth"),
    )
    est = rep["kde"]
    write_csv(outdir / "density.csv", ["x", "density"], list(zip(est.xs, est.values)))
    svg_line_plot(
        outdir / "density.svg",
        est.xs,
        est.values,
        title=f"kde component {config['component']}",
    )
    summary = {k: v for k, v in rep.items() if k != "kde"}
    summary["bandwidth"] = est.bandwidth
    write_json(outdir / "summary.json", summary)


RUNNERS = {
    "sample-fbm": run_sample_fbm,
    "signature": run_signature,
    "sewing-test": run_sewing_test,
    "solve": run_solve,
    "check-fields": run_check_fields,
    "strichartz": run_strichartz,
    "jacobian": run_jacobian,
    "malliavin": run_malliavin,
    "norris-stats": run_norris_stats,
    "norris-mc": run_norris_mc,
    "density": run_density,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughflow",
        description="Rough-path numerics experiments with deterministic artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"roughflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", default="out", help="artifact root directory")
        p.add_argument("--seed", type=int)
        return p

    p = add("sample-fbm", "sample exact fBm paths to CSV")
    p.add_argument("--hurst", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--threads", type=int)

    p = add("signature", "truncated signature of one sampled path")
    p.add_argument("--hurst", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--t", type=float)

    p = add("sewing-test", "sewing-map norm and inversion residuals")
    p.add_argument("--mu", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--trials", type=int)

    p = add("solve", "second-order RDE solve along a sampled driver")
    p.add_argument("--fields")
    p.add_argument("--hurst", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--mesh-exp", dest="mesh_exp", type=int)
    p.add_argument("--initial", type=_csv_floats)

    p = add("check-fields", "bracket hypothesis checks for a field family")
    p.add_argument("fields_file", nargs="?")
    p.add_argument("--fields")
    p.add_argument("--nilpotent", type=int)
    p.add_argument("--constant-brackets", dest="constant_brackets", action="store_const", const=True)
    p.add_argument("--hormander", type=_csv_floats)
    p.add_argument("--up-to", dest="up_to", type=int)

    for name, help_ in (
        ("strichartz", "endpoint via the nilpotent flow representation"),
        ("jacobian", "Jacobian flow path and residual checks"),
        ("malliavin", "Malliavin derivative slice with route cross-check"),
    ):
        p = add(name, help_)
        p.add_argument("--fields")
        p.add_argument("--hurst", type=float)
        p.add_argument("--time", type=float)
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--level", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--initial", type=_csv_floats)

    p = add("norris-stats", "fourth-variation block statistics and tails")
    p.add_argument("--hurst", type=float)
    p.add_argument("--delta-exp", dest="delta_exp", type=int)
    p.add_argument("--ratio-exp", dest="ratio_exp", type=int)
    p.add_argument("--paths", type=int)

    p = add("norris-mc", "smallness dichotomy Monte-Carlo probe")
    p.add_argument("--fields")
    p.add_argument("--hurst", type=float)
    p.add_argument("--paths", type=int)
    p.add_argument("--eps", type=_csv_floats)
    p.add_argument("--q", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)

    p = add("density", "Monte-Carlo density probe of an endpoint component")
    p.add_argument("--fields")
    p.add_argument("--hurst", type=float)
    p.add_argument("--time", type=float)
    p.add_argument("--component", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--bandwidth", type=float)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "check-fields" and getattr(args, "fields_file", None):
        args.fields = args.fields_file
    try:
        config = resolve_config(command, args)
        if "fields" in config:
            m = load_fields(config["fields"])[0].m  # existence and parse check up front
            point = config.get("hormander")
            if point is not None and len(point) != m:
                raise ConfigError(f"hormander point needs {m} coordinates, got {len(point)}")
    except (ConfigError, RoughflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": command, "config": config}, sort_keys=True))
    outdir = Path(args.out) / f"{command}-seed{config['seed']}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        write_json(outdir / "config.json", {"command": command, "config": config})
        RUNNERS[command](config, outdir)
        write_manifest(outdir)
    except RoughflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
