"""Experiment runner: subcommands, JSON configs, deterministic artifacts.

Every subcommand resolves its configuration (flags over an optional
``--config`` JSON file over defaults), validates it against a schema,
and writes its artifacts plus a SHA-256 manifest under
``<out>/<experiment>-seed<seed>/``.  ``config.json``, echoed on stdout,
is the one record of the run's inputs: the config, with ``initial``
resolved, and the ``fields_hash`` of a run on fields.  The other files
hold results only.

Exit codes: 0 success, 2 configuration/schema violation, 3 numeric,
model or allocation failure (the offending module's message goes to stderr).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from .controlled import RoughDriver, rde_solve
from .densitylab import density_report, yamato_fields
from .errors import PreconditionError, RoughflowError
from .fbm import HurstParam, TimeGrid, sample_fbm
from .flows import jacobian_path_strichartz, malliavin_derivative, malliavin_via_jacobian
from .increments import Increment2, delta2, holder_norm, holder_norm_c3, sewing
from .liefields import FieldFamily, PolyVectorField, bracket, fields_hash, hormander_rank, parse_field_file
from .norris import TwoScale, block_stats_mc, concentration_table, hermite_moments, norris_dichotomy_mc, s_k
from .reporting import svg_line_plot, write_csv, write_json, write_manifest
from .signature import batch_signature_levels, path_signature
from .strichartz import build_Z_batch, exp_flow_batch, flow_route, gauss_nodes, strichartz_solve

# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _schema(description: str, properties: dict, required: tuple[str, ...] = ()) -> dict:
    return {
        "description": description,
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


def _int(minimum: int, maximum: int | None = None, default: int | None = None) -> dict:
    spec = {"type": "integer", "minimum": minimum, "maximum": maximum, "default": default}
    return {k: v for k, v in spec.items() if v is not None}


def _positive(default: float | None = None) -> dict:
    spec = {"type": "number", "exclusiveMinimum": 0.0}
    return spec if default is None else {**spec, "default": default}


_HURST = {"type": "number", "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0, "default": 0.4}
_SEED = _int(0, default=0)
_FIELDS = {"type": "string", "minLength": 1, "default": "yamato"}
_POINT = {"type": "array", "items": {"type": "number"}}


def _grid(default: int) -> dict:
    return _int(2, 4097, default)


def _flow(description: str, grid_points: int, steps: int) -> dict:
    """The schema of a frozen-field flow experiment (strichartz, jacobian, malliavin), run at ``FieldFamily.order``."""
    return _schema(
        description,
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _positive(1.0),
            "grid_points": _grid(grid_points),
            "steps": _int(1, 65536, steps),
            "initial": _POINT,
            "seed": _SEED,
        },
    )


#: One JSON schema per experiment.  Each property is one ``--flag`` (``_`` as ``-``)
#: and its ``default`` keyword, if any, is the value used when neither flag nor file sets it.
SCHEMAS = {
    "sample-fbm": _schema(
        "sample exact fBm paths to CSV",
        {
            "hurst": _HURST,
            "horizon": _positive(1.0),
            "grid_points": _grid(257),
            "dim": _int(1, 16, 1),
            "paths": _int(1, default=10),
            "seed": _SEED,
        },
    ),
    "signature": _schema(
        "truncated signature of one sampled path",
        {
            "hurst": _HURST,
            "horizon": _positive(1.0),
            "grid_points": _grid(65),
            "dim": _int(1, 8, 2),
            "level": _int(1, 6, 4),
            "s": {"type": "number", "minimum": 0.0},
            "t": _positive(),
            "seed": _SEED,
        },
    ),
    "sewing-test": _schema(
        "sewing-map norm and inversion residuals",
        {
            "mu": {"type": "number", "exclusiveMinimum": 1.0, "maximum": 2.0, "default": 1.2},
            # A triple needs three points; the triple table grows as n^3 (278.5 MB peak RSS at 257, 3 trials).
            "grid_points": _int(3, 257, 65),
            "trials": _int(1, default=100),
            "seed": _SEED,
        },
    ),
    "solve": _schema(
        "second-order RDE solve along a sampled driver",
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "horizon": _positive(1.0),
            "mesh_exp": _int(1, 12, 8),
            "initial": _POINT,
            "seed": _SEED,
        },
    ),
    "check-fields": _schema(
        "bracket hypothesis checks for a field family",
        {
            "fields": {"type": "string", "minLength": 1},
            "nilpotent": _int(2, 6, 3),
            "constant_brackets": {"type": "boolean"},
            "hormander": _POINT,
            "up_to": _int(1, 5),
            "seed": _SEED,
        },
        ("fields",),
    ),
    "strichartz": _flow("endpoint via the nilpotent flow representation", 65, 256),
    "jacobian": _flow("Jacobian flow path and residual checks", 65, 256),
    "malliavin": _flow("Malliavin derivative slice with route cross-check", 33, 128),
    "norris-stats": _schema(
        "fourth-variation block statistics and tails",
        {
            "hurst": _HURST,
            "delta_exp": _int(2, 12, 10),
            "ratio_exp": _int(1, 8, 5),
            "paths": _int(1, default=2000),
            "seed": _SEED,
        },
    ),
    "norris-mc": _schema(
        "smallness dichotomy Monte-Carlo probe",
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "paths": _int(1, default=2000),
            "eps": {"type": "array", "items": _positive(), "minItems": 2, "uniqueItems": True,
                    "default": [0.4, 0.2, 0.1, 0.05]},
            "q": _positive(0.5),
            "horizon": _positive(1e-4),
            "grid_points": _grid(65),
            "seed": _SEED,
        },
    ),
    "density": _schema(
        "Monte-Carlo density probe of an endpoint component",
        {
            "fields": _FIELDS,
            "hurst": _HURST,
            "time": _positive(1.0),
            "component": _int(1, 16, 3),
            "paths": _int(200, default=20000),
            "grid_points": _grid(33),
            "bandwidth": _positive(),
            "seed": _SEED,
        },
    ),
}


class ConfigError(Exception):
    pass


def read_input(path: str, kind: str) -> str:
    """The text of the UTF-8 ``kind`` file at ``path``; ConfigError naming it otherwise."""
    if not Path(path).is_file():
        raise ConfigError(f"{kind} file does not exist: {path}")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{kind} file is not UTF-8 text: {path}") from None


def load_fields(spec: str) -> list[PolyVectorField]:
    return yamato_fields() if spec == "yamato" else parse_field_file(read_input(spec, "fields"))


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    schema = SCHEMAS[command]
    props = schema["properties"]
    config = copy.deepcopy({k: p["default"] for k, p in props.items() if "default" in p})
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(read_input(args.config, "config"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        config.update(file_cfg)
    for key in props:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    # JSON reads NaN and Infinity, float() reads nan and inf, and no schema bound refuses them.
    for key, val in config.items():
        for v in val if isinstance(val, list) else (val,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v}")
    # The schemas are fixed and checked by the tests, so this skips the metaschema
    # check that jsonschema.validate repeats on every call; the error is its best match.
    error = best_match(validator_for(schema)(schema).iter_errors(config))
    if error is not None:
        raise ConfigError(f"config violates schema: {error.message}")
    # Experiments that drive fields lift the path to level 2, valid only for 1/3 < H < 1/2.
    if {"fields", "hurst"} <= props.keys() and not HurstParam(config["hurst"]).in_rough_regime:
        raise ConfigError(f"{command} needs 1/3 < hurst < 1/2, got {config['hurst']}")
    return config


def dichotomy_directions(fields: list[PolyVectorField]) -> tuple[PolyVectorField, np.ndarray]:
    """norris-mc's U, the first nonzero field, and eta, the first nonzero [V_j, U] at the origin."""
    u_field = next((f for f in fields if not f.is_zero), None)
    if u_field is None:
        raise ConfigError("norris-mc needs a nonzero field for U")
    origin = np.zeros(u_field.m)
    for v in fields:
        eta = bracket(v, u_field)(origin)
        if np.any(eta):
            return u_field, eta
    raise ConfigError("norris-mc needs a bracket [V_j, U] that is nonzero at the origin for eta")


#: The experiments that run the family's frozen flow at ``FieldFamily.order``.
CERTIFIED_FLOWS = ("strichartz", "jacobian", "malliavin", "density")
#: Most Gauss-Legendre nodes N = ``gauss_nodes(degree)`` a certified flow may use.  The node
#: tables of ``_gauss_legendre`` are N x N floats, 0.5 MB each at N = 256 (20 GB at the 50,001
#: nodes of ``x1^100000``).  ``polynomial_flow`` holds m x N floats per path, 4 MB per
#: component on one FLOW_BLOCK of 2,048 paths at N = 256, and its quadrature costs m N^2
#: products per path and Picard step: one FLOW_BLOCK of a 2-component, depth-2 flow takes
#: 0.6 s at N = 256, 2.1 s at 512 and 11 s at 1,024.
MAX_FLOW_NODES = 256


def check_flow_nodes(fields: list[PolyVectorField]) -> None:
    """Refuse a certified flow of more than MAX_FLOW_NODES nodes, read off the certificate alone."""
    family = FieldFamily.of(fields)
    try:
        certificate = family.bracket_stack(family.order()).certificate
    except PreconditionError:
        return  # not nilpotent: the runner refuses it before any flow
    degree = certificate[0] if certificate else 0  # no certificate: RK4, no nodes
    if gauss_nodes(degree) > MAX_FLOW_NODES:
        raise ConfigError(
            f"the flow of degree {degree} needs {gauss_nodes(degree)} Gauss-Legendre nodes, "
            f"over the cap of {MAX_FLOW_NODES}"
        )


def check_fit(command: str, config: dict, fields: list[PolyVectorField] | None) -> None:
    """Refuse values that miss the fields, the grid or each other: points, component, U and eta,
    a flow over the node cap, s < t, Delta <= 1."""
    if fields is not None:
        m = fields[0].m
        if command == "norris-mc":
            dichotomy_directions(fields)
        if command in CERTIFIED_FLOWS:
            check_flow_nodes(fields)
        for key in ("initial", "hormander"):
            point = config.get(key)
            if point is not None and len(point) != m:
                raise ConfigError(f"{key} point needs {m} coordinates, got {len(point)}")
        if config.get("component", 1) > m:
            raise ConfigError(f"component {config['component']} out of range 1..{m}")
    if command == "signature":
        grid = TimeGrid(config["horizon"], config["grid_points"])
        s, t = config.get("s", 0.0), config.get("t", config["horizon"])
        if grid.index_of(s) >= grid.index_of(t):
            raise ConfigError(f"signature needs s < t, got s = {s}, t = {t}")
    ratio_exp, delta_exp = config.get("ratio_exp", 0), config.get("delta_exp", 0)
    if ratio_exp > delta_exp:
        raise ConfigError(f"norris-stats needs ratio_exp <= delta_exp, got {ratio_exp} > {delta_exp}")


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def run_sample_fbm(config: dict, outdir: Path) -> None:
    grid = TimeGrid(config["horizon"], config["grid_points"])
    paths = sample_fbm(
        HurstParam(config["hurst"]), grid, config["dim"], config["paths"], config["seed"]
    )
    header = ["t"] + [f"comp_{j + 1}" for j in range(config["dim"])]
    for idx, p in enumerate(paths):
        write_csv(outdir / f"path_{idx:03d}.csv", header, [(t, *vals) for t, vals in zip(grid.times, p.values)])


def run_signature(config: dict, outdir: Path) -> None:
    grid = TimeGrid(config["horizon"], config["grid_points"])
    p = sample_fbm(HurstParam(config["hurst"]), grid, config["dim"], 1, config["seed"])[0]
    s = config.get("s", 0.0)
    t = config.get("t", config["horizon"])
    sig = path_signature(p, s, t, config["level"])
    (outdir / "signature.json").write_text(sig.to_json() + "\n")


def run_sewing_test(config: dict, outdir: Path) -> None:
    grid = TimeGrid(1.0, config["grid_points"])
    mu = config["mu"]
    bound = 1.0 / (2.0**mu - 2.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config["seed"])))
    times = grid.times
    rows = []
    for trial in range(config["trials"]):
        coeffs = rng.standard_normal(6)
        f = coeffs[0] * np.sin(np.pi * times) + coeffs[1] * times**2 + coeffs[2]
        x = coeffs[3] * np.cos(2 * np.pi * times) + coeffs[4] * times + coeffs[5] * times**3
        germ = Increment2(grid, f[:, None] * (x[None, :] - x[:, None]))
        h = delta2(germ)
        lam = sewing(h, mu)
        ratio = holder_norm(lam, mu) / holder_norm_c3(h, mu / 2, mu / 2)
        residual = float(np.max(np.abs(delta2(lam).values - h.values)))
        rows.append((trial, ratio, residual))
    write_csv(outdir / "trials.csv", ["trial", "norm_ratio", "delta_residual"], rows)
    ratios = [r[1] for r in rows]
    residuals = [r[2] for r in rows]
    write_json(
        outdir / "summary.json",
        {
            "bound": bound,
            "max_ratio": max(ratios),
            "max_residual": max(residuals),
            "ratio_ok": max(ratios) <= bound + 0.05,
            "residual_ok": max(residuals) <= 1e-10,
        },
    )


def _driven(config: dict, fields: list[PolyVectorField], horizon: float, n_points: int):
    """Grid, one sampled driver on it and the resolved initial point."""
    grid = TimeGrid(horizon, n_points)
    p = sample_fbm(HurstParam(config["hurst"]), grid, len(fields), 1, config["seed"])[0]
    return grid, p, np.asarray(config["initial"], dtype=float)


def run_solve(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    grid, p, initial = _driven(config, fields, config["horizon"], 2 ** config["mesh_exp"] + 1)
    solution, _ = rde_solve(fields, initial, RoughDriver.from_path(p))
    header = ["t"] + [f"y_{i + 1}" for i in range(fields[0].m)]
    rows = [(t, *vals) for t, vals in zip(grid.times, solution.values)]
    write_csv(outdir / "solution.csv", header, rows)


def run_check_fields(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    family = FieldFamily.of(fields)
    n = config["nilpotent"]
    nil, witness = family.nilpotent(n)
    report = {
        "nilpotent": {"order": n, "ok": nil, "witness": list(witness) if witness else None},
    }
    if config.get("constant_brackets"):
        report["constant_brackets"] = {"up_to": n, "ok": family.constant_brackets(n)}
    if config.get("hormander") is not None:
        point = [float(v) for v in config["hormander"]]
        up_to = config.get("up_to", n - 1)
        rank = hormander_rank(family, point, up_to)
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


def run_strichartz(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    _, p, initial = _driven(config, fields, config["time"], config["grid_points"])
    family = FieldFamily.of(fields)
    n = family.order()
    y_flow = strichartz_solve(family, p, initial, config["time"], n, steps=config["steps"])
    y_rde, _ = rde_solve(fields, initial, RoughDriver.from_path(p))
    write_json(
        outdir / "result.json",
        {
            "endpoint_flow": y_flow.tolist(),
            "endpoint_rde": y_rde.values[-1].tolist(),
            "max_abs_difference": float(np.max(np.abs(y_flow - y_rde.values[-1]))),
            "order": n,
            "flow": flow_route(family, n, config["steps"]),
        },
    )


def run_jacobian(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    grid, p, initial = _driven(config, fields, config["time"], config["grid_points"])
    family = FieldFamily.of(fields)
    m, n = family.m, family.order()
    _, jac = jacobian_path_strichartz(family, p, initial, n, steps=config["steps"])
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
    # Central differences of y_T in a: the 2m starts a +- eps e_k as one batch on the path's psi.
    eps = 1e-4
    psi = build_Z_batch(family, batch_signature_levels(p.values[None], n - 1), n)
    starts = initial + eps * np.concatenate([np.eye(m), -np.eye(m)])
    ends = exp_flow_batch(family, n, np.repeat(psi, 2 * m, axis=1), starts, config["steps"])
    fd = (ends[:m] - ends[m:]).T / (2 * eps)
    write_json(
        outdir / "summary.json",
        {
            "inverse_residual": jac.inverse_residual(),
            "fd_residual": float(np.max(np.abs(fd - jac.J[-1]))),
            "order": n,
            "flow": flow_route(family, n, config["steps"]),
        },
    )


def run_malliavin(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    grid, p, initial = _driven(config, fields, config["time"], config["grid_points"])
    family = FieldFamily.of(fields)
    m, d, n = family.m, family.d, family.order()
    t = config["time"]
    slice_ode = malliavin_derivative(family, p, initial, t, n, steps=config["steps"])
    slice_jac = malliavin_via_jacobian(family, p, initial, t, n, steps=config["steps"])
    header = ["u"] + [f"D_{i + 1}{j + 1}" for i in range(m) for j in range(d)]
    rows = [(u, *slice_ode.values[k].ravel()) for k, u in enumerate(grid.times)]
    write_csv(outdir / "malliavin.csv", header, rows)
    k_t = grid.index_of(t)
    write_json(
        outdir / "summary.json",
        {
            "route_residual": float(
                np.max(np.abs(slice_ode.values[: k_t + 1] - slice_jac.values[: k_t + 1]))
            ),
            "order": n,
            "flow": flow_route(family, n, config["steps"]),
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
            "delta": delta,
            "Delta": scales.Delta,
            "r": scales.r,
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


def run_norris_mc(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
    u_field, eta = dichotomy_directions(fields)
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
    header = ["eps", "eps_q", "count", "frequency", "stderr", "upper_bound_only"]
    write_csv(outdir / "dichotomy.csv", header, [[r[k] for k in header] for r in rep["rows"]])
    write_json(outdir / "summary.json", {k: rep[k] for k in ("fitted_exponent", "non_increasing")})


def run_density(config: dict, outdir: Path, fields: list[PolyVectorField]) -> None:
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


#: Runners of the experiments whose schema has ``fields`` take the parsed fields as a third argument.
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


_FLAG_TYPES = {"integer": int, "number": float, "string": str, "array": _csv_floats}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughflow",
        description="Rough-path numerics experiments with deterministic artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"roughflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=schema["description"])
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", default="out", help="artifact root directory")
        if name == "check-fields":
            p.add_argument("fields_file", nargs="?")
        for key, spec in schema["properties"].items():
            flag = "--" + key.replace("_", "-")
            if spec["type"] == "boolean":
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_FLAG_TYPES[spec["type"]])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "check-fields" and getattr(args, "fields_file", None):
        args.fields = args.fields_file
    try:
        config = resolve_config(command, args)
        # Parsed once, here, so a bad file or a point that does not fit it is a config error.
        fields = load_fields(config["fields"]) if "fields" in config else None
        check_fit(command, config, fields)
        if "initial" in SCHEMAS[command]["properties"]:
            config.setdefault("initial", [0.0] * fields[0].m)
        outdir = Path(args.out) / f"{command}-seed{config['seed']}"
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, RoughflowError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    record = {"command": command, "config": config}
    if fields is not None:
        record["fields_hash"] = fields_hash(fields)
    print(json.dumps(record, sort_keys=True))
    try:
        write_json(outdir / "config.json", record)
        if fields is None:
            RUNNERS[command](config, outdir)
        else:
            RUNNERS[command](config, outdir, fields)
        write_manifest(outdir)
    except (RoughflowError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
