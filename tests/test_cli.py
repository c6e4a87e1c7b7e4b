import argparse
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from jsonschema.validators import validator_for

from roughflow import cli
from roughflow.cli import SCHEMAS, ConfigError, dichotomy_directions, main, resolve_config
from roughflow.densitylab import _skewness, flow_endpoint_samples, yamato_fields
from roughflow.fbm import HurstParam, TimeGrid, sample_fbm
from roughflow.flows import jacobian_path_strichartz, malliavin_derivative
from roughflow.liefields import fields_hash, format_field_file, parse_field_file
from roughflow.strichartz import strichartz_solve

from helpers import chain_family

SMALL_RUNS = {
    "sample-fbm": ["--grid-points", "17", "--paths", "2"],
    "signature": ["--grid-points", "9", "--level", "2"],
    "sewing-test": ["--trials", "3", "--grid-points", "17"],
    "solve": ["--mesh-exp", "4"],
    "check-fields": ["yamato", "--constant-brackets", "--hormander", "0,0,0"],
    "strichartz": ["--grid-points", "9", "--steps", "32"],
    "jacobian": ["--grid-points", "9", "--steps", "32"],
    "malliavin": ["--grid-points", "9", "--steps", "32"],
    "norris-stats": ["--paths", "50"],
    "norris-mc": ["--paths", "50"],
    "density": ["--paths", "1000", "--grid-points", "9"],
}


#: Every experiment's defaults, as the CLI has always run them; SCHEMAS' default keywords must give these.
DEFAULTS = {
    "sample-fbm": {"hurst": 0.4, "horizon": 1.0, "grid_points": 257, "dim": 1, "paths": 10, "seed": 0},
    "signature": {"hurst": 0.4, "horizon": 1.0, "grid_points": 65, "dim": 2, "level": 4, "seed": 0},
    "sewing-test": {"mu": 1.2, "grid_points": 65, "trials": 100, "seed": 0},
    "solve": {"fields": "yamato", "hurst": 0.4, "horizon": 1.0, "mesh_exp": 8, "seed": 0},
    "check-fields": {"nilpotent": 3, "seed": 0},
    "strichartz": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 65, "steps": 256, "seed": 0},
    "jacobian": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 65, "steps": 256, "seed": 0},
    "malliavin": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "grid_points": 33, "steps": 128, "seed": 0},
    "norris-stats": {"hurst": 0.4, "delta_exp": 10, "ratio_exp": 5, "paths": 2000, "seed": 0},
    "norris-mc": {"fields": "yamato", "hurst": 0.4, "paths": 2000, "eps": [0.4, 0.2, 0.1, 0.05], "q": 0.5, "horizon": 1e-4, "grid_points": 65, "seed": 0},
    "density": {"fields": "yamato", "hurst": 0.4, "time": 1.0, "component": 3, "paths": 20000, "grid_points": 33, "seed": 0},
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def test_defaults_cover_every_experiment():
    assert sorted(DEFAULTS) == sorted(SCHEMAS) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_defaults_are_pinned(command):
    # check-fields has no default family, so it gets the one flag it requires.
    given = {"fields": "yamato"} if command == "check-fields" else {}
    config = resolve_config(command, argparse.Namespace(**given))
    assert config == {**DEFAULTS[command], **given}
    # The resolved config owns its lists: editing one leaves the next run's defaults alone.
    for value in config.values():
        if isinstance(value, list):
            value.clear()
    assert resolve_config(command, argparse.Namespace(**given)) == {**DEFAULTS[command], **given}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_help_lists_one_flag_per_schema_property(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    flags = re.findall(r"^\s+(--[\w-]+)", out, re.MULTILINE)
    assert sorted(flags) == sorted(["--config", "--out", *map(_flag, SCHEMAS[command]["properties"])])


#: (command, key) for every number-typed property and every array of numbers.
NUMBER_KEYS = [
    (command, key)
    for command, schema in sorted(SCHEMAS.items())
    for key, spec in schema["properties"].items()
    if spec["type"] in ("number", "array")
]


@pytest.mark.parametrize("command, key", NUMBER_KEYS)
@pytest.mark.parametrize("bad, json_bad", [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity")])
def test_non_finite_numbers_exit_two(command, key, bad, json_bad, tmp_path, capsys):
    is_array = SCHEMAS[command]["properties"][key]["type"] == "array"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {f"[1, {json_bad}, 2]" if is_array else json_bad}}}')
    prefix = ["yamato"] if command == "check-fields" else []
    for argv in ([f"{_flag(key)}={f'1,{bad},2' if is_array else bad}"], ["--config", str(cfg)]):
        assert main([command, *prefix, *argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be finite, got {float(bad)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_subcommand_runs_and_manifests(command, tmp_path, capsys):
    rc = main([command, *SMALL_RUNS[command], "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0])
    assert echoed["command"] == command
    assert echoed["config"]["seed"] == 1
    outdir = tmp_path / f"{command}-seed1"
    manifest = json.loads((outdir / "manifest.json").read_text())
    names = {e["name"] for e in manifest["files"]}
    assert "config.json" in names
    assert len(names) >= 2
    for entry in manifest["files"]:
        assert len(entry["sha256"]) == 64


@pytest.mark.parametrize("command", ["jacobian", "malliavin", "strichartz"])
def test_flow_summaries_record_the_route(command, tmp_path):
    assert main([command, *SMALL_RUNS[command], "--seed", "1", "--out", str(tmp_path)]) == 0
    name = "result.json" if command == "strichartz" else "summary.json"
    summary = json.loads((tmp_path / f"{command}-seed1" / name).read_text())
    assert summary["flow"] == {"route": "polynomial", "degree": 2, "depth": 2, "nodes": 1}


@pytest.mark.parametrize("command", ["sample-fbm", "sewing-test", "density", "norris-mc"])
def test_rerun_is_byte_identical(command, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        rc = main([command, *SMALL_RUNS[command], "--seed", "2", "--out", str(tmp_path / sub)])
        assert rc == 0
        blobs.append(
            (tmp_path / sub / f"{command}-seed2" / "manifest.json").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_schema_violation_exits_two(tmp_path, capsys):
    rc = main(["sample-fbm", "--hurst", "2.0", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_is_valid_against_its_metaschema(command):
    # resolve_config validates without re-checking the schema on every call.
    schema = SCHEMAS[command]
    validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_required_keys_have_no_default(command):
    # resolve_config fills every default first, so a required key with a default could never be missing.
    schema = SCHEMAS[command]
    assert all("default" not in schema["properties"][key] for key in schema["required"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample-fbm", "--hurst", "2.0"], "config violates schema: 2.0 is greater than or equal to the maximum of 1.0"),
        (["sewing-test", "--grid-points", "2"], "config violates schema: 2 is less than the minimum of 3"),
    ],
)
def test_schema_violation_message(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def test_sewing_test_grid_cap_exits_two_before_allocating(tmp_path, capsys):
    # The triple table grows as n^3: 257 points peak near 278 MB, 258 would build ~180 MB of it.
    tracemalloc.start()
    try:
        rc = main(["sewing-test", "--grid-points", "258", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: config violates schema: 258 is greater than the maximum of 257"]
    assert peak < 2**20
    assert list(tmp_path.iterdir()) == []


def test_missing_fields_file_exits_two(tmp_path):
    rc = main(["solve", "--fields", str(tmp_path / "nope.vf"), "--out", str(tmp_path)])
    assert rc == 2


def test_malformed_fields_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "short.vf"
    bad.write_text("3 3\n0\n0\n")  # the header promises nine component lines
    rc = main(["solve", "--fields", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_zero_denominator_in_field_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "zero.vf"
    bad.write_text("3 3\n1/0\n" + "0\n" * 8)
    assert main(["solve", "--fields", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: zero denominator in '1/0'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", ["3 0", "3 x", "-1 0"])
def test_field_file_header_must_be_positive_integers(header, tmp_path, capsys):
    bad = tmp_path / "header.vf"
    bad.write_text(header + "\n")
    rc = main(["check-fields", "--fields", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_deeply_nested_field_file_exits_two(tmp_path):
    deep = tmp_path / "deep.vf"
    deep.write_text("1 1\n" + "(" * 3000 + "x1" + ")" * 3000 + "\n")
    argv = ["check-fields", "--fields", str(deep), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "roughflow.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["config error: polynomial nests too deeply"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("point", ["0", "0,0", "0,0,0,0"])
def test_hormander_point_length_exits_two(point, tmp_path, capsys):
    rc = main(["check-fields", "yamato", "--hormander", point, "--out", str(tmp_path)])
    assert rc == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "check-fields-seed0").exists()


@pytest.mark.parametrize("command", ["solve", "strichartz", "jacobian", "malliavin"])
@pytest.mark.parametrize("point", ["0,0", "0,0,0,0"])
def test_initial_point_length_exits_two(command, point, tmp_path, capsys):
    rc = main([command, "--initial", point, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip() == f"config error: initial point needs 3 coordinates, got {point.count(',') + 1}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--component", "9"],  # Yamato's family has m = 3
        ["signature", "--t", "2"],  # past --horizon 1
        ["signature", "--s", "0.9", "--t", "0.5"],
        ["signature", "--s", "0.5", "--t", "0.5"],
    ],
)
def test_values_that_miss_the_fields_or_grid_exit_two(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ")
    assert not any(tmp_path.iterdir())


def test_fields_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    texts = []

    def spy(text):
        texts.append(text)
        return parse_field_file(text)

    monkeypatch.setattr(cli, "parse_field_file", spy)
    path = tmp_path / "yamato.vf"
    path.write_text(format_field_file(yamato_fields()))
    assert main(["solve", "--fields", str(path), "--mesh-exp", "4", "--out", str(tmp_path)]) == 0
    assert len(texts) == 1


def test_sewing_depth_is_not_an_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sewing-test", "--depth", "12", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 12}))
    assert main(["sewing-test", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["density", "--hurst", "0.25"], 2),
        (["solve", "--hurst", "0.9"], 2),
        (["sample-fbm", "--hurst", "0.9", "--grid-points", "9", "--paths", "1"], 0),
    ],
)
def test_level_two_experiments_need_rough_regime(argv, code, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == code
    if code == 2:
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(c for c, s in SCHEMAS.items() if "hurst" in s["properties"]))
def test_rough_regime_gate_covers_exactly_the_field_experiments(command):
    # Every experiment that drives fields lifts the path to level 2.
    args = argparse.Namespace(hurst=0.3, fields="yamato")
    if "fields" in SCHEMAS[command]["properties"]:
        with pytest.raises(ConfigError, match=f"{command} needs 1/3 < hurst < 1/2, got 0.3"):
            resolve_config(command, args)
    else:
        assert resolve_config(command, args)["hurst"] == 0.3


def test_sample_fbm_config_with_threads_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    out = tmp_path / "out"
    assert main(["sample-fbm", "--config", str(cfg), "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


def test_malliavin_on_zero_fields_exits_zero(tmp_path):
    zero = tmp_path / "zero.vf"
    zero.write_text("3 2\n" + "0\n" * 6)
    argv = ["malliavin", "--fields", str(zero), *SMALL_RUNS["malliavin"], "--out", str(tmp_path)]
    assert main(argv) == 0
    outdir = tmp_path / "malliavin-seed0"
    assert json.loads((outdir / "summary.json").read_text())["route_residual"] == 0.0
    _, *rows = (outdir / "malliavin.csv").read_text().strip().splitlines()
    assert all(float(v) == 0.0 for row in rows for v in row.split(",")[1:])


def test_blow_up_exits_three_with_one_stderr_line(tmp_path):
    # y' = y^4 from y = 5 overflows within the first steps; numpy must not warn on the way.
    quartic = tmp_path / "quartic.vf"
    quartic.write_text("1 1\nx1^4\n")
    argv = ["solve", "--fields", str(quartic), "--initial", "5", "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "roughflow.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["BlowUpError: RDE state became non-finite (at 0.015625)"]


@pytest.mark.parametrize("command, when", [("jacobian", "0.0117188"), ("malliavin", "0.0390625")])
def test_flow_blow_up_exits_three_with_one_stderr_line(command, when, tmp_path):
    # x1^4 reads itself: no flow certificate, so the frozen flow runs RK4 and overflows there.
    quartic = tmp_path / "quartic.vf"
    quartic.write_text("1 1\nx1^4\n")
    argv = [command, "--fields", str(quartic), "--initial", "5", "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "roughflow.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"BlowUpError: RK4 flow state became non-finite (at {when})"]


def test_cli_import_leaves_out_heavy_scipy_modules():
    code = (
        "import sys, roughflow.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats', 'numpy.polynomial') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_density_paths_below_minimum_exit_two(tmp_path):
    rc = main(["density", "--paths", "199", "--grid-points", "9", "--out", str(tmp_path)])
    assert rc == 2
    assert main(["density", "--paths", "200", "--grid-points", "9", "--out", str(tmp_path)]) == 0


def test_bad_config_file_exits_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = main(["sample-fbm", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_numeric_failure_exits_three(tmp_path):
    # Non-nilpotent fields reach the flow representation and are refused.
    bad = tmp_path / "bad.vf"
    bad.write_text("1 2\nx1\n1\n")
    rc = main(
        [
            "strichartz",
            "--fields",
            str(bad),
            "--grid-points",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 3, "grid_points": 9}))
    rc = main(
        ["sample-fbm", "--config", str(cfg), "--paths", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0])
    # flags override the file; the file overrides defaults
    assert echoed["config"]["paths"] == 2
    assert echoed["config"]["grid_points"] == 9


def test_fields_file_round_trip_through_cli(tmp_path):
    vf = tmp_path / "yamato.vf"
    vf.write_text(format_field_file(yamato_fields()))
    rc = main(
        [
            "check-fields",
            str(vf),
            "--nilpotent",
            "3",
            "--constant-brackets",
            "--hormander",
            "0,0,0",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "check-fields-seed0" / "report.json").read_text())
    assert report["all_pass"]
    assert report["nilpotent"]["ok"]
    assert report["hormander"]["rank"] == 3


def test_sample_fbm_artifacts_match_metadata(tmp_path):
    rc = main(
        ["sample-fbm", "--grid-points", "9", "--paths", "2", "--dim", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    outdir = tmp_path / "sample-fbm-seed0"
    config = json.loads((outdir / "config.json").read_text())["config"]
    assert config["dim"] == 2 and config["grid_points"] == 9 and config["horizon"] == 1.0
    header, *rows = (outdir / "path_000.csv").read_text().strip().splitlines()
    assert header == "t,comp_1,comp_2"
    assert len(rows) == 9
    first = rows[0].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "roughflow.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "roughflow" in proc.stdout


def test_density_svg_is_emitted(tmp_path):
    rc = main(
        ["density", "--paths", "1000", "--grid-points", "9", "--out", str(tmp_path)]
    )
    assert rc == 0
    svg = (tmp_path / "density-seed0" / "density.svg").read_text()
    assert svg.startswith("<?xml")
    assert "polyline" in svg


#: chain_family as a field file: V1 = d1, V2 = x1 d2 + x2 d3, 4-nilpotent with constant brackets.
CHAIN_FILE = "3 2\n1\n0\n0\n0\nx1\nx2\n"


def _csv_values(path) -> np.ndarray:
    _, *rows = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in row.split(",")] for row in rows])


@pytest.mark.parametrize("command", ["strichartz", "jacobian", "malliavin", "density"])
def test_flows_run_at_the_family_order(command, tmp_path):
    vf = tmp_path / "chain.vf"
    vf.write_text(CHAIN_FILE)
    assert main([command, "--fields", str(vf), *SMALL_RUNS[command], "--out", str(tmp_path)]) == 0
    outdir = tmp_path / f"{command}-seed0"
    name = "result.json" if command == "strichartz" else "summary.json"
    summary = json.loads((outdir / name).read_text())
    fields, hurst = chain_family(), HurstParam(0.4)
    if command == "density":
        assert summary["hypotheses"]["order"] == 4
        want = flow_endpoint_samples(fields, hurst, 1.0, 1000, 0, 4, np.zeros(3), 9)[:, 2]
        assert summary["skewness"] == _skewness(want)
        return
    assert summary["order"] == 4
    p = sample_fbm(hurst, TimeGrid(1.0, 9), 2, 1, 0)[0]
    a = np.zeros(3)
    if command == "strichartz":
        assert summary["endpoint_flow"] == strichartz_solve(fields, p, a, 1.0, 4, steps=32).tolist()
    elif command == "jacobian":
        _, jac = jacobian_path_strichartz(fields, p, a, 4, steps=32)
        assert np.array_equal(_csv_values(outdir / "jacobian.csv")[:, 1:10], jac.J.reshape(9, 9))
    else:
        got = _csv_values(outdir / "malliavin.csv")[:, 1:]
        assert np.array_equal(got, malliavin_derivative(fields, p, a, 1.0, 4, steps=32).values.reshape(9, 6))


@pytest.mark.parametrize("command", ["strichartz", "jacobian", "malliavin"])
def test_level_is_not_an_option(command, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([command, "--level", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_norris_mc_reads_u_off_the_content_not_the_name(tmp_path):
    vf = tmp_path / "yamato.vf"
    vf.write_text(format_field_file(yamato_fields()))
    outputs = []
    for spec, out in (("yamato", tmp_path / "a"), (str(vf), tmp_path / "b")):
        assert main(["norris-mc", "--fields", spec, *SMALL_RUNS["norris-mc"], "--out", str(out)]) == 0
        outputs.append([(out / "norris-mc-seed0" / f).read_bytes() for f in ("dichotomy.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][1])["fitted_exponent"] is not None


def test_norris_mc_without_a_nonzero_field_exits_two(tmp_path, capsys):
    zero = tmp_path / "zero.vf"
    zero.write_text("3 2\n" + "0\n" * 6)
    assert main(["norris-mc", "--fields", str(zero), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: norris-mc needs a nonzero field for U"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["fields", "config", "out"])
def test_unreadable_input_or_output_path_exits_two(case, tmp_path, capsys):
    latin1 = tmp_path / "latin1"
    latin1.write_bytes("3 3 # café\n".encode("latin-1"))
    plain = tmp_path / "plain.txt"
    plain.write_text("a regular file\n")
    argv = {
        "fields": ["solve", "--fields", str(latin1), "--out", str(tmp_path / "out")],
        "config": ["sample-fbm", "--config", str(latin1), "--out", str(tmp_path / "out")],
        "out": ["sample-fbm", "--grid-points", "9", "--paths", "1", "--out", str(plain / "sub")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ") and "Traceback" not in err
    assert (str(plain) if case == "out" else str(latin1)) in err
    assert not (tmp_path / "out").exists()


#: Result keys named after a schema property that are results, not echoes of the input:
#: density's resolved KDE bandwidth, check-fields' sections (the outcome of the check each
#: option asks for) and the truncation level inside the serialised signature.
RESULT_KEYS_NAMED_AFTER_OPTIONS = {
    "density": {"bandwidth"},
    "check-fields": {"nilpotent", "constant_brackets", "hormander"},
    "signature": {"level"},
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_config_json_is_the_one_record_of_inputs(command, tmp_path, capsys):
    assert main([command, *SMALL_RUNS[command], "--out", str(tmp_path)]) == 0
    outdir = tmp_path / f"{command}-seed0"
    record = json.loads((outdir / "config.json").read_text())
    assert json.loads(capsys.readouterr().out.splitlines()[0]) == record
    props = SCHEMAS[command]["properties"]
    if "fields" in props:
        assert record["fields_hash"] == fields_hash(yamato_fields())
    else:
        assert "fields_hash" not in record
    assert not (outdir / "metadata.json").exists()
    allowed = RESULT_KEYS_NAMED_AFTER_OPTIONS.get(command, set())
    for path in outdir.iterdir():
        if path.name in ("config.json", "manifest.json"):
            continue
        assert "fields_hash" not in path.read_text(), path.name
        if path.suffix == ".json":
            echoed = set(json.loads(path.read_text())) & set(props)
            assert echoed <= allowed, (path.name, echoed - allowed)


@pytest.mark.parametrize("command", ["solve", "strichartz", "jacobian", "malliavin"])
def test_config_json_holds_the_resolved_initial(command, tmp_path):
    runs = {"origin": [], "given": ["--initial", "0.1,-0.2,0.3"]}
    for name, extra in runs.items():
        out = tmp_path / name
        assert main([command, *SMALL_RUNS[command], *extra, "--out", str(out)]) == 0
        runs[name] = json.loads((out / f"{command}-seed0" / "config.json").read_text())["config"]["initial"]
    assert runs == {"origin": [0.0, 0.0, 0.0], "given": [0.1, -0.2, 0.3]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["norris-stats", "--delta-exp", "2", "--ratio-exp", "8", "--paths", "10"],  # Delta = 2^6 > 1
            "norris-stats needs ratio_exp <= delta_exp, got 8 > 2",
        ),
        (
            ["norris-mc", "--paths", "10", "--eps", "0.4,0.4"],
            "config violates schema: [0.4, 0.4] has non-unique elements",
        ),
    ],
    ids=["norris-stats-Delta-above-one", "norris-mc-repeated-eps"],
)
def test_scales_and_eps_that_cannot_fit_exit_two(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "out").exists()


def test_norris_mc_without_a_nonzero_bracket_exits_two(tmp_path, capsys):
    flat = tmp_path / "flat.vf"
    flat.write_text("2 2\n1\n0\n0\n1\n")  # d1 and d2 commute
    assert main(["norris-mc", "--fields", str(flat), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: norris-mc needs a bracket [V_j, U] that is nonzero at the origin for eta"]
    assert not (tmp_path / "out").exists()


def test_norris_mc_eta_is_the_first_nonzero_bracket_at_the_origin():
    yamato = yamato_fields()
    u_field, eta = dichotomy_directions(yamato)
    assert u_field is yamato[1]
    assert eta.tolist() == [0.0, 0.0, 4.0]  # [A_3, A_2] = 4 e_3, so eta / |eta| = e_3
    chain = parse_field_file(CHAIN_FILE)
    u_field, eta = dichotomy_directions(chain)
    assert u_field is chain[0]
    assert np.array_equal(eta, [0.0, -1.0, 0.0])  # [V_2, V_1] = -d_2


def test_norris_mc_on_the_chain_file_counts_events(tmp_path):
    vf = tmp_path / "chain.vf"
    vf.write_text(CHAIN_FILE)
    assert main(["norris-mc", "--fields", str(vf), *SMALL_RUNS["norris-mc"], "--out", str(tmp_path)]) == 0
    _, *rows = (tmp_path / "norris-mc-seed0" / "dichotomy.csv").read_text().strip().splitlines()
    assert max(int(row.split(",")[2]) for row in rows) > 0
    assert json.loads((tmp_path / "norris-mc-seed0" / "summary.json").read_text())["fitted_exponent"] is not None
