"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 bench/run.py --workload mc_density --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
next to this directory, in this one process.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from
wrapped package functions, the import-time split and the tracing
overhead.  Each run is appended to ``bench/results/runs.jsonl``; a traced
run also writes its spans to ``bench/results/spans-<workload>.jsonl``.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS: on a 2-core box it was
# measurably steadier than the default threading (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

WORKLOAD_NAMES = ("mc_density", "path_flows", "fine_grid", "cli_defaults")

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: ``-X importtime`` modules reported as cumulative import seconds.
IMPORT_PROBES = {
    "numpy": "import.numpy_s",
    "scipy.integrate": "import.scipy.integrate_s",
    "scipy.stats": "import.scipy.stats_s",
    "jsonschema": "import.jsonschema_s",
    "roughflow.cli": "import.roughflow.cli_s",
}

IMPORT_CLI = "import roughflow.cli"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# Set-up time, import split and noise diagnostics
# ---------------------------------------------------------------------------


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _python(*args: str, capture: bool = False) -> subprocess.CompletedProcess:
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # quantizes the measured time.
    return subprocess.run(
        [sys.executable, *args],
        env=_import_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE if capture else None,
        text=True,
    )


def compile_package() -> None:
    """Write the package's bytecode, so imports time loading, not compiling."""
    if not compileall.compile_dir(SRC / "roughflow", quiet=1):
        raise RuntimeError(f"the package under {SRC} does not compile")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``roughflow.cli``."""
    compile_package()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _python("-c", IMPORT_CLI)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_split() -> dict[str, float]:
    """Cumulative import seconds of the probed modules, from -X importtime."""
    compile_package()
    proc = _python("-X", "importtime", "-c", IMPORT_CLI, capture=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {metric: cumulative.get(module, 0.0) for module, metric in IMPORT_PROBES.items()}


def steal_ticks() -> int | None:
    """Aggregate steal ticks from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields and fields[0] == "cpu" and len(fields) > 8 else None


def noise_snapshot() -> dict:
    return {"steal_ticks": steal_ticks(), "loadavg": list(os.getloadavg())}


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name == "reporting.bytes_written":
        return "bytes"
    if name == "peak_rss_mb":
        return "MB"
    return "s"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughflow" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import roughflow

    if Path(roughflow.__file__).resolve().parent != SRC / "roughflow":
        print(f"error: imported roughflow from {roughflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    from workloads import WORKLOADS, Runner

    noise_start = noise_snapshot()
    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update(import_split())
    else:
        metrics["setup_s"] = measure_setup()

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        runner = Runner(workload)
        untraced: list[float] = []
        traced: list[float] = []
        per_round: list[dict] = []
        all_spans: list[tuple] = []
        tracer = spans.Tracer() if args.trace else None
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            untraced.append(runner.timed_round())
            if tracer is None:
                continue
            tracer.install()
            try:
                traced.append(runner.timed_round(tracer.span(spans.ROOT_SPAN)))
            finally:
                tracer.restore()
            recorded, counts, nbytes = tracer.take()
            all_spans.extend(recorded)
            per_round.append(spans.layer_metrics(recorded, counts, nbytes))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_first()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    if tracer is None:
        metrics["wall_s"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        # median_low: each figure is one traced round's, and counts stay whole.
        for name in per_round[0]:
            metrics[name] = statistics.median_low(r[name] for r in per_round)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        spans.write_spans(RESULTS / f"spans-{args.workload}.jsonl", all_spans)

    correct = not runner.problems
    ops = runner.first_ops
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_wall_s": untraced,
        "traced_round_wall_s": traced,
        "problems": runner.problems,
        "failed_operations": sorted(set(ops.failed)),
        "noise": {"start": noise_start, "end": noise_snapshot()},
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "machine": {"cpu_count": os.cpu_count(), "platform": platform.platform()},
        **result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with (RESULTS / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {unit_of(name)}")
    print(f"rounds {len(untraced)} untraced, {len(traced)} traced; attempted {ops.attempted}, failed {len(ops.failed)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
