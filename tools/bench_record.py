"""Record the benchmark of one change as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr 11 --seeds 901 902 903 [--layers]

Run from the root of a checkout.  For every workload in ``BENCHMARK.json``
and every seed, the benchmark's own command (``python3 bench/run.py``) runs
once in a fresh process for the file's ``run_seconds`` with ``--trace 0``;
with ``--layers`` each workload also runs once with ``--trace 1`` on the
first seed, for the per-layer metrics.  The record holds, per workload and
metric, the median and the quartiles over the seeds (and every value), the
seeds, whether every run was correct and how many operations failed, and
the Python, numpy and scipy versions and CPU count of the machine.  The
benchmark itself is not edited or imported: this script only reads the JSON
line each run prints last.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last stdout line is the result JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one value is its own quartiles)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def record_workload(command, workload, seeds, seconds, layers) -> dict:
    runs = []
    for seed in seeds:
        runs.append(run_once(command, workload, seed, seconds, 0))
        print(f"{workload} seed {seed}: wall_s {runs[-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    out = {
        "correct": all(r["correct"] for r in runs),
        "failed": max(r["failed"] for r in runs),
        "attempted": runs[0]["attempted"],
        "metrics": {
            name: {"unit": metric["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
            for name, metric in runs[0]["metrics"].items()
        },
    }
    if layers:
        traced = run_once(command, workload, seeds[0], seconds, 1)
        out["layers"] = {"seed": seeds[0], "correct": traced["correct"], "metrics": traced["metrics"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--layers", action="store_true", help="also record one traced run per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part in ("python3", "python") else part for part in spec["command"]]
    seconds = spec["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {
        "pr": args.pr,
        "started_utc": started,
        "command": spec["command"],
        "seconds": seconds,
        "seeds": args.seeds,
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {
            w["name"]: record_workload(command, w["name"], args.seeds, seconds, args.layers) for w in spec["workloads"]
        },
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
