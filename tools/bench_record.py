"""Record the benchmark of one change against a baseline as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr 16 --seeds 1601 1602 ... 1610 --baseline HEAD~1 [--layers]

Run from the root of a checkout.  Two copies are made side by side in one
temporary directory: the committed files of ``<rev>`` (``git archive``) as the
baseline, and the working tree's files (tracked and untracked, not ignored) as
the change.  Both sides thus run from fresh directories with no bytecode or
benchmark results left over.  For every workload in ``BENCHMARK.json`` each
seed becomes a pair: the benchmark's own command (``python3 bench/run.py``)
runs once on each side in a fresh process for the file's ``run_seconds`` with
``--trace 0``, with the side that runs first swapped from pair to pair, so
that drift of the machine falls on both sides alike.  With ``--layers`` each
workload also runs once on the change with ``--trace 1`` on the first seed,
for the per-layer metrics.

Per workload the record holds both sides' summaries (median, quartiles and
every value of each metric, whether every run was correct and how many
operations failed), every pair's ratio change / baseline of each end-to-end
metric, how many pairs the change won on each, and a verdict on each (see
``verdict``); and the Python, numpy and scipy versions and CPU count of the
machine.  The benchmark itself is not
edited or imported: this script only reads the JSON line each run prints last.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout ``cwd``; its last stdout line is the result JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one value is its own quartiles)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize_runs(runs: list[dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in runs),
        "failed": max(r["failed"] for r in runs),
        "attempted": runs[0]["attempted"],
        "metrics": {
            name: {"unit": metric["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
            for name, metric in runs[0]["metrics"].items()
        },
    }


def record_layers(command, change: Path, workload, seed, seconds) -> dict:
    """One traced run of the change, for the per-layer metrics."""
    traced = run_once(command, change, workload, seed, seconds, 1)
    return {"seed": seed, "correct": traced["correct"], "metrics": traced["metrics"]}


def verdict(baseline: dict, change: dict, wins: int, n_pairs: int, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``flat`` for one end-to-end metric of one workload.

    ``baseline`` and ``change`` are summaries (``summarize``); ``bound`` is the
    metric's relative bound in ``BENCHMARK.json``.  The first rule that holds wins:

    * ``gain``: the change won at least nine tenths of the pairs (ties count for
      neither) and its median is better than the baseline's by more than the
      baseline's quartile spread q3 - q1;
    * ``worse``: the change's median is worse than the baseline's by more than
      ``bound`` times the baseline's median;
    * ``unresolved``: the baseline's own spread (q3 - q1) / median exceeds
      ``bound``, and not every change run beats every baseline run;
    * ``flat`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = baseline["median"], change["median"]
    spread = baseline["q3"] - baseline["q1"]
    if 10 * wins >= 9 * n_pairs and sign * (base_med - new_med) > spread:
        return "gain"
    if sign * (new_med - base_med) > bound * abs(base_med):
        return "worse"
    new_worst = max(change["values"]) if better == "lower" else min(change["values"])
    base_best = min(baseline["values"]) if better == "lower" else max(baseline["values"])
    if spread > bound * abs(base_med) and not sign * (base_best - new_worst) > 0:
        return "unresolved"
    return "flat"


def record_pairs(command, roots: dict[str, Path], workload, seeds, seconds, end_to_end: dict[str, dict]) -> dict:
    """One baseline/change pair per seed; even pairs run the baseline first, odd ones the change.

    ``end_to_end`` maps each end-to-end metric to its ``better`` and ``bound``.
    """
    runs: dict[str, list[dict]] = {"baseline": [], "change": []}
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
        result = {side: run_once(command, roots[side], workload, seed, seconds, 0) for side in order}
        ratio = {}
        for name in end_to_end:
            base, new = (result[side]["metrics"][name]["value"] for side in ("baseline", "change"))
            ratio[name] = new / base if base else None
        for side in order:
            runs[side].append(result[side])
        pairs.append({"seed": seed, "first": order[0], "ratio": ratio})
        walls = " / ".join(f"{result[side]['metrics']['wall_s']['value']:.4f}" for side in ("baseline", "change"))
        print(f"{workload} seed {seed}: wall_s baseline / change {walls}", file=sys.stderr)
    wins = {
        name: sum(
            r is not None and (r < 1.0 if m["better"] == "lower" else r > 1.0)
            for r in (p["ratio"][name] for p in pairs)
        )
        for name, m in end_to_end.items()
    }
    sides = {side: summarize_runs(runs[side]) for side in ("baseline", "change")}
    verdicts = {
        name: verdict(
            sides["baseline"]["metrics"][name], sides["change"]["metrics"][name], wins[name], len(pairs),
            m["better"], m["bound"],
        )
        for name, m in end_to_end.items()
    }
    print(f"{workload}: {verdicts}", file=sys.stderr)
    return {**sides, "pairs": pairs, "wins": wins, "verdicts": verdicts}


@contextlib.contextmanager
def copies(rev: str):
    """Fresh copies of ``rev``'s committed files and of the working tree, removed afterwards."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"baseline": Path(tmp) / "baseline", "change": Path(tmp) / "change"}
        roots["baseline"].mkdir()
        subprocess.run(["tar", "-x", "-C", roots["baseline"]], input=archive.stdout, check=True)
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted in the working tree is left out
                target = roots["change"] / name
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
        yield roots


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--baseline", metavar="REV", required=True, help="git revision the change is paired with")
    parser.add_argument("--layers", action="store_true", help="also record one traced run of the change per workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part in ("python3", "python") else part for part in spec["command"]]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    record = {
        "pr": args.pr,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": spec["command"],
        "seconds": seconds,
        "seeds": args.seeds,
        "baseline": {"rev": args.baseline, "commit": git("rev-parse", args.baseline)},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted": bool(git("status", "--porcelain"))},
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    end_to_end = {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in spec["end_to_end"]}
    with copies(args.baseline) as roots:
        record["workloads"] = {
            name: record_pairs(command, roots, name, args.seeds, seconds, end_to_end) for name in names
        }
        if args.layers:
            for name in names:
                change = roots["change"]
                record["workloads"][name]["layers"] = record_layers(command, change, name, args.seeds[0], seconds)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
