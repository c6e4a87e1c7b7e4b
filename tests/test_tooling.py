"""The benchmark tooling: the tracer's tables and the paired recorder.

``bench/spans.py`` wraps the (module, attribute) pairs of ``SPANNED`` and
``COUNTED`` by looking each one up on ``roughflow``; a name that no longer
resolves would crash every ``--trace`` run.  ``tools/bench_record.py`` is
run on a stub benchmark in a throwaway repository, and its verdict rule on
synthetic pairs.  ``tools/traffic.py``'s tracer is run on one package call.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "bench" / "spans.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("bench_spans", SPANS_FILE)
bench_record = load("bench_record", ROOT / "tools" / "bench_record.py")
traffic = load("traffic", ROOT / "tools" / "traffic.py")
TRACED = spans.SPANNED + spans.COUNTED


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_installs_every_name_and_restores():
    modules = {module for module, _ in TRACED}
    loaded = {m: importlib.import_module(f"{spans.PACKAGE}.{m}") for m in modules}
    originals = {(m, a): getattr(loaded[m], a) for m, a in spans.SPANNED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert getattr(loaded[m], a) is not fn, f"{m}.{a} was not wrapped"
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert getattr(loaded[m], a) is fn


STUB_RUN = '''\
import argparse, json, os, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
wall = float((root / "speed.txt").read_text())
with open(os.environ["BENCH_STUB_LOG"], "a") as log:
    log.write(f"{root} {wall} {args.workload} {args.seed} {args.trace}\\n")
metrics = {"wall_s": {"value": wall * (1 + int(args.seed) / 100), "unit": "s"}, "peak_rss_mb": {"value": 10.0, "unit": "MB"}}
print("a line before the result")
print(json.dumps({"correct": True, "failed": 0, "attempted": 1, "metrics": metrics}))
'''


def test_bench_record_alternates_pairs_of_fresh_copies(tmp_path):
    """Each seed pairs a run of the baseline revision with one of the working tree, swapping
    which runs first; both run from fresh sibling copies, and a stub benchmark stands in
    for ``bench/run.py``."""
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "bench").mkdir()
    (repo / "tools" / "bench_record.py").write_text((ROOT / "tools" / "bench_record.py").read_text())
    (repo / "bench" / "run.py").write_text(STUB_RUN)
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 1,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        ],
    }
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    (repo / "speed.txt").write_text("1.0")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *argv], cwd=repo, check=True, capture_output=True)
    (repo / "speed.txt").write_text("0.5")  # the uncommitted change runs twice as fast
    log = tmp_path / "runs.log"
    env = {**os.environ, "BENCH_STUB_LOG": str(log)}
    record_cmd = [sys.executable, "tools/bench_record.py", "--pr", "99", "--seeds", "1", "2", "3"]
    unpaired = subprocess.run(record_cmd, cwd=repo, capture_output=True, text=True, env=env)
    assert unpaired.returncode == 2 and "--baseline" in unpaired.stderr
    proc = subprocess.run([*record_cmd, "--baseline", "HEAD", "--layers"], cwd=repo, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((repo / "BENCH_99.json").read_text())
    assert list(record["workloads"]) == ["w1", "w2"]
    for w in record["workloads"].values():
        assert [p["first"] for p in w["pairs"]] == ["baseline", "change", "baseline"]
        assert [p["seed"] for p in w["pairs"]] == [1, 2, 3]
        assert all(p["ratio"] == {"wall_s": 0.5, "peak_rss_mb": 1.0} for p in w["pairs"])
        assert w["wins"] == {"wall_s": 3, "peak_rss_mb": 0}
        assert w["verdicts"] == {"wall_s": "gain", "peak_rss_mb": "flat"}
        assert w["baseline"]["metrics"]["wall_s"]["values"] == [1.01, 1.02, 1.03]
        assert w["change"]["correct"] and w["layers"]["seed"] == 1
    assert record["change"]["uncommitted"]
    runs = [line.split() for line in log.read_text().splitlines()]
    pairs = [(1.0, "1"), (0.5, "1"), (0.5, "2"), (1.0, "2"), (1.0, "3"), (0.5, "3")]
    expect = [(*run, workload, "0") for workload in ("w1", "w2") for run in pairs]
    expect += [(0.5, "1", workload, "1") for workload in ("w1", "w2")]
    assert [(float(r[1]), r[3], r[2], r[4]) for r in runs] == expect
    # Baseline runs read the committed speed, change runs the working tree's, each from
    # one copy; the two copies are siblings, and both are removed afterwards.
    roots = {speed: {Path(r[0]) for r in runs if r[1] == speed} for speed in ("1.0", "0.5")}
    assert all(len(side) == 1 for side in roots.values())
    baseline, change = roots["1.0"].pop(), roots["0.5"].pop()
    assert baseline.parent == change.parent != repo.resolve()
    assert not baseline.exists() and not change.exists()


def summary(values):
    return bench_record.summarize(values)


@pytest.mark.parametrize(
    "base, new, wins, better, bound, want",
    [
        # 10 of 10 won, medians 1.0 -> 0.7 apart by more than the baseline's 0.02 spread.
        ([0.98, 0.99, 1.0, 1.01, 1.02] * 2, [0.7] * 10, 10, "lower", 0.25, "gain"),
        # 9 of 10 is enough; 8 of 10 is not, and a 30 % gap then reads as flat.
        ([0.98, 0.99, 1.0, 1.01, 1.02] * 2, [0.7] * 10, 9, "lower", 0.25, "gain"),
        ([0.98, 0.99, 1.0, 1.01, 1.02] * 2, [0.7] * 10, 8, "lower", 0.25, "flat"),
        # Every pair won, but the medians sit inside the baseline's quartiles.
        ([0.9, 0.95, 1.0, 1.05, 1.1] * 2, [0.99] * 10, 10, "lower", 0.25, "flat"),
        # 30 % slower against a 25 % bound; 20 % slower is within it.
        ([1.0] * 10, [1.3] * 10, 0, "lower", 0.25, "worse"),
        ([1.0] * 10, [1.2] * 10, 0, "lower", 0.25, "flat"),
        # A baseline spread of 0.4 / 1.0 exceeds the bound: unresolved unless every
        # change run beats every baseline run.
        ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [1.1] * 10, 4, "lower", 0.25, "unresolved"),
        ([0.9] * 4 + [1.0] * 2 + [1.5] * 4, [0.85] * 10, 10, "lower", 0.25, "flat"),
        # Higher is better: the same rules mirrored.
        ([10.0] * 10, [13.0] * 10, 10, "higher", 0.05, "gain"),
        ([10.0] * 10, [9.0] * 10, 0, "higher", 0.05, "worse"),
        ([8.0, 9.0, 10.0, 11.0, 12.0] * 2, [10.5] * 10, 5, "higher", 0.05, "unresolved"),
    ],
)
def test_verdict_rules(base, new, wins, better, bound, want):
    assert bench_record.verdict(summary(base), summary(new), wins, 10, better, bound) == want


def test_traffic_reports_the_lines_a_call_skipped():
    from roughflow import densitylab

    source = Path(densitylab.__file__).read_text().splitlines()

    def line_of(text):
        (hit,) = [k + 1 for k, line in enumerate(source) if text in line]
        return hit

    samples = np.random.default_rng(0).standard_normal(500)
    with traffic.Recorder() as recorder:
        densitylab.kde(samples)
    unrun = traffic.unrun_lines(recorder.hits)[("roughflow/densitylab.py", "kde")]
    assert line_of('raise DomainError("samples are a single atom') in unrun
    assert line_of("bandwidth = 1.06 * sigma") not in unrun
