"""List the lines of the package that no benchmark workload runs.

    python3 tools/traffic.py

Runs each workload of ``BENCHMARK.json`` once, in this process, as
``bench/run.py --workload W --seed 1 --seconds 0.001`` under ``sys.settrace``
(about 10 s in all), then prints, per function of ``src/roughflow``, the
lines that none of them ran.  Each run appends its record to
``bench/results/`` as any ``bench/run.py`` run does; nothing else is written.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "roughflow"
BENCH = ROOT / "bench"


class Recorder:
    """Records the (file, line) pairs that package code runs while it is active."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        self._ours: dict[str, str | None] = {}

    def _name(self, filename: str) -> str | None:
        """The file's path relative to the package's parent, or None outside the package."""
        if filename not in self._ours:
            path = Path(filename).resolve()
            self._ours[filename] = str(path.relative_to(PACKAGE.parent)) if path.is_relative_to(PACKAGE) else None
        return self._ours[filename]

    def _trace(self, frame, event, arg):
        name = self._name(frame.f_code.co_filename)
        if name is None:
            return None
        self.hits.add((name, frame.f_code.co_firstlineno))

        def local(frame, event, arg):
            if event == "line":
                self.hits.add((name, frame.f_lineno))
            return local

        return local

    def __enter__(self) -> "Recorder":
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def _functions(code: CodeType):
    """Every function code object nested in ``code``."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from _functions(const)


def unrun_lines(hits: set[tuple[str, int]]) -> dict[tuple[str, str], list[int]]:
    """(file, qualified name) -> the lines of that function that ``hits`` lacks, for every package function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path.relative_to(PACKAGE.parent))
        for code in _functions(compile(path.read_text(), str(path), "exec")):
            lines = {line for *_, line in code.co_lines() if line is not None} | {code.co_firstlineno}
            missed = sorted(line for line in lines if (name, line) not in hits)
            if missed:
                out[name, code.co_qualname] = missed
    return out


def _spans(lines: list[int]) -> str:
    """1, 2, 3, 7 as '1-3, 7'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with Recorder() as recorder:
        for workload in workloads:
            with contextlib.redirect_stdout(io.StringIO()):
                code = bench_run.main(["--workload", workload, "--seed", "1", "--seconds", "0.001"])
            print(f"# {workload}: exit {code}")
    for (name, qualname), lines in unrun_lines(recorder.hits).items():
        print(f"{name} {qualname}: {_spans(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
