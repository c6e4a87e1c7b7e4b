"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps public functions of ``roughflow`` by patching the names
callers look up: every loaded ``roughflow`` module attribute that is the
original function object, and the class attribute for methods.  The
package's files are not edited, and :meth:`Tracer.restore` puts every
original back, so untraced rounds run the unwrapped code.

A span is (id, name, start, end, parent id, thread id).  Spans nest along
each thread's call stack; a span opened on a worker thread (the
``sample-fbm`` writer pool) has no parent.  A layer's self time is the sum
of its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Functions recorded as spans: (module, attribute path).
SPANNED = (
    ("fbm", "sample_fbm"),
    ("fbm", "sample_fbm_array"),
    ("fbm", "covariance_matrix"),
    ("signature", "batch_signature_levels"),
    ("strichartz", "build_Z_batch"),
    ("strichartz", "exp_flow_batch"),
    ("strichartz", "strichartz_solve"),
    ("densitylab", "flow_endpoint_samples"),
    ("densitylab", "kde"),
    ("densitylab", "density_report"),
    ("flows", "jacobian_path_strichartz"),
    ("flows", "malliavin_derivative"),
    ("flows", "malliavin_via_jacobian"),
    ("controlled", "rde_solve"),
    ("controlled", "rde_solve_batch"),
    ("norris", "block_stats_mc"),
    ("norris", "norris_dichotomy_mc"),
    ("increments", "sewing"),
    ("cli", "main"),
    ("cli", "resolve_config"),
    ("reporting", "write_csv"),
    ("reporting", "write_json"),
    ("reporting", "write_manifest"),
    ("reporting", "svg_line_plot"),
)

#: Hot functions recorded as call counts only; a span per call would cost
#: more than the call itself.
COUNTED = (
    ("signature", "chen_concat"),
    ("liefields", "PolyVectorField.__call__"),
    ("liefields", "PolyVectorField.jacobian_at"),
)

#: Writers whose returned path is the file they wrote.  ``write_manifest``
#: is left out: it returns ``write_json``'s path, which that span counts.
BYTE_WRITERS = frozenset(f"reporting.{fn}" for fn in ("write_csv", "write_json", "svg_line_plot"))

PACKAGE = "roughflow"

ROOT_SPAN = "workload"


def layer_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in SPANNED]


def counted_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in COUNTED]


class Tracer:
    """Installs wrappers, records spans and counts, and restores originals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.bytes_written = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Open a span around a block (the benchmark's round boundary)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def _spanned(self, name: str, fn):
        tracer = self
        counts_bytes = name in BYTE_WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counts_bytes:
                size = Path(result).stat().st_size
                with tracer._lock:
                    tracer.bytes_written += size
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        name = f"{module}.{attr}"
        if cls_path:
            original = owner.__dict__[fn_name]
            self._patches.append((owner, fn_name, original))
            setattr(owner, fn_name, make_wrapper(name, original))
            return
        original = getattr(owner, fn_name)
        wrapper = make_wrapper(name, original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module, attr in SPANNED:
            self._patch(module, attr, self._spanned)
        for module, attr in COUNTED:
            self._patch(module, attr, self._counted)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------
    def take(self) -> tuple[list[tuple], Counter, int]:
        """Hand over and reset what was recorded since the last take."""
        with self._lock:
            spans, counts, nbytes = self.spans, self.counts, self.bytes_written
            self.spans, self.counts, self.bytes_written = [], Counter(), 0
        return spans, counts, nbytes


def self_times(spans: list[tuple]) -> tuple[dict[str, float], Counter]:
    """Per-name self time (duration minus direct children) and span counts."""
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for sid, name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
    return totals, calls


def layer_metrics(spans: list[tuple], counts: Counter, nbytes: int) -> dict[str, float]:
    """One traced round's per-layer metrics, keyed by metric name."""
    totals, calls = self_times(spans)
    out = {}
    for name in layer_names():
        out[f"{name}.self_s"] = totals.get(name, 0.0)
        out[f"{name}.calls"] = calls[name]
    for name in counted_names():
        out[f"{name}.calls"] = counts[name]
    out["reporting.bytes_written"] = nbytes
    out[f"{ROOT_SPAN}.self_s"] = totals.get(ROOT_SPAN, 0.0)
    return out


def write_spans(path: Path, spans: list[tuple]) -> None:
    """One JSON object per span, times relative to the first span's start."""
    origin = min((s[2] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for sid, name, start, end, parent, thread in spans:
            fh.write(
                json.dumps(
                    {
                        "id": sid,
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "thread": thread,
                    }
                )
                + "\n"
            )
