"""The benchmark tracer's tables name functions that exist in the package.

``bench/spans.py`` wraps the (module, attribute) pairs of ``SPANNED`` and
``COUNTED`` by looking each one up on ``roughflow``; a name that no longer
resolves would crash every ``--trace`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
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
