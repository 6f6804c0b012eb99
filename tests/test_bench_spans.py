"""Smoke test of the benchmark's layer boundaries.

bench/spans.py wraps named entry points of every layer; a refactor that
renames or removes one would silently drop it from traced runs.  This
installs the tracer on freshly imported layers and checks that it found
every boundary.  No timing is done.
"""
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_boundary(monkeypatch):
    spans = _load_spans()
    for name in [n for n in sys.modules if n == "randomfacet" or n.startswith("randomfacet.")]:
        monkeypatch.delitem(sys.modules, name)  # restored after the test
    layers = SimpleNamespace(
        **{layer: importlib.import_module(f"randomfacet.{layer}") for layer in spans.LAYERS}
    )
    tracer = spans.Tracer()
    try:
        tracer.install(layers)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
