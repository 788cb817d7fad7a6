"""The benchmark's tracer wraps eldiff functions by name; every name it
lists must exist where it looks, or a traced run fails with KeyError."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for path, attribute, _, _ in spans.TARGETS:
        owner = spans._resolve(path)
        assert attribute in owner.__dict__, f"{path}.{attribute} is not defined"
        assert callable(owner.__dict__[attribute]), f"{path}.{attribute} is not callable"
