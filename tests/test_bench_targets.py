"""The benchmark's tracer wraps eldiff functions by name; every name it
lists must exist where it looks, or a traced run fails with KeyError, and
every attribute function must take the arguments and result of a real call,
or a traced run fails when its spans are finished."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    """The module of ``bench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load("spans", monkeypatch)
    assert spans.TARGETS
    for path, attribute, _, _ in spans.TARGETS:
        owner = spans._resolve(path)
        assert attribute in owner.__dict__, f"{path}.{attribute} is not defined"
        assert callable(owner.__dict__[attribute]), f"{path}.{attribute} is not callable"


@pytest.mark.parametrize("workload", ["learn", "embed", "route"])
def test_traced_tiny_workload_finishes_its_spans(tmp_path, monkeypatch, workload):
    spans, workloads = _load("spans", monkeypatch), _load("workloads", monkeypatch)
    size, seed = workloads.SIZES[workload]["tiny"], workloads.DEFAULT_SEED
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.setup(workload, seed, inputs, size)
        statuses = [workloads.run_cli(argv)
                    for argv in workloads.commands(workload, seed, inputs, out, size)]
    finally:
        tracer.uninstall()
    assert statuses == [0] * len(statuses)
    assert tracer.finish()
