"""The benchmark's tracer (perfbench/tracing.py) patches crow functions by
module attribute. Every one of its targets must still resolve, or a traced
benchmark run breaks; this is checked here without running the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod, attr, span, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(mod), attr, None)
        assert callable(target), f"{mod}.{attr} ({span}) does not resolve"
