"""The benchmark's tracer (perfbench/tracing.py) patches crow functions by
module attribute. Every one of its targets must still resolve, or a traced
benchmark run breaks; this is checked here without running the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracing_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.TARGETS
    for mod, attr, span, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(mod), attr, None)
        assert callable(target), f"{mod}.{attr} ({span}) does not resolve"


def test_invoke_counter_reads_a_real_trace(monkeypatch):
    """`_invoke_counts` slices the trace and reads each event's `value`, so the
    trace type `invoke` returns must support both; the loop runs past the
    tracer's sample window."""
    from crow.interp import instantiate, invoke
    from crow.wat import parse_module

    tracing = _load_tracing(monkeypatch)
    m = parse_module("""(module
      (func (param i32) (result i32)
        loop local.get 0 i32.const 1 i32.sub local.tee 0 br_if 0 end
        local.get 0)
      (export "run" (func 0)))""")
    result = invoke(instantiate(m), "run", [1000])
    assert len(result[1]) > tracing.SAMPLE_EVENTS
    counts = tracing._invoke_counts((), {}, result)
    assert counts["events"] == len(result[1])
    assert counts["bytes"] > 0
