"""Span tracing from outside the program: wraps the public functions of each
crow layer at the module attribute its caller looks up, records one span per
call (name, start, end, parent span, operation id, counters), and derives
per-layer self times and counts from the spans.

Nothing here is imported by crow; the wrappers are installed only for the
duration of a traced operation and removed afterwards.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("wat", "ir", "synth", "equiv", "variants", "emit", "interp", "metrics", "pipeline")


def _synth_counts(args, kwargs, r):
    return {
        "candidates": r.candidates_seen,
        "work_units": r.work_units,
        "budget_stopped": int(r.stopped == "budget"),
    }


def _check_counts(args, kwargs, v):
    return {
        "evals": v.evals,
        "rejected": int(v.tier == "rejected"),
        "exhaustive": int(v.method == "exhaustive"),
        "reduced_width": int(v.method == "reduced-width"),
    }


def _dedup_counts(args, kwargs, out):
    return {"in": len(args[0]), "out": len(out)}


def _dtw_counts(args, kwargs, r):
    return {"cells": r.len_a * r.len_b}


SAMPLE_EVENTS = 4096


def _invoke_counts(args, kwargs, result):
    """Events produced, and the memory the trace list holds per event,
    measured on a prefix window: the list slot, the event tuple, and each
    distinct value object outside the small-int cache."""
    trace = result[1]
    n = len(trace)
    counts = {"events": n}
    if n:
        window = trace[:SAMPLE_EVENTS]
        seen = set()
        size = sys.getsizeof(trace) * len(window) / n
        for ev in window:
            size += sys.getsizeof(ev)
            v = ev.value
            if not -5 <= v <= 256 and id(v) not in seen:
                seen.add(id(v))
                size += sys.getsizeof(v)
        counts["bytes"] = size * n / len(window)
    return counts


# (module, attribute, span name, counter); each attribute is the name a
# caller looks up at call time, so patching it intercepts that call site.
TARGETS = (
    ("crow.cli", "diversify", "pipeline.diversify", None),
    ("crow.cli", "store_to_json", "pipeline.json", None),
    ("crow.cli", "manifest_to_json", "pipeline.json", None),
    ("crow.cli", "dump_json", "pipeline.json", None),
    ("crow.cli", "parse_module", "wat.parse", None),
    ("crow.cli", "validate", "wat.validate", None),
    ("crow.cli", "write_trace", "interp.write_trace", None),
    ("crow.pipeline", "generate_variants", "pipeline.generate", None),
    ("crow.pipeline", "extract_module_blocks", "ir.extract", None),
    ("crow.pipeline", "synthesize_replacements", "synth.synthesize", _synth_counts),
    ("crow.pipeline", "resolve_overlaps", "variants.resolve", None),
    ("crow.pipeline", "enumerate_combinations", "variants.enumerate", None),
    ("crow.pipeline", "make_variant", "variants.make", None),
    ("crow.pipeline", "dedup_variants", "variants.dedup", _dedup_counts),
    ("crow.pipeline", "print_module", "wat.print", None),
    ("crow.pipeline", "tokenize", "metrics.tokens", None),
    ("crow.pipeline", "instantiate", "interp.instantiate", None),
    ("crow.pipeline", "invoke", "interp.invoke", _invoke_counts),
    ("crow.wat", "parse_module", "wat.parse", None),  # pipeline._trace_task
    ("crow.synth", "_reachable_key", "ir.reachable_key", None),
    ("crow.synth", "emit_dag", "emit.emit_dag", None),
    ("crow.equiv", "check", "equiv.check", _check_counts),
    ("crow.variants", "reemit_function", "emit.reemit", None),
    ("crow.variants", "print_module", "wat.print", None),
    ("crow.variants", "validate", "wat.validate", None),
    ("crow.emit", "build_regions", "ir.regions", None),
    ("crow.emit", "build_region_ir", "ir.regions", None),
    ("crow.interp", "validate", "wat.validate", None),
    ("crow.metrics", "dtw", "metrics.dtw", _dtw_counts),
    ("crow.metrics", "trace_tokens", "metrics.tokens", None),
    ("crow.metrics", "tokenize", "metrics.tokens", None),
)

OP_SPAN = "op"
PROFILE_KEYS = ("self_s", "total_s", "calls", "counts")


class Tracer:
    """Keeps every span in memory; `write` puts them on disk at exit.

    A span is [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def trace_op(self, op_id: str, fn):
        """Runs `fn()` as one traced operation; returns its result and the
        operation's span range [first, end)."""
        self.op_id = op_id
        first = len(self.spans)
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, counter))
        try:
            result = self._wrap(OP_SPAN, fn, None)()
        finally:
            while self._saved:
                mod, attr, orig = self._saved.pop()
                setattr(mod, attr, orig)
        return result, (first, len(self.spans))

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, op_id, counts) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id, "counts": counts,
                }) + "\n")


def op_profile(spans: list[list], span_range: tuple[int, int]) -> dict:
    """Self time, inclusive time, call count and summed counters per span
    name for the spans of one operation."""
    first, end_idx = span_range
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans[first:end_idx]:
        if parent >= first:
            child_time[parent] += end - start
    prof = {key: defaultdict(float) for key in PROFILE_KEYS}
    for i in range(first, end_idx):
        name, start, end, _, _, counts = spans[i]
        prof["total_s"][name] += end - start
        prof["self_s"][name] += end - start - child_time[i]
        prof["calls"][name] += 1
        for k, v in (counts or {}).items():
            prof["counts"][f"{name}.{k}"] += v
    root = spans[first]
    prof["wall_s"] = root[2] - root[1]
    return prof


def median_profile(profiles: list[dict]) -> dict:
    """Element-wise median over repeated executions of one operation."""
    out = {"wall_s": statistics.median(p["wall_s"] for p in profiles)}
    for key in PROFILE_KEYS:
        names = set().union(*(p[key] for p in profiles))
        out[key] = {n: statistics.median(p[key].get(n, 0) for p in profiles) for n in names}
    return out


def sum_profiles(profiles: list[dict]) -> dict:
    out = {"wall_s": sum(p["wall_s"] for p in profiles)}
    for key in PROFILE_KEYS:
        acc = defaultdict(float)
        for p in profiles:
            for n, v in p[key].items():
                acc[n] += v
        out[key] = dict(acc)
    return out


def layer_shares(prof: dict) -> dict:
    """Share of operation wall time spent in each layer's own code, plus
    the share no layer span accounts for (the operation span's self time)."""
    wall = prof["wall_s"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, s in prof["self_s"].items():
        layer = name.split(".")[0]
        if layer in shares:
            shares[layer] += s / wall
    shares["unaccounted"] = prof["self_s"].get(OP_SPAN, 0.0) / wall
    return shares


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(prof: dict, nominal_units_per_s: float) -> dict:
    """The per-layer metrics computed from spans, from the summed profile
    of one pass over a workload's operations."""
    s, n, c = prof["self_s"], prof["calls"], prof["counts"]
    # candidates and work units are charged against the whole
    # synthesize_replacements span, checker calls included
    synth_total = prof["total_s"].get("synth.synthesize", 0.0)
    candidates = c.get("synth.synthesize.candidates", 0.0)
    work_units = c.get("synth.synthesize.work_units", 0.0)
    checks = n.get("equiv.check", 0)
    check_s = s.get("equiv.check", 0.0)
    dtw_s = s.get("metrics.dtw", 0.0)
    cells = c.get("metrics.dtw.cells", 0.0)
    invoke_s = s.get("interp.invoke", 0.0)
    events = c.get("interp.invoke.events", 0.0)
    units_per_s = _ratio(work_units, synth_total)
    dedup_in = c.get("variants.dedup.in", 0.0)
    return {
        "synth.self_s": s.get("synth.synthesize", 0.0),
        "synth.candidates": candidates,
        "synth.candidates_per_s": _ratio(candidates, synth_total),
        "synth.work_units": work_units,
        "synth.work_units_per_s": units_per_s,
        "synth.work_units_rate_vs_nominal": _ratio(units_per_s, nominal_units_per_s),
        "synth.prefilter_pass_frac": _ratio(checks, candidates),
        "synth.blocks_budget_stopped": c.get("synth.synthesize.budget_stopped", 0.0),
        "equiv.checks": checks,
        "equiv.check_s": check_s,
        "equiv.checks_per_s": _ratio(checks, check_s),
        "equiv.evals": c.get("equiv.check.evals", 0.0),
        "equiv.reject_frac": _ratio(c.get("equiv.check.rejected", 0.0), checks),
        "equiv.checks_exhaustive": c.get("equiv.check.exhaustive", 0.0),
        "equiv.checks_reduced_width": c.get("equiv.check.reduced_width", 0.0),
        "variants.made": n.get("variants.make", 0),
        "variants.make_s": s.get("variants.make", 0.0),
        "variants.dup_frac": _ratio(dedup_in - c.get("variants.dedup.out", 0.0), dedup_in),
        "variants.enumerate_s": s.get("variants.enumerate", 0.0),
        "emit.reemit_calls": n.get("emit.reemit", 0),
        "emit.reemit_s": s.get("emit.reemit", 0.0),
        "wat.parse_calls": n.get("wat.parse", 0),
        "wat.parse_s": s.get("wat.parse", 0.0),
        "wat.print_s": s.get("wat.print", 0.0),
        "wat.validate_s": s.get("wat.validate", 0.0),
        "ir.extract_s": s.get("ir.extract", 0.0),
        "ir.reachable_key_s": s.get("ir.reachable_key", 0.0),
        "metrics.dtw_calls": n.get("metrics.dtw", 0),
        "metrics.dtw_cells": cells,
        "metrics.dtw_s": dtw_s,
        "metrics.dtw_cells_per_s": _ratio(cells, dtw_s),
        "metrics.tokens_s": s.get("metrics.tokens", 0.0),
        "interp.invoke_calls": n.get("interp.invoke", 0),
        "interp.events": events,
        "interp.invoke_s": invoke_s,
        "interp.events_per_s": _ratio(events, invoke_s),
        "interp.bytes_per_event": _ratio(c.get("interp.invoke.bytes", 0.0), events),
        "interp.write_s": s.get("interp.write_trace", 0.0),
        "pipeline.json_s": s.get("pipeline.json", 0.0),
    }
