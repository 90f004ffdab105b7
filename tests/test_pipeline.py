import json

import pytest

from crow.equiv import CheckerConfig
from crow.pipeline import (
    RunConfig,
    StoreMismatchError,
    dag_from_json,
    dag_to_json,
    diversify,
    dump_json,
    explore_module,
    generate_variants,
    replacements_from_store,
    store_to_json,
)
from crow.synth import SynthesisConfig
from crow.wat import parse_module

from dagutil import C, D, IN

FAST = RunConfig(
    synthesis=SynthesisConfig(max_size=2),
    checker=CheckerConfig(samples=512),
    timeout_seconds=2,
    max_variants=16,
)


def _explored(m):
    """Blocks and replacements of one exploration, as `diversify` passes
    them to generation."""
    results = explore_module(m, FAST)
    return [r.block for r in results], {r.block.id: r.replacements for r in results}


def test_dag_json_roundtrip():
    d = D(("select", ("add", IN(0), C(5)), C(0), ("eqz", IN(1))))
    assert dag_from_json(dag_to_json(d)) == d


def test_store_roundtrip(mul_add_module):
    results = explore_module(mul_add_module, FAST)
    store = store_to_json(mul_add_module, FAST, results)
    parsed = json.loads(dump_json(store))
    blocks, loaded = replacements_from_store(mul_add_module, parsed)
    assert blocks == [r.block for r in results]
    original = {r.block.id: r.replacements for r in results}
    assert set(loaded) == set(original)
    for bid in loaded:
        assert [r.candidate.dag for r in loaded[bid]] == [
            r.candidate.dag for r in original[bid]
        ]
        assert [r.tier for r in loaded[bid]] == [r.tier for r in original[bid]]


def test_store_rejects_other_module(mul_add_module):
    store = store_to_json(mul_add_module, FAST, explore_module(mul_add_module, FAST))
    other = parse_module("(module (func (result i32) i32.const 1))")
    with pytest.raises(StoreMismatchError):
        replacements_from_store(other, store)


def test_strict_mode_keeps_only_verified(mul_add_module):
    blocks, replacements = _explored(mul_add_module)
    import dataclasses

    strict_cfg = dataclasses.replace(FAST, strict=True)
    gen = generate_variants(mul_add_module, blocks, replacements, strict_cfg)
    for v in gen.variants:
        for bid, idx in v.plan.choices.items():
            assert gen.resolved.replacements[bid][idx].tier == "verified"


def test_rank_by_diff_orders_descending(mul_add_module):
    import dataclasses

    cfg = dataclasses.replace(FAST, rank_by_diff=True, max_variants=6)
    blocks, replacements = _explored(mul_add_module)
    gen = generate_variants(mul_add_module, blocks, replacements, cfg)
    from crow.metrics import dt_static

    costs = [dt_static(mul_add_module, v.module) for v in gen.variants]
    assert costs == sorted(costs, reverse=True)
    assert len(gen.variants) <= 6


def test_diversify_reports_are_conserved(mul_add_module):
    result = diversify(mul_add_module, FAST)
    assert result.original_outcome is not None
    for rep in result.reports:
        assert rep.outcome == result.original_outcome
        assert rep.dt_static > 0
        assert rep.dt_dyn is not None
        assert rep.trace_identical == (rep.dt_dyn == 0)
        assert 0.5 <= rep.token_ratio <= 2.0 or rep.size_flag


def _count_dtw_calls(monkeypatch):
    """Wraps `crow.metrics.dtw`, counting static (token list) and dynamic
    (event code array) calls."""
    import numpy as np

    import crow.metrics

    calls = {"static": 0, "dynamic": 0}
    real = crow.metrics.dtw

    def counted(a, b):
        calls["dynamic" if isinstance(a, np.ndarray) else "static"] += 1
        return real(a, b)

    monkeypatch.setattr(crow.metrics, "dtw", counted)
    return calls


def test_report_variants_runs_one_dtw_of_each_kind_per_variant(mul_add_module, monkeypatch):
    from crow.pipeline import report_variants

    blocks, replacements = _explored(mul_add_module)
    calls = _count_dtw_calls(monkeypatch)
    result = report_variants(mul_add_module, blocks, replacements, FAST, do_trace=True)
    assert result.reports and result.outcome_mismatches == 0
    assert calls == {"static": len(result.reports), "dynamic": len(result.reports)}
    n = len(result.original_trace)
    for rep in result.reports:
        assert rep.normalized_dt_dyn == rep.dt_dyn / n


def test_rank_by_diff_measures_each_variant_once(mul_add_module, monkeypatch):
    import dataclasses

    from crow.pipeline import report_variants

    cfg = dataclasses.replace(FAST, rank_by_diff=True, max_variants=6)
    blocks, replacements = _explored(mul_add_module)
    calls = _count_dtw_calls(monkeypatch)
    ranked = generate_variants(mul_add_module, blocks, replacements, cfg)
    ranking = dict(calls)
    assert ranking["static"] > 0 and ranking["dynamic"] == 0
    result = report_variants(mul_add_module, blocks, replacements, cfg)
    assert calls["static"] == 2 * ranking["static"]
    assert [r.variant.digest for r in result.reports] == [v.digest for v in ranked.variants]
    from crow.metrics import dt_static

    for rep in result.reports:
        assert rep.dt_static == dt_static(mul_add_module, rep.variant.module)


def test_variants_are_traced_from_modules_equal_to_their_text(mul_add_module):
    """Tracing the emitted `Module` instead of a re-parse of its printed text
    leaves the traces as they were: the two modules are equal."""
    result = diversify(mul_add_module, FAST)
    assert result.reports
    for rep in result.reports:
        assert parse_module(rep.variant.text) == rep.variant.module
