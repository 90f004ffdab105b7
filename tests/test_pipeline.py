import dataclasses
import json

import pytest

from crow import pipeline
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
    trace_module,
)
from crow.ir import extract_module_blocks
from crow.synth import WORK_UNITS_PER_SECOND, ConfigError, SynthesisConfig
from crow.wat import parse_module

from dagutil import C, D, IN

FAST = RunConfig(
    synthesis=SynthesisConfig(max_size=2),
    timeout_seconds=2,
    max_variants=16,
)


def _explored(m):
    """Blocks and replacements of one exploration, as `diversify` passes
    them to generation."""
    results = explore_module(m, FAST)
    return [r.block for r in results], {r.block.id: r.replacements for r in results}


@pytest.mark.parametrize("build", [
    lambda: RunConfig(jobs=0),
    lambda: SynthesisConfig(max_size=0),
    lambda: CheckerConfig(mode="smt"),
    lambda: dataclasses.replace(RunConfig(), fuel=-1),
], ids=["jobs", "max-size", "smt-without-solver", "replace-fuel"])
def test_configs_are_valid_once_built(build):
    with pytest.raises(ConfigError):
        build()


def test_exhaustive_checker_budgets_zero_input_blocks_only(mul_add_module, monkeypatch):
    """The exhaustive checker verifies only zero-input blocks, so blocks with
    inputs are skipped uncharged and the quota is split among the others."""
    quotas = []
    real = pipeline.synthesize_replacements

    def spy(b, synthesis, checker, quota, seed):
        quotas.append(quota)
        return real(b, synthesis, checker, quota, seed)

    monkeypatch.setattr(pipeline, "synthesize_replacements", spy)
    cfg = dataclasses.replace(FAST, checker=CheckerConfig(mode="exhaustive-only"))
    results = explore_module(mul_add_module, cfg)
    with_inputs = [r for r in results if r.block.inputs]
    zero_input = [r for r in results if not r.block.inputs]
    assert with_inputs and zero_input
    for r in with_inputs:
        assert (r.stopped, r.candidates_seen, r.work_units) == ("skipped", 0, 0)
        assert "exhaustive checker" in r.skipped_reason
    assert all(r.replacements and r.stopped != "skipped" for r in zero_input)
    assert set(quotas) == {int(cfg.timeout_seconds / len(zero_input) * WORK_UNITS_PER_SECOND)}


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
    for r in gen.reports:
        for bid, idx in r.variant.plan.choices.items():
            assert gen.resolved.replacements[bid][idx].tier == "verified"


def test_fan_out_starts_no_more_workers_than_tasks(monkeypatch):
    """The fake executor maps in this process and records the pool size it
    was asked for, so no worker process starts."""
    sizes = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessExecutor)
    assert pipeline._fan_out(abs, [-1, -2], jobs=64) == [1, 2]
    assert sizes == [2]


def test_rank_by_diff_orders_descending(mul_add_module):
    import dataclasses

    cfg = dataclasses.replace(FAST, rank_by_diff=True, max_variants=6)
    blocks, replacements = _explored(mul_add_module)
    gen = generate_variants(mul_add_module, blocks, replacements, cfg)
    from crow.metrics import dtw, tokenize

    costs = [dtw(tokenize(mul_add_module), tokenize(r.variant.module)).cost for r in gen.reports]
    assert costs == sorted(costs, reverse=True)
    assert len(gen.reports) <= 6


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
    """Wraps `crow.metrics.dtw`, counting dynamic calls (those made inside
    `dt_dyn`) and static ones (all others)."""
    import crow.metrics

    calls = {"static": 0, "dynamic": 0}
    in_dyn = []
    real_dtw, real_dyn = crow.metrics.dtw, pipeline.dt_dyn

    def counted(a, b):
        calls["dynamic" if in_dyn else "static"] += 1
        return real_dtw(a, b)

    def dyn(t1, t2):
        in_dyn.append(True)
        try:
            return real_dyn(t1, t2)
        finally:
            in_dyn.pop()

    monkeypatch.setattr(crow.metrics, "dtw", counted)
    monkeypatch.setattr(pipeline, "dt_dyn", dyn)
    return calls


def test_report_variants_runs_one_dtw_of_each_kind_per_variant(mul_add_module, monkeypatch):
    from crow.pipeline import report_variants

    blocks, replacements = _explored(mul_add_module)
    calls = _count_dtw_calls(monkeypatch)
    result = report_variants(mul_add_module, blocks, replacements, FAST,
                             trace_module(mul_add_module, FAST))
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
    assert [r.variant.digest for r in result.reports] == [
        r.variant.digest for r in ranked.reports]
    from crow.metrics import dtw, tokenize

    for rep in result.reports:
        assert rep.dt_static == dtw(tokenize(mul_add_module), tokenize(rep.variant.module)).cost


def test_rank_by_diff_with_duplicate_variants_matches_ranking_every_copy(mul_add_module):
    """Two equal candidates per block make twin variants. Generation keeps
    the order of a reference that sorts every variant by `dt_static`,
    stably, then drops texts seen before or equal to the original's."""
    from crow.metrics import dtw, tokenize
    from crow.synth import Candidate, Replacement
    from crow.variants import enumerate_combinations, make_variant
    from crow.wat import print_module

    from test_variants import fake_replacement

    wide = Replacement(Candidate(D(("add", C(1), C(2))), 2), "probable", "reduced-width", 3)
    blocks = extract_module_blocks(mul_add_module)
    replacements = {b.id: [fake_replacement(1), fake_replacement(1), wide] for b in blocks}
    cfg = dataclasses.replace(FAST, rank_by_diff=True, max_variants=3)
    gen = generate_variants(mul_add_module, blocks, replacements, cfg)

    limit = cfg.max_variants * pipeline.RANK_OVERSAMPLE
    plans, _ = enumerate_combinations(gen.resolved, limit=limit, seed=cfg.seed)
    variants = [make_variant(mul_add_module, gen.resolved, p) for p in plans]
    original = tokenize(mul_add_module)
    dt_static = lambda m: dtw(original, tokenize(m)).cost
    variants.sort(key=lambda v: -dt_static(v.module))
    seen, want = {print_module(mul_add_module)}, []
    for v in variants:
        if v.text not in seen:
            seen.add(v.text)
            want.append(v.digest)
    assert gen.dropped_duplicates == len(variants) - len(want) > 0
    assert gen.truncated
    assert [r.variant.digest for r in gen.reports] == want[: cfg.max_variants]
    assert [r.dt_static for r in gen.reports] == [
        dt_static(r.variant.module) for r in gen.reports]


def test_variants_are_traced_from_modules_equal_to_their_text(mul_add_module):
    """Tracing the emitted `Module` instead of a re-parse of its printed text
    leaves the traces as they were: the two modules are equal."""
    result = diversify(mul_add_module, FAST)
    assert result.reports
    for rep in result.reports:
        assert parse_module(rep.variant.text) == rep.variant.module
