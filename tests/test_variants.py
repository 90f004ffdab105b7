import random
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from crow.emit import emit_dag, reemit_function
from crow.equiv import CheckerConfig, eval_dag
from crow.interp import instantiate, invoke
from crow.ir import PURE_OPS, PureBlock, extract_module_blocks
from crow.metrics import dtw, tokenize
from crow.synth import (
    WORK_UNITS_PER_SECOND, Candidate, Replacement, SynthesisConfig, Vocabulary,
    synthesize_replacements,
)
from crow.variants import (
    ReplacementSet,
    _decode_plan,
    VariantPlan,
    apply_plan,
    dedup_variants,
    enumerate_combinations,
    make_variant,
    plan_count,
    resolve_overlaps,
)
from crow.wat import FuncDef, Module, parse_module, print_module, validate

from dagutil import C, D, IN
from semantics_spec import corner_values, spec, to_signed
from strategies import modules


def fake_replacement(k=0):
    return Replacement(Candidate(D(C(k)), k), "probable", "reduced-width", 1)


class _SizedBlock(PureBlock):
    """Synthetic block with a forced node count; only the fields overlap
    resolution looks at matter."""

    @property
    def node_count(self):
        return self._forced


def sized_block(bid, func, site, interior, n_nodes):
    blk = _SizedBlock(
        id=bid, func=func, region_index=0, root_site=site,
        dag=D(("add", C(0), C(1))), inputs=(), interior=frozenset(interior),
        input_rnodes=(), root_rnode=0,
    )
    object.__setattr__(blk, "_forced", n_nodes)
    return blk


# --- overlap resolution -----------------------------------------------------------


def test_overlap_keeps_largest(mul_add_module):
    blocks = extract_module_blocks(mul_add_module)
    a = next(b for b in blocks if b.func == 0 and b.dag.nodes[b.dag.root].op == "mul")
    bb = next(b for b in blocks if b.func == 0 and b.dag.nodes[b.dag.root].op == "add")
    reps = {a.id: [fake_replacement()], bb.id: [fake_replacement()]}
    resolved = resolve_overlaps([a, bb], reps)
    assert set(resolved.blocks) == {bb.id}
    assert a.id in resolved.dropped


def test_overlap_disjoint_blocks_both_retained():
    b1 = sized_block("x", 0, 0, {0, 1}, 4)
    b2 = sized_block("y", 0, 5, {5, 6}, 3)
    resolved = resolve_overlaps([b1, b2], {"x": [fake_replacement()], "y": [fake_replacement()]})
    assert set(resolved.blocks) == {"x", "y"}


def test_overlap_transitive_group_keeps_size5():
    b5 = sized_block("b5", 0, 2, {0, 1, 2}, 5)
    b3 = sized_block("b3", 0, 1, {1, 5}, 3)
    b2 = sized_block("b2", 0, 5, {2, 5}, 2)
    reps = {b.id: [fake_replacement()] for b in (b5, b3, b2)}
    resolved = resolve_overlaps([b5, b3, b2], reps)
    assert set(resolved.blocks) == {"b5"}
    kept = list(resolved.blocks.values())
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert kept[i].interior.isdisjoint(kept[j].interior)


def test_blocks_without_replacements_do_not_compete():
    big = sized_block("big", 0, 9, {0, 1, 2, 3}, 9)
    small = sized_block("small", 0, 1, {1}, 2)
    resolved = resolve_overlaps([big, small], {"small": [fake_replacement()]})
    assert set(resolved.blocks) == {"small"}


# --- combination enumeration --------------------------------------------------------


def _set_with(counts):
    blocks = {}
    reps = {}
    for i, c in enumerate(counts):
        blk = sized_block(f"b{i}", 0, i * 10, {i * 10}, 3)
        blocks[blk.id] = blk
        reps[blk.id] = [fake_replacement(k) for k in range(c)]
    return ReplacementSet(blocks=blocks, replacements=reps)


def test_six_plus_one_gives_thirteen_plans():
    s = _set_with([6, 1])
    assert plan_count(s) == (6 + 1) * (1 + 1) - 1 == 13
    plans, truncated = enumerate_combinations(s, limit=100)
    assert len(plans) == 13 and not truncated
    assert len({tuple(sorted(p.choices.items())) for p in plans}) == 13


def test_single_replacement_single_plan():
    plans, truncated = enumerate_combinations(_set_with([1]), limit=10)
    assert len(plans) == 1 and not truncated
    assert plans[0].choices == {"b0": 0}


def test_three_blocks_of_two_gives_26():
    plans, truncated = enumerate_combinations(_set_with([2, 2, 2]), limit=100)
    assert len(plans) == 26 and not truncated


def test_truncation_samples_deterministically():
    s = _set_with([2, 2, 2])
    plans1, trunc1 = enumerate_combinations(s, limit=5, seed=42)
    plans2, _ = enumerate_combinations(s, limit=5, seed=42)
    plans3, _ = enumerate_combinations(s, limit=5, seed=43)
    assert trunc1 and len(plans1) == 5
    assert plans1 == plans2
    assert plans1 != plans3


def test_sampling_past_sys_maxsize():
    s = _set_with([3] * 40)  # 4**40 - 1 plans
    assert plan_count(s) > sys.maxsize
    plans, truncated = enumerate_combinations(s, limit=16, seed=7)
    assert truncated and len(plans) == 16
    assert len({tuple(sorted(p.choices.items())) for p in plans}) == 16
    assert plans == enumerate_combinations(s, limit=16, seed=7)[0]


def test_small_totals_keep_the_sample_call():
    s = _set_with([2, 2, 2])
    codes = sorted(random.Random(3).sample(range(1, plan_count(s) + 1), 5))
    plans, _ = enumerate_combinations(s, limit=5, seed=3)
    assert [p.choices for p in plans] == [_decode_plan(s, s.order(), c).choices for c in codes]


def test_empty_plan_rejected():
    with pytest.raises(ValueError):
        VariantPlan({})


# --- applying plans -----------------------------------------------------------------


def synth_set(m, vocab=("shl", "add", "mul", "const"), max_size=2):
    blocks = extract_module_blocks(m)
    cfg = SynthesisConfig(max_size=max_size, vocabulary=Vocabulary.of(*vocab))
    reps = {b.id: synthesize_replacements(b, cfg, CheckerConfig(), 60 * WORK_UNITS_PER_SECOND, 0).replacements for b in blocks}
    return blocks, resolve_overlaps(blocks, reps)


def test_apply_shift_plan_mul_add(mul_add_module):
    blocks, s = synth_set(mul_add_module)
    bid = next(b.id for b in s.blocks.values() if b.func == 0)
    shl_idx = next(
        i for i, r in enumerate(s.replacements[bid])
        if any(n.op == "shl" for n in r.candidate.dag.nodes if n.kind == "op")
    )
    out = apply_plan(mul_add_module, s, VariantPlan({bid: shl_idx}))
    assert validate(out) == []
    text = print_module(out)
    assert "i32.shl" in text
    state = instantiate(out)
    outcome, _ = invoke(state, "main", [])
    assert (outcome.kind, outcome.value) == ("result", 30)
    assert out.exports == mul_add_module.exports
    assert [f.params for f in out.functions] == [f.params for f in mul_add_module.functions]


def test_apply_constant_plan_removes_computation():
    text = """(module
      (func (result i32) (local i32)
        i32.const 158
        i32.const 160
        i32.mul
        i32.const 16
        i32.sub
        local.set 0
        local.get 0)
      (export "main" (func 0)))"""
    m = parse_module(text)
    blocks, s = synth_set(m, vocab=("add", "const"), max_size=1)
    bid = next(iter(s.order()))
    const_idx = next(
        i for i, r in enumerate(s.replacements[bid])
        if r.candidate.dag.nodes[r.candidate.dag.root].kind == "const"
    )
    out = apply_plan(m, s, VariantPlan({bid: const_idx}))
    vt = print_module(out)
    assert "i32.const 25264" in vt
    assert "i32.mul" not in vt
    outcome, _ = invoke(instantiate(out), "main", [])
    assert outcome.value == 25264


def test_variants_functionally_equivalent_on_vectors(mul_add_module):
    blocks, s = synth_set(mul_add_module)
    plans, _ = enumerate_combinations(s, limit=40)
    base_state = instantiate(mul_add_module)
    base = invoke(base_state, "main", [])[0]
    for plan in plans:
        v = make_variant(mul_add_module, s, plan)
        got = invoke(instantiate(v.module), "main", [])[0]
        assert got == base


def test_dedup_collapses_identical_text(mul_add_module):
    blocks, s = synth_set(mul_add_module)
    plans, _ = enumerate_combinations(s, limit=40)
    variants = [make_variant(mul_add_module, s, p) for p in plans]
    unique = dedup_variants(variants, taken={print_module(mul_add_module)})
    texts = [v.text for v in unique]
    assert len(texts) == len(set(texts))
    assert all(t != print_module(mul_add_module) for t in texts)
    original = tokenize(mul_add_module)
    assert all(dtw(original, tokenize(v.module)).cost > 0 for v in unique)


def test_dedup_identical_modules_single_survivor(mul_add_module):
    blocks, s = synth_set(mul_add_module)
    plans, _ = enumerate_combinations(s, limit=2)
    v = make_variant(mul_add_module, s, plans[0])
    assert dedup_variants([v, v]) == [v]


# --- emission corner cases ------------------------------------------------------------


def run_equiv_check(text, entry="run", vectors=((0,), (1,), (-1,), (17,), (-2**31,), (2**31 - 1,))):
    """Diversify every block one at a time and compare against the original
    on concrete vectors."""
    m = parse_module(text)
    assert validate(m) == []
    blocks, s = synth_set(m, vocab=("add", "or", "shl", "const"), max_size=1)
    plans, _ = enumerate_combinations(s, limit=30)
    f = m.functions[m.exports[entry]]
    for plan in plans:
        out = apply_plan(m, s, plan)
        for vec in vectors:
            args = list(vec)[: f.params]
            want = invoke(instantiate(m), entry, args)[0]
            got = invoke(instantiate(out), entry, args)[0]
            assert got == want, (plan, vec, print_module(out))


def test_emission_tee_shared_value():
    run_equiv_check(
        """(module
          (func (param i32) (result i32) (local i32)
            local.get 0
            i32.const 2
            i32.mul
            local.tee 1
            local.get 1
            i32.mul)
          (export "run" (func 0)))"""
    )


def test_emission_local_overwritten_after_read():
    run_equiv_check(
        """(module
          (func (param i32) (result i32)
            local.get 0
            i32.const 1
            local.set 0
            local.get 0
            i32.add)
          (export "run" (func 0)))"""
    )


def test_emission_entry_stack_values():
    run_equiv_check(
        """(module
          (func (param i32) (result i32)
            local.get 0
            block
              nop
            end
            i32.const 3
            i32.mul)
          (export "run" (func 0)))"""
    )


def test_emission_call_result_reused():
    run_equiv_check(
        """(module
          (func (param i32) (result i32)
            local.get 0
            i32.const 1
            i32.add)
          (func (param i32) (result i32) (local i32)
            local.get 0
            call 0
            local.tee 1
            local.get 1
            i32.mul)
          (export "run" (func 1)))"""
    )


def test_emission_pinned_global_reads():
    run_equiv_check(
        """(module
          (global (mut i32) (i32.const 3))
          (func (param i32) (result i32)
            global.get 0
            local.get 0
            global.set 0
            global.get 0
            i32.mul)
          (export "run" (func 0)))"""
    )


def test_emission_store_addressing():
    run_equiv_check(
        """(module
          (memory 1)
          (func (param i32) (result i32)
            i32.const 4
            local.get 0
            i32.const 2
            i32.mul
            i32.store
            i32.const 4
            i32.load)
          (export "run" (func 0)))"""
    )


def test_emission_drop_region():
    run_equiv_check(
        """(module
          (func (param i32) (result i32)
            local.get 0
            local.get 0
            i32.mul
            drop
            local.get 0
            i32.const 7
            i32.add)
          (export "run" (func 0)))"""
    )


def test_reemit_deep_pure_chain():
    """Substituting the first add of a 2000-op chain re-emits the whole
    chain, one DAG level per op, without a recursion limit. Blocks are not
    extracted: extraction is quadratic in the chain length."""
    m = parse_module(
        "(module (func (param i32) (result i32) local.get 0"
        + " i32.const 3 i32.add" * 2000 + ') (export "run" (func 0)))'
    )
    # region node 2 is the first add, of input node 0 and const node 1
    f = reemit_function(m, 0, {0: {2: (D(("add", IN(0), C(3))), (0,))}})
    out = replace(m, functions=(f,))
    assert validate(out) == []
    for x in (0, 7, -(2**31)):
        assert invoke(instantiate(out), "run", [x])[0] == invoke(instantiate(m), "run", [x])[0]


def test_reemission_reads_values_from_locals_that_still_hold_them(reused_local_program):
    """Every block of the callee re-emitted from its own DAG: the value left
    pending on the stack is read from a local that still holds it, not from
    one the region has overwritten since."""
    text, want = reused_local_program
    m = parse_module(text)
    blocks = [b for b in extract_module_blocks(m) if b.func == 0]
    reps = {b.id: [Replacement(Candidate(b.dag, 0), "probable", "reduced-width", 1)]
            for b in blocks}
    s = resolve_overlaps(blocks, reps)
    out = apply_plan(m, s, VariantPlan(dict.fromkeys(s.blocks, 0)))
    assert str(invoke(instantiate(out), "main", [])[0]) == f"result {want}", print_module(out)


# --- emission over generated modules ----------------------------------------------------

EMIT_FUEL = 2000  # a generated loop may never exit; the original's run ends here


def _final_state(m: Module, name: str, args: list[int], fuel: int):
    state = instantiate(m, fuel=fuel)
    outcome, _ = invoke(state, name, args)
    return outcome, state.globals, bytes(state.memory)


@settings(max_examples=150, deadline=None)
@given(modules(), st.randoms(use_true_random=False))
def test_reemitted_generated_modules_keep_their_effects(m, rng):
    """Every kept block re-emitted from its own DAG or, on a seeded subset of
    input-free blocks, from the constant it evaluates to: the variant
    validates, and each function that finishes within its fuel ends with the
    original's outcome, globals and memory."""
    m = replace(m, exports={f"f{i}": i for i in range(len(m.functions))})
    blocks = extract_module_blocks(m)
    reps = {}
    for b in blocks:
        dag = D(C(eval_dag(b.dag, ()))) if not b.inputs and rng.random() < 0.5 else b.dag
        reps[b.id] = [Replacement(Candidate(dag, 0), "probable", "reduced-width", 1)]
    s = resolve_overlaps(blocks, reps)
    assume(s.blocks)
    out = apply_plan(m, s, VariantPlan(dict.fromkeys(s.blocks, 0)))
    assert validate(out) == []
    for name, fn in m.exports.items():
        args = [rng.choice([0, 1, -1, 7, rng.randint(-(2**31), 2**31 - 1)])
                for _ in range(m.functions[fn].params)]
        want = _final_state(m, name, args, EMIT_FUEL)
        if want[0].kind == "fuel-exhausted":
            continue
        # re-emission spills to temps and re-materializes values: more events
        assert _final_state(out, name, args, 64 * EMIT_FUEL) == want, print_module(out)


# --- standalone DAG emission / interpreter agreement -----------------------------------


def test_emit_dag_stacklike():
    d = D(("add", ("shl", IN(0), C(1)), IN(0)))
    assert [str(i) for i in emit_dag(d)] == [
        "local.get 0", "i32.const 1", "i32.shl", "local.get 0", "i32.add",
    ]


_i32_args = st.one_of(
    st.sampled_from([to_signed(v, 32) for v in corner_values(32)]),
    st.integers(-(2**31), 2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(_i32_args, _i32_args, _i32_args)
def test_interpreter_matches_evaluator_on_blocks(x, y, z):
    # every pure op alone, also against the spec, then a few compositions
    cases = [
        (D((op, *(IN(i) for i in range(arity)))),
         to_signed(spec(op, (x, y, z)[:arity], 32), 32))
        for op, arity in PURE_OPS.items()
    ]
    cases += [
        (D(tree), None) for tree in (
            ("mul", IN(0), C(2)),
            ("add", ("shl", IN(0), C(1)), IN(1)),
            ("select", IN(0), IN(1), ("gt_s", IN(0), IN(1))),
            ("shr_s", IN(0), ("and", IN(1), C(31))),
        )
    ]
    for dag, expected in cases:
        f = FuncDef(params=3, results=1, locals=0, body=tuple(emit_dag(dag)))
        m = Module(functions=(f,), exports={"f": 0})
        assert validate(m) == []
        outcome, _ = invoke(instantiate(m), "f", [x, y, z])
        assert outcome.value == eval_dag(dag, (x, y, z))
        assert expected is None or outcome.value == expected


def test_extracted_blocks_match_interpreter(mul_add_module):
    for b in extract_module_blocks(mul_add_module):
        f = FuncDef(params=len(b.inputs), results=1, locals=0, body=tuple(emit_dag(b.dag)))
        m = Module(functions=(f,), exports={"f": 0})
        for env in [(0,), (10,), (-3,), (2**31 - 1,)]:
            args = list(env)[: f.params]
            outcome, _ = invoke(instantiate(m), "f", args)
            assert outcome.value == eval_dag(b.dag, tuple(args))
