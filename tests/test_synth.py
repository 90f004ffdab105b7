import dataclasses
import itertools
from contextlib import ExitStack
from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from crow import equiv, synth
from crow.equiv import CheckerConfig, batch_eval, check
from crow.ir import (
    K_CONST, K_INPUT, K_OP, PURE_OPS, Dag, DagNode, _reachable_key, extract_module_blocks,
)
from crow.synth import (
    Candidate,
    ConfigError,
    SynthesisConfig,
    Vocabulary,
    _leaves_for,
    _tree_to_dag,
    constant_pool,
    infer_constant,
    prefilter_vectors,
    synthesize_replacements,
)
from dagutil import C, D, IN, block_of
from synth_oracle import reference_stream, synthesize_reference

CHECKER = CheckerConfig()
QUOTA = 60 * synth.WORK_UNITS_PER_SECOND  # a minute's worth of work units


def small_cfg(max_size=1, vocabulary=Vocabulary.of("add", "sub", "const")):
    return SynthesisConfig(max_size=max_size, vocabulary=vocabulary)


# --- enumeration oracle --------------------------------------------------------
# The order is pinned on the reference stream; production is checked against
# the reference loop over it further down.


def enumerate_candidates(b, cfg):
    leaves = _leaves_for(b, cfg)
    for tree, index in reference_stream(b, cfg):
        yield Candidate(_tree_to_dag(tree, leaves), index)


def brute_force_size1(ops, leaves):
    """Independent oracle: all single-op trees in (op, left, right) order,
    operand choices rightmost-fastest."""
    out = []
    for op in ops:
        for combo in itertools.product(range(len(leaves)), repeat=2):
            out.append((op, *combo))
    return out


def test_size1_stream_matches_brute_force():
    b = block_of(("eqz", IN(0)), 1)  # no const immediates: pool is exactly the base
    cfg = small_cfg()
    assert constant_pool(b) == tuple(sorted(synth.POOL_BASE)) == (-1, 0, 1, 2)
    got = [_reachable_key(c.dag) for c in enumerate_candidates(b, cfg)]
    leaves = ["i0", "c-1", "c0", "c1", "c2"]
    want = [
        f"{op}({leaves[a]},{leaves[b_]})"
        for op, a, b_ in brute_force_size1(("add", "sub"), leaves)
    ]
    assert got == want
    assert len(got) == 50


def test_stream_excludes_self():
    b = block_of(("add", IN(0), C(0)), 1)
    keys = [_reachable_key(c.dag) for c in enumerate_candidates(b, small_cfg())]
    assert "add(i0,c0)" not in keys
    # pool: the base {0, 1, 2, -1}; immediate 0 and its neighbors add nothing
    assert len(keys) == 2 * 5 * 5 - 1


def test_single_op_vocabulary_exact_stream(monkeypatch):
    monkeypatch.setattr(synth, "POOL_BASE", (0, 1))  # a stream short enough to spell out
    b = block_of(("eqz", IN(0)), 1)
    cfg = small_cfg(vocabulary=Vocabulary.of("add", "const"))
    got = [_reachable_key(c.dag) for c in enumerate_candidates(b, cfg)]
    assert got == [
        "add(i0,i0)", "add(i0,c0)", "add(i0,c1)",
        "add(c0,i0)", "add(c0,c0)", "add(c0,c1)",
        "add(c1,i0)", "add(c1,c0)", "add(c1,c1)",
    ]


def test_mul_block_reaches_shift_candidate():
    b = block_of(MUL2 := ("mul", IN(0), C(2)), 1)
    cfg = SynthesisConfig(max_size=1, vocabulary=Vocabulary.of("shl", "const"))
    keys = {_reachable_key(c.dag) for c in enumerate_candidates(b, cfg)}
    assert "shl(i0,c1)" in keys


def test_enumeration_indices_are_stream_positions():
    b = block_of(("eqz", IN(0)), 1)
    cands = list(enumerate_candidates(b, small_cfg()))
    assert [c.index for c in cands] == list(range(len(cands)))


def test_size2_trees_are_unique_and_ordered():
    b = block_of(("eqz", IN(0)), 1)
    cfg = small_cfg(max_size=2, vocabulary=Vocabulary.of("add", "const"))
    keys = [_reachable_key(c.dag) for c in enumerate_candidates(b, cfg)]
    assert len(keys) == len(set(keys))
    # iterative deepening: all size-1 trees come before any size-2 tree
    first_size2 = next(i for i, k in enumerate(keys) if k.count("add") == 2)
    assert all(k.count("add") == 2 for k in keys[first_size2:])
    # left-largest split first: add(add(..),leaf) precedes add(leaf,add(..))
    assert keys[first_size2].startswith("add(add(")


# --- constant pool / inference ---------------------------------------------------


def test_pool_includes_negated_immediates():
    b = block_of(("sub", IN(0), C(-5)), 1)
    pool = constant_pool(b)
    assert 5 in pool and -5 in pool and -4 in pool and -6 in pool


def block_values(b):
    """The block's values on its prefilter vectors, as synthesis holds them."""
    return np.atleast_1d(batch_eval(b.dag, prefilter_vectors(b, 0), 32))


def test_infer_constant_zero_input():
    b = block_of(("sub", ("mul", C(158), C(160)), C(16)), 0)
    cand = infer_constant(block_values(b))
    assert cand is not None and cand.index == -1
    node = cand.dag.nodes[cand.dag.root]
    assert (node.kind, node.value) == (K_CONST, 25264)


def test_infer_constant_identity_returns_none():
    assert infer_constant(block_values(block_of(IN(0), 1))) is None


def test_infer_constant_masked_block():
    cand = infer_constant(block_values(block_of(("and", IN(0), C(0)), 1)))
    assert cand is not None
    assert cand.dag.nodes[cand.dag.root].value == 0


# --- prefilter -------------------------------------------------------------------


def prefilter(b, rhs) -> bool:
    """True iff block and candidate agree on every prefilter vector."""
    vectors = prefilter_vectors(b, 0)
    return bool((batch_eval(b.dag, vectors, 32) == batch_eval(D(rhs), vectors, 32)).all())


def test_prefilter_accepts_equivalent():
    assert prefilter(block_of(("mul", IN(0), C(2)), 1), ("shl", IN(0), C(1)))


def test_prefilter_kills_on_corner():
    assert not prefilter(block_of(("mul", IN(0), C(2)), 1), ("add", IN(0), C(1)))


def test_prefilter_accepts_comparison_inversion():
    assert prefilter(block_of(("gt_s", IN(0), C(10)), 1), ("le_s", C(11), IN(0)))


def test_prefilter_never_rejects_equivalent_rewrites():
    # metamorphic: known-equivalent pairs must always pass
    cases = [
        (("mul", IN(0), C(8)), ("shl", IN(0), C(3))),
        (("sub", IN(0), C(-9)), ("add", IN(0), C(9))),
        (("xor", IN(0), IN(0)), ("and", C(0), IN(0))),
        (("add", IN(0), IN(0)), ("shl", IN(0), C(1))),
    ]
    for lhs, rhs in cases:
        assert prefilter(block_of(lhs, 1), rhs)


# --- synthesize_replacements -------------------------------------------------------


def test_mul_block_yields_shift_and_double_add():
    b = block_of(("mul", IN(0), C(2)), 1)
    cfg = SynthesisConfig(max_size=2, vocabulary=Vocabulary.of("shl", "add", "mul", "const"))
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    keys = {_reachable_key(r.candidate.dag) for r in result.replacements}
    assert "shl(i0,c1)" in keys
    assert "add(i0,i0)" in keys
    assert all(r.tier in ("verified", "probable") for r in result.replacements)


def test_sub_negative_becomes_add():
    b = block_of(("sub", IN(0), C(-5)), 1)
    cfg = SynthesisConfig(max_size=1, vocabulary=Vocabulary.of("add", "const"))
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    keys = {_reachable_key(r.candidate.dag) for r in result.replacements}
    assert "add(i0,c5)" in keys


def test_empty_vocabulary_rejected():
    with pytest.raises(ConfigError, match="vocabulary is empty"):
        SynthesisConfig(vocabulary=Vocabulary.of())


def test_checker_config_validated_on_entry():
    b = block_of(("mul", IN(0), C(2)), 1)
    with pytest.raises(ConfigError, match="unknown checker mode"):
        synthesize_replacements(b, SynthesisConfig(), CheckerConfig(mode="nope"), QUOTA, 0)


def test_no_self_replacement():
    b = block_of(("add", IN(0), IN(0)), 1)
    cfg = SynthesisConfig(max_size=1, vocabulary=Vocabulary.of("add", "const"))
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    self_seq = "add(i0,i0)"
    assert all(_reachable_key(r.candidate.dag) != self_seq for r in result.replacements)


def test_zero_input_block_gets_constant():
    b = block_of(("sub", ("mul", C(158), C(160)), C(16)), 0)
    cfg = SynthesisConfig(max_size=1, vocabulary=Vocabulary.of("add", "const"))
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    assert result.replacements, "constant inference must produce a verified replacement"
    first = result.replacements[0]
    assert first.candidate.index == -1
    assert first.tier == "verified"
    assert first.candidate.dag.nodes[first.candidate.dag.root].value == 25264


def test_replacement_cap_stops_early():
    b = block_of(("mul", IN(0), C(2)), 1)
    result = synthesize_replacements(b, SynthesisConfig(max_size=2), CHECKER, QUOTA, 0)
    assert result.stopped == "cap"
    assert len(result.replacements) == synth.MAX_REPLACEMENTS == 24


def test_budget_exhaustion_flagged():
    b = block_of(("mul", IN(0), C(2)), 1)
    cfg = SynthesisConfig(max_size=3)
    result = synthesize_replacements(b, cfg, CHECKER, 800, 0)
    assert result.stopped == "budget"


def test_oversized_block_skipped():
    tree = IN(0)
    for k in range(32):  # 65 nodes: 32 adds, 32 constants, 1 input
        tree = ("add", tree, C(k))
    b = block_of(tree, 1)
    assert b.node_count == 65 > synth.MAX_BLOCK_NODES
    result = synthesize_replacements(b, SynthesisConfig(), CHECKER, QUOTA, 0)
    assert result.stopped == "skipped"
    assert result.skipped_reason == "block has 65 nodes (> 64)"
    assert result.replacements == []


def test_determinism_and_budget_prefix():
    b = block_of(("mul", IN(0), C(2)), 1)
    cfg = SynthesisConfig(max_size=2)
    r1 = synthesize_replacements(b, cfg, CHECKER, QUOTA, 7)
    r2 = synthesize_replacements(b, cfg, CHECKER, QUOTA, 7)
    assert [x.candidate for x in r1.replacements] == [x.candidate for x in r2.replacements]
    # a smaller budget yields a prefix of the larger run's result list
    small = synthesize_replacements(b, cfg, CHECKER, 16_000, 7)
    ks = [x.candidate for x in small.replacements]
    assert ks == [x.candidate for x in r1.replacements][: len(ks)]


def test_rechecking_stored_replacements_is_stable():
    b = block_of(("gt_s", IN(0), C(10)), 1)
    cfg = SynthesisConfig(max_size=1)
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    assert result.replacements
    for r in result.replacements:
        again = check(b, r.candidate.dag, CHECKER, 0)
        assert again.tier == r.tier


def test_listing_style_end_to_end_blocks(mul_add_module):
    blocks = extract_module_blocks(mul_add_module)
    b = next(x for x in blocks if x.dag.nodes[x.dag.root].op == "add")
    cfg = SynthesisConfig(max_size=2, vocabulary=Vocabulary.of("shl", "add", "mul", "const"))
    result = synthesize_replacements(b, cfg, CHECKER, QUOTA, 0)
    keys = {_reachable_key(r.candidate.dag) for r in result.replacements}
    assert "mul(i0,c3)" in keys  # 3x in one op
    assert any("shl" in k for k in keys)


# --- batched stream vs the tree-at-a-time oracle -------------------------------------

# (CHUNK_ELEMENTS, BANK_ELEMENTS): the defaults, then one candidate per chunk
# with no banks, so chunk boundaries fall everywhere and every operand row
# is recomputed.
BATCHING = [(None, None), (1, 0)]


def _synthesize_with(batching, b, cfg, checker, quota, seed):
    chunk, bank = batching
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(synth, "CHUNK_ELEMENTS", chunk)
            mp.setattr(synth, "BANK_ELEMENTS", bank)
        return synthesize_replacements(b, cfg, checker, quota, seed)


def _assert_matches_oracle(batching, b, cfg, checker, quota=QUOTA, seed=0):
    got = _synthesize_with(batching, b, cfg, checker, quota, seed)
    assert vars(got) == vars(synthesize_reference(b, cfg, checker, quota, seed))
    return got


def tee_chain(depth: int):
    """local.tee 0; local.get 0; i32.add, `depth` times: each add uses the
    previous one twice, so the tree expansion doubles per level."""
    nodes = [DagNode(K_INPUT, input=0)]
    nodes += [DagNode(K_OP, op="add", operands=(i, i)) for i in range(depth)]
    return dataclasses.replace(block_of(IN(0), 1), dag=Dag(tuple(nodes), depth))


CONSTS = [0, 1, -1, 2, 7, -9, 255, 2**31 - 1, -(2**31)]


@st.composite
def block_trees(draw, n_inputs, depth=0):
    if depth >= 2 or draw(st.integers(0, 2)) == 0:
        if n_inputs and draw(st.booleans()):
            return IN(draw(st.integers(0, n_inputs - 1)))
        return C(draw(st.sampled_from(CONSTS)))
    op = draw(st.sampled_from(sorted(PURE_OPS)))
    return (op, *(draw(block_trees(n_inputs, depth + 1)) for _ in range(PURE_OPS[op])))


def patched(constants) -> ExitStack:
    """A context in which each (module, name, value) triple is patched in."""
    stack = ExitStack()
    for module, name, value in constants:
        stack.enter_context(patch.object(module, name, value))
    return stack


@st.composite
def synthesis_cases(draw):
    n_inputs = draw(st.integers(0, 3))
    b = block_of(draw(block_trees(n_inputs)), n_inputs)
    ops = draw(st.lists(st.sampled_from(sorted(PURE_OPS)), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 5)) == 0:
        ops = []
    allow_const = draw(st.booleans()) or not ops
    vocabulary = Vocabulary.of(*ops, *(["const"] if allow_const else []))
    cfg = SynthesisConfig(max_size=draw(st.integers(1, 3)), vocabulary=vocabulary)
    constants = (
        (synth, "POOL_BASE",
         tuple(draw(st.lists(st.sampled_from(CONSTS), max_size=3, unique=True)))),
        (synth, "PREFILTER_RANDOM", draw(st.sampled_from([1, 8, 64]))),
        (synth, "MAX_REPLACEMENTS", draw(st.sampled_from([1, 3, 24, 10**6]))),
        (equiv, "REDUCED_WIDTHS", (4,)),
        (equiv, "SAMPLES", draw(st.sampled_from([0, 64, 4000]))),
    )
    seed = draw(st.integers(0, 3))
    # a budget of some candidates' worth of units, plus part of one more
    with patched(constants):
        vectors = prefilter_vectors(b, seed)
    charge = max(len(vectors[0]) if vectors else 1, 16)
    candidates = draw(st.one_of(st.integers(0, 20), st.integers(20, 3000)))
    quota = candidates * charge + draw(st.integers(0, charge - 1))
    checker = CheckerConfig(mode=draw(st.sampled_from(["probable-ok", "exhaustive-only"])))
    return constants, (b, cfg, checker, quota, seed)


@pytest.mark.parametrize("batching", BATCHING)
@settings(max_examples=60, deadline=None)
@given(case=synthesis_cases())
def test_batched_synthesis_matches_oracle(batching, case):
    constants, args = case
    with patched(constants):
        _assert_matches_oracle(batching, *args)


@pytest.mark.parametrize("batching", BATCHING)
@pytest.mark.parametrize(
    # each cfg is (SynthesisConfig, quota, the constants patched in, if any)
    "tree, n_inputs, cfg, checker, expect",
    [
        # zero-input block: the inferred constant comes first, at index -1
        (("sub", ("mul", C(158), C(160)), C(16)), 0,
         (SynthesisConfig(max_size=2, vocabulary=Vocabulary.of("add", "shl", "const")), 40_000),
         CHECKER, lambda r: r.replacements[0].candidate.index == -1),
        # const-only vocabulary: nothing to enumerate beyond the inferred constant
        (("and", IN(0), C(0)), 1, (SynthesisConfig(vocabulary=Vocabulary.of("const")), QUOTA),
         CHECKER, lambda r: r.candidates_seen == 1 and r.stopped == "complete"),
        # the budget stops at the first candidate
        (("mul", IN(0), C(2)), 1, (SynthesisConfig(), 0),
         CHECKER, lambda r: (r.candidates_seen, r.stopped) == (1, "budget")),
        # the budget stops mid-chunk (a chunk holds 115 candidates of 71 vectors),
        # after checks too short to spend it
        (("mul", IN(0), C(2)), 1, (SynthesisConfig(max_size=2), 71 * 300, (equiv, "SAMPLES", 512)),
         CHECKER, lambda r: r.stopped == "budget" and r.candidates_seen == 278),
        # the replacement cap
        (("add", IN(0), IN(1)), 2, (SynthesisConfig(max_size=2), QUOTA),
         CHECKER, lambda r: r.stopped == "cap" and len(r.replacements) == synth.MAX_REPLACEMENTS),
        # checker evaluations push the work units past the quota
        (("add", IN(0), IN(0)), 1,
         (SynthesisConfig(max_size=2, vocabulary=Vocabulary.of("add", "shl", "const")), 20_000),
         CHECKER, lambda r: r.stopped == "budget" and r.work_units > equiv.SAMPLES),
        # the exhaustive checker cannot verify an input block: it is skipped uncharged
        (("mul", IN(0), C(2)), 1, (SynthesisConfig(max_size=2), 40_000),
         CheckerConfig(mode="exhaustive-only"),
         lambda r: (r.stopped, r.candidates_seen, r.work_units) == ("skipped", 0, 0)),
        # a block of 3 ops that the size-3 stream contains: its own tree is skipped
        (("add", ("add", IN(0), IN(0)), ("add", IN(0), IN(0))), 1,
         (SynthesisConfig(vocabulary=Vocabulary.of("add", "const")), QUOTA),
         CHECKER, lambda r: r.stopped == "complete"),
    ],
)
def test_batched_synthesis_edge_cases(batching, tree, n_inputs, cfg, checker, expect):
    cfg, quota, *constants = cfg
    with patched(constants):
        got = _assert_matches_oracle(batching, block_of(tree, n_inputs), cfg, checker, quota)
    assert expect(got)


def test_deep_sharing_never_builds_the_block_key(monkeypatch):
    def refuse(dag):
        raise AssertionError("block key built")

    cfg = SynthesisConfig(max_size=3)
    with monkeypatch.context() as mp:
        mp.setattr(synth, "_reachable_key", refuse)
        deep = synthesize_replacements(tee_chain(19), cfg, CHECKER, 80_000, 0)
    assert deep.stopped == "budget" and deep.candidates_seen > 0
    # a short chain (3 ops, within max_size) still excludes its own tree
    short = SynthesisConfig(max_size=3, vocabulary=Vocabulary.of("add", "const"))
    got = _assert_matches_oracle((None, None), tee_chain(2), short, CHECKER)
    assert all(_reachable_key(r.candidate.dag) != "add(add(i0,i0),add(i0,i0))"
               for r in got.replacements)
