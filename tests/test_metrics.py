import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crow import corpus
from crow.interp import TraceEvent
from crow.metrics import (
    DtwResult,
    cell_dtype,
    dt_dyn,
    dtw,
    tokenize,
    trace_tokens,
)
from crow.wat import INT32_MAX, INT32_MIN, FuncDef, Instr, Module, parse_module

from dtw_oracle import codes, dtw_diagonal, dtw_reference
from strategies import modules
from traceutil import trace_of

tokens = st.lists(st.sampled_from("ABC"), max_size=12)


def test_dtw_identity():
    assert dtw(codes("ABCAB"), codes("ABCAB")).cost == 0


def test_dtw_deletion_costs_one():
    assert dtw(codes("ABC"), codes("AC")).cost == 1


def test_dtw_swap_costs_two():
    assert dtw(codes("AB"), codes("BA")).cost == 2


def test_dtw_empty_cases():
    assert dtw(codes(""), codes("")).cost == 0
    assert dtw(codes(""), codes("ABC")).cost == 3
    assert dtw(codes("AB"), codes("")).cost == 2


def test_dtw_records_lengths():
    r = dtw(codes("ABC"), codes("ABCD"))
    assert (r.len_a, r.len_b) == (3, 4)


@settings(max_examples=300, deadline=None)
@given(tokens, tokens)
def test_dtw_matches_reference(a, b):
    assert dtw(codes(a), codes(b)).cost == dtw_reference(a, b)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_dtw_symmetric_nonnegative(a, b):
    c = dtw(codes(a), codes(b)).cost
    assert c >= 0
    assert c == dtw(codes(b), codes(a)).cost


def _collapse(seq):
    return [k for k, _ in itertools.groupby(seq)]


def test_zero_iff_run_collapse_equal_exhaustive_small():
    seqs = [
        list(s)
        for k in range(0, 5)
        for s in itertools.product("ABC", repeat=k)
    ]
    for a in seqs:
        for b in seqs:
            zero = dtw(codes(a), codes(b)).cost == 0
            assert zero == (_collapse(a) == _collapse(b)), (a, b)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_zero_iff_run_collapse_equal_random(a, b):
    assert (dtw(codes(a), codes(b)).cost == 0) == (_collapse(a) == _collapse(b))


def test_novel_token_append_costs_exactly_one():
    for base in (list("AAB"), list("ABCABC"), ["x"]):
        assert dtw(codes(base), codes(base + ["Z"])).cost == dtw_reference(base, base + ["Z"]) == 1


def test_diagonal_oracle_agrees_with_reference():
    seqs = [list(s) for k in range(0, 4) for s in itertools.product("AB", repeat=k)]
    for a in seqs:
        for b in seqs:
            assert dtw_diagonal(a, b) == dtw_reference(a, b)


def test_large_pair_against_diagonal_oracle():
    import random

    rng = random.Random(1)
    a = [rng.choice("ABCDE") for _ in range(3000)]
    b = [rng.choice("ABCDE") for _ in range(2500)]
    assert dtw(codes(a), codes(b)).cost == dtw_diagonal(a, b)


# --- module / trace wrappers -----------------------------------------------------


def test_tokenize_mul_add(mul_add_module):
    expected = [
        "local.get 0",
        "local.get 0",
        "i32.const 2",
        "i32.mul",
        "i32.add",
        "i32.const 10",
        "call 0",
    ]
    toks = tokenize(mul_add_module)
    assert toks.dtype == np.int64 and len(toks) == len(expected)
    for i, j in itertools.product(range(len(expected)), repeat=2):
        assert (toks[i] == toks[j]) == (expected[i] == expected[j]), (i, j)


def test_tokenize_empty_module():
    assert tokenize(parse_module("(module)")).shape == (0,)


def _assert_codes_match_strings(m):
    """Equal codes exactly for equal `str(ins)`, one code per instruction."""
    strs = [str(ins) for f in m.functions for ins in f.body]
    toks = tokenize(m)
    assert toks.dtype == np.int64 and len(toks) == len(strs)
    pairs = set(zip(strs, toks.tolist()))
    assert len(pairs) == len(set(strs)) == len(set(toks.tolist()))


@pytest.mark.parametrize("name", corpus.names())
def test_tokenize_codes_match_strings_on_corpus(name):
    _assert_codes_match_strings(parse_module(corpus.load(name)))


@settings(max_examples=200, deadline=None)
@given(modules())
def test_tokenize_codes_match_strings_on_generated_modules(m):
    _assert_codes_match_strings(m)


@pytest.mark.parametrize("ins", [Instr("i32.const", 2**62), Instr("i32.const", -(2**62)),
                                 Instr("local.get", 2**63)])
def test_tokenize_raises_on_an_immediate_beyond_int64(ins):
    m = Module(functions=(FuncDef(params=0, results=0, locals=1, body=(ins,)),))
    with pytest.raises(OverflowError):
        tokenize(m)


def test_dt_static_self_is_zero(mul_add_module):
    assert dtw(tokenize(mul_add_module), tokenize(mul_add_module)).cost == 0


def test_dt_static_differs_for_shl_variant(mul_add_text):
    variant = mul_add_text.replace("i32.const 2", "i32.const 1").replace("i32.mul", "i32.shl")
    assert dtw(tokenize(parse_module(mul_add_text)), tokenize(parse_module(variant))).cost > 0


def test_dt_static_unrelated_modules():
    m1 = parse_module("(module (func (result i32) i32.const 1))")
    m2 = parse_module("(module (func (result i32) i32.const 2 i32.const 3 i32.add))")
    assert dtw(tokenize(m1), tokenize(m2)).cost > 0


def test_dt_dyn_identical_zero():
    t = trace_of([("push", 1), ("pop", 1)])
    assert dt_dyn(t, t) == 0


def test_dt_dyn_value_sensitivity():
    assert dt_dyn(trace_of([("push", 10)]), trace_of([("push", 20)])) == 1


# --- integer event codes ----------------------------------------------------------

corner_values = st.sampled_from([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX])
events = st.builds(
    TraceEvent,
    st.sampled_from(["push", "pop"]),
    st.one_of(corner_values, st.integers(INT32_MIN, INT32_MAX)),
)
traces = st.lists(events, max_size=12)


def _event_strings(trace):
    return [f"{ev.kind} {ev.value}" for ev in trace]


@settings(max_examples=300, deadline=None)
@given(traces, traces)
def test_dt_dyn_matches_reference_over_event_strings(t1, t2):
    assert dt_dyn(trace_of(t1), trace_of(t2)) == dtw_reference(
        _event_strings(t1), _event_strings(t2))


@settings(max_examples=100, deadline=None)
@given(st.lists(corner_values, min_size=1, max_size=6), st.data())
def test_dt_dyn_push_and_pop_of_one_value_differ(values, data):
    n = len(values)
    kinds = data.draw(st.lists(st.sampled_from(["push", "pop"]), min_size=n, max_size=n))
    t1 = [TraceEvent(k, v) for k, v in zip(kinds, values)]
    t2 = [TraceEvent("pop" if k == "push" else "push", v) for k, v in zip(kinds, values)]
    assert dt_dyn(trace_of(t1), trace_of(t2)) == dtw_reference(
        _event_strings(t1), _event_strings(t2)) > 0


@settings(max_examples=300, deadline=None)
@given(events, events)
def test_trace_codes_equal_iff_events_equal(e1, e2):
    c1, c2 = trace_tokens(trace_of([e1, e2]))
    assert (c1 == c2) == (e1 == e2)


def test_trace_codes_of_corner_events_are_distinct():
    evs = [TraceEvent(k, v) for k in ("push", "pop") for v in
           (INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX)]
    codes = trace_tokens(trace_of(evs))
    assert codes.dtype == np.int64 and len(set(codes.tolist())) == len(evs)
    assert trace_tokens(trace_of([])).shape == (0,)


@pytest.mark.parametrize("n,m", [(3, 7), (7, 3), (5, 5), (1, 9), (9, 1)])
def test_dtw_same_cost_on_codes_and_strings(n, m):
    import random

    rng = random.Random(n * 31 + m)
    for _ in range(50):
        a = [rng.choice("ABC") for _ in range(n)]
        b = [rng.choice("ABC") for _ in range(m)]
        got = dtw(codes(a), codes(b))
        assert got.cost == dtw_reference(a, b)
        assert (got.len_a, got.len_b) == (n, m)


def test_dtw_empty_code_arrays():
    empty, three = np.zeros(0, dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)
    assert dtw(empty, empty) == DtwResult(cost=0, len_a=0, len_b=0)
    assert dtw(empty, three) == DtwResult(cost=3, len_a=0, len_b=3)
    assert dtw(three, empty) == DtwResult(cost=3, len_a=3, len_b=0)


def test_cell_dtype_holds_every_value():
    """Row values stay within +-(n + m), so int32 serves below 2**31 and
    int64 above; checked at the boundary without allocating."""
    for n, m in [(1, 1), (2**30, 2**30 - 1), (2**31 - 2, 1), (2**30, 2**30), (2**40, 3)]:
        info = np.iinfo(cell_dtype(n, m))
        assert info.min <= -(n + m) and n + m <= info.max
    assert cell_dtype(2**31 - 2, 1) is np.int32
    assert cell_dtype(2**31 - 1, 1) is np.int64


def test_dtw_cells_reach_the_border_value():
    """All-mismatch pairs drive the cost to max(n, m), the largest cell."""
    for n, m in [(1, 1), (4, 9), (9, 4), (300, 17)]:
        assert dtw(codes("x" * n), codes("y" * m)).cost == max(n, m)
