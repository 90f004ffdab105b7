import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crow.interp import TraceEvent
from crow.metrics import (
    cell_dtype,
    dt_dyn,
    dt_static,
    dtw,
    tokenize,
    trace_tokens,
)
from crow.wat import INT32_MAX, INT32_MIN, parse_module

from dtw_oracle import dtw_diagonal, dtw_reference

tokens = st.lists(st.sampled_from("ABC"), max_size=12)


def test_dtw_identity():
    assert dtw(list("ABCAB"), list("ABCAB")).cost == 0


def test_dtw_deletion_costs_one():
    assert dtw(list("ABC"), list("AC")).cost == 1


def test_dtw_swap_costs_two():
    assert dtw(list("AB"), list("BA")).cost == 2


def test_dtw_empty_cases():
    assert dtw([], []).cost == 0
    assert dtw([], list("ABC")).cost == 3
    assert dtw(list("AB"), []).cost == 2


def test_dtw_records_lengths():
    r = dtw(list("ABC"), list("ABCD"))
    assert (r.len_a, r.len_b) == (3, 4)


@settings(max_examples=300, deadline=None)
@given(tokens, tokens)
def test_dtw_matches_reference(a, b):
    assert dtw(a, b).cost == dtw_reference(a, b)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_dtw_symmetric_nonnegative(a, b):
    c = dtw(a, b).cost
    assert c >= 0
    assert c == dtw(b, a).cost


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
            zero = dtw(a, b).cost == 0
            assert zero == (_collapse(a) == _collapse(b)), (a, b)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_zero_iff_run_collapse_equal_random(a, b):
    assert (dtw(a, b).cost == 0) == (_collapse(a) == _collapse(b))


def test_novel_token_append_costs_exactly_one():
    for base in (list("AAB"), list("ABCABC"), ["x"]):
        assert dtw(base, base + ["Z"]).cost == dtw_reference(base, base + ["Z"]) == 1


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
    assert dtw(a, b).cost == dtw_diagonal(a, b)


# --- module / trace wrappers -----------------------------------------------------


def test_tokenize_mul_add(mul_add_module):
    assert tokenize(mul_add_module)[:5] == [
        "local.get 0",
        "local.get 0",
        "i32.const 2",
        "i32.mul",
        "i32.add",
    ]
    assert tokenize(mul_add_module)[5:] == ["i32.const 10", "call 0"]


def test_tokenize_empty_module():
    assert tokenize(parse_module("(module)")) == []


def test_dt_static_self_is_zero(mul_add_module):
    assert dt_static(mul_add_module, mul_add_module) == 0


def test_dt_static_differs_for_shl_variant(mul_add_text):
    variant = mul_add_text.replace("i32.const 2", "i32.const 1").replace("i32.mul", "i32.shl")
    assert dt_static(parse_module(mul_add_text), parse_module(variant)) > 0


def test_dt_static_unrelated_modules():
    m1 = parse_module("(module (func (result i32) i32.const 1))")
    m2 = parse_module("(module (func (result i32) i32.const 2 i32.const 3 i32.add))")
    assert dt_static(m1, m2) > 0


def test_dt_dyn_identical_zero():
    t = [TraceEvent("push", 1), TraceEvent("pop", 1)]
    assert dt_dyn(t, t) == 0


def test_dt_dyn_value_sensitivity():
    t1 = [TraceEvent("push", 10)]
    t2 = [TraceEvent("push", 20)]
    assert dt_dyn(t1, t2) == 1


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
    assert dt_dyn(t1, t2) == dtw_reference(_event_strings(t1), _event_strings(t2))


@settings(max_examples=100, deadline=None)
@given(st.lists(corner_values, min_size=1, max_size=6), st.data())
def test_dt_dyn_push_and_pop_of_one_value_differ(values, data):
    n = len(values)
    kinds = data.draw(st.lists(st.sampled_from(["push", "pop"]), min_size=n, max_size=n))
    t1 = [TraceEvent(k, v) for k, v in zip(kinds, values)]
    t2 = [TraceEvent("pop" if k == "push" else "push", v) for k, v in zip(kinds, values)]
    assert dt_dyn(t1, t2) == dtw_reference(_event_strings(t1), _event_strings(t2)) > 0


@settings(max_examples=300, deadline=None)
@given(events, events)
def test_trace_codes_equal_iff_events_equal(e1, e2):
    c1, c2 = trace_tokens([e1, e2])
    assert (c1 == c2) == (e1 == e2)


def test_trace_codes_of_corner_events_are_distinct():
    evs = [TraceEvent(k, v) for k in ("push", "pop") for v in
           (INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX)]
    codes = trace_tokens(evs)
    assert codes.dtype == np.int64 and len(set(codes.tolist())) == len(evs)
    assert trace_tokens([]).shape == (0,)


@pytest.mark.parametrize("n,m", [(3, 7), (7, 3), (5, 5), (1, 9), (9, 1)])
def test_dtw_same_cost_on_codes_and_strings(n, m):
    import random

    rng = random.Random(n * 31 + m)
    codes = lambda seq: np.array([ord(t) for t in seq], dtype=np.int64)
    for _ in range(50):
        a = [rng.choice("ABC") for _ in range(n)]
        b = [rng.choice("ABC") for _ in range(m)]
        got = dtw(codes(a), codes(b))
        assert got == dtw(a, b)
        assert got.cost == dtw_reference(a, b)
        assert (got.len_a, got.len_b) == (n, m)


def test_dtw_empty_code_arrays():
    empty, three = np.zeros(0, dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)
    assert dtw(empty, empty) == dtw([], [])
    assert dtw(empty, three) == dtw([], list("ABC"))
    assert dtw(three, empty) == dtw(list("ABC"), [])
    assert (dtw(three, empty).len_a, dtw(three, empty).len_b) == (3, 0)


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
        assert dtw(["x"] * n, ["y"] * m).cost == max(n, m)
