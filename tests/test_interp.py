import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crow.interp import (
    DEFAULT_FUEL,
    InvokeError,
    Outcome,
    TraceEvent,
    TraceFormatError,
    instantiate,
    invoke,
    read_trace,
    write_trace,
)
from crow.metrics import trace_tokens
from crow.wat import (
    IMM_INDEX, IMM_NONE, IMM_VALUE, INSTRUCTIONS, INT32_MAX, INT32_MIN, parse_module,
)

import interp_oracle
from strategies import int32s, modules
from traceutil import trace_of


def run(text, name="main", args=(), fuel=DEFAULT_FUEL):
    state = instantiate(parse_module(text), fuel=fuel)
    return invoke(state, name, list(args))


def test_mul_add_result_and_exact_trace(mul_add_text):
    outcome, trace = run(mul_add_text)
    assert outcome == Outcome.result(30)
    assert [(e.kind, e.value) for e in trace] == [
        ("push", 10),
        ("pop", 10),
        ("push", 10),
        ("push", 10),
        ("push", 2),
        ("pop", 2),
        ("pop", 10),
        ("push", 20),
        ("pop", 20),
        ("pop", 10),
        ("push", 30),
        ("pop", 30),
        ("push", 30),
    ]


def test_const_function():
    outcome, trace = run('(module (func (result i32) i32.const 5) (export "main" (func 0)))')
    assert outcome == Outcome.result(5)
    assert trace == [TraceEvent("push", 5)]


def test_div_by_zero_trap_trace_prefix():
    outcome, trace = run(
        '(module (func (result i32) i32.const 1 i32.const 0 i32.div_u) (export "main" (func 0)))'
    )
    assert outcome == Outcome.trap("div-by-zero")
    assert [(e.kind, e.value) for e in trace] == [
        ("push", 1), ("push", 0), ("pop", 0), ("pop", 1),
    ]


def test_div_s_overflow_traps_and_rem_s_does_not():
    text = """(module
      (func (result i32) i32.const -2147483648 i32.const -1 i32.div_s)
      (func (result i32) i32.const -2147483648 i32.const -1 i32.rem_s)
      (export "div" (func 0)) (export "rem" (func 1)))"""
    state = instantiate(parse_module(text))
    outcome, _ = invoke(state, "div", [])
    assert outcome == Outcome.trap("integer-overflow")
    outcome, _ = invoke(instantiate(parse_module(text)), "rem", [])
    assert outcome == Outcome.result(0)


def test_truncating_signed_division():
    text = """(module (func (param i32 i32) (result i32)
                 local.get 0 local.get 1 i32.div_s)
               (export "run" (func 0)))"""
    assert run(text, "run", [-7, 2])[0] == Outcome.result(-3)
    assert run(text, "run", [7, -2])[0] == Outcome.result(-3)
    assert run(text, "run", [-7, -2])[0] == Outcome.result(3)


def test_memory_roundtrip_and_bounds():
    text = """(module (memory 1)
      (func (result i32)
        i32.const 8
        i32.const -42
        i32.store
        i32.const 8
        i32.load)
      (export "main" (func 0)))"""
    assert run(text)[0] == Outcome.result(-42)
    oob = """(module (memory 0)
      (func (result i32) i32.const 0 i32.load)
      (export "main" (func 0)))"""
    assert run(oob)[0] == Outcome.trap("out-of-bounds")


def test_globals():
    text = """(module
      (global (mut i32) (i32.const 7))
      (func (result i32)
        global.get 0
        i32.const 3
        i32.add
        global.set 0
        global.get 0)
      (export "main" (func 0)))"""
    assert run(text)[0] == Outcome.result(10)


def test_instantiate_memory_pages():
    state = instantiate(parse_module("(module (memory 1))"))
    assert len(state.memory) == 65536 and all(b == 0 for b in state.memory[:64])


def test_instantiate_global_init():
    state = instantiate(parse_module("(module (global (mut i32) (i32.const 7)))"))
    assert state.globals == [7]


def test_unknown_export():
    with pytest.raises(InvokeError):
        run("(module)", "nope")


def test_arity_mismatch():
    text = '(module (func (param i32)) (export "f" (func 0)))'
    with pytest.raises(InvokeError):
        run(text, "f", [1, 2])


def test_loop_sum():
    text = """(module
      (func (param i32) (result i32) (local i32 i32)
        block
          local.get 0
          i32.eqz
          br_if 0
          loop
            local.get 1
            i32.const 1
            i32.add
            local.set 1
            local.get 2
            local.get 1
            i32.add
            local.set 2
            local.get 1
            local.get 0
            i32.lt_s
            br_if 0
          end
        end
        local.get 2)
      (export "run" (func 0)))"""
    assert run(text, "run", [10])[0] == Outcome.result(55)
    assert run(text, "run", [0])[0] == Outcome.result(0)


def test_if_else_branches():
    text = """(module
      (func (param i32) (result i32) (local i32)
        local.get 0
        if
          i32.const 1
          local.set 1
        else
          i32.const 2
          local.set 1
        end
        local.get 1)
      (export "run" (func 0)))"""
    assert run(text, "run", [5])[0] == Outcome.result(1)
    assert run(text, "run", [0])[0] == Outcome.result(2)


def test_br_discards_values_with_pop_events():
    text = """(module
      (func (result i32)
        block
          i32.const 5
          br 0
        end
        i32.const 9)
      (export "main" (func 0)))"""
    outcome, trace = run(text)
    assert outcome == Outcome.result(9)
    assert [(e.kind, e.value) for e in trace] == [
        ("push", 5), ("pop", 5), ("push", 9),
    ]


def test_unreachable_trap():
    assert run('(module (func unreachable) (export "main" (func 0)))')[0] == Outcome.trap(
        "unreachable"
    )


def test_fuel_exhaustion():
    text = """(module
      (func (local i32)
        loop
          local.get 0
          i32.const 1
          i32.add
          local.set 0
          br 0
        end)
      (export "main" (func 0)))"""
    outcome, trace = run(text, fuel=10)
    assert outcome == Outcome.fuel_exhausted()
    assert len(trace) == 10


def test_fuel_counts_events_not_instructions():
    # 6 events: push/pop through two iterations plus the exiting branch pop
    text = """(module
      (func (local i32)
        loop
          local.get 0
          i32.eqz
          local.set 0
          local.get 0
          br_if 0
        end)
      (export "main" (func 0)))"""
    outcome, trace = run(text)
    assert outcome == Outcome.result(None)


@pytest.mark.parametrize("body", ["nop br 0", "block br 1 end"])
def test_eventless_loop_ends_at_once(body):
    """A branch back to a loop whose iteration emitted no event would repeat
    it forever, so the run ends as fuel-exhausted well before the
    instruction ceiling."""
    m = parse_module(f'(module (func loop {body} end) (export "main" (func 0)))')
    state = instantiate(m, fuel=10**6)
    assert invoke(state, "main", []) == (Outcome.fuel_exhausted(), [])
    assert state.instructions_executed < 10


def test_eventless_call_tree_hits_instruction_ceiling():
    """No loop and no event: 22 functions, each calling the next twice, run
    about 2^23 instructions, past the ceiling of 16 * 100 + 10^6."""
    funcs = " ".join(f"(func call {i + 1} call {i + 1})" for i in range(21))
    m = parse_module(f'(module {funcs} (func) (export "main" (func 0)))')
    state = instantiate(m, fuel=100)
    assert invoke(state, "main", []) == (Outcome.fuel_exhausted(), [])
    assert state.instructions_executed > state.instruction_ceiling


# Each program reaches every exit the fuel checks guard: call argument
# transfer and return unwinding, br/br_if unwinding and a loop back-edge,
# both if arms with local.tee and select, and a trap after the last event.
_IF_ELSE = """(module
  (func (param i32) (result i32) (local i32)
    local.get 0
    if i32.const 10 local.tee 1 drop else i32.const 20 local.set 1 end
    local.get 1 i32.const 7 local.get 0 select)
  (export "main" (func 0)))"""
_FUEL_PROGRAMS = {
    "call-return": ("""(module
      (func (param i32 i32) (result i32)
        local.get 1 local.get 0 local.get 1 i32.sub return)
      (func (result i32) i32.const 9 i32.const 4 call 0 i32.const 1 i32.add)
      (export "main" (func 1)))""", []),
    "br-unwinding": ("""(module
      (func (result i32) (local i32)
        i32.const 3 local.set 0
        block
          loop
            i32.const 1 i32.const 2
            local.get 0 i32.const 1 i32.sub local.tee 0
            i32.eqz br_if 1
            drop drop
            br 0
          end
        end
        block i32.const 5 i32.const 6 br 0 end
        local.get 0)
      (export "main" (func 0)))""", []),
    "then-arm": (_IF_ELSE, [1]),
    "else-arm": (_IF_ELSE, [0]),
    "trap-after-last-event": ("""(module
      (func (param i32) (result i32) local.get 0 i32.const 0 i32.div_s)
      (func (result i32) i32.const 3 call 0)
      (export "main" (func 1)))""", []),
}


@pytest.mark.parametrize("name", sorted(_FUEL_PROGRAMS))
def test_fuel_cuts_the_full_run_at_every_budget(name):
    """At every fuel the run is the full run's prefix, and it ends as the full
    run does only when the fuel covers every event."""
    text, args = _FUEL_PROGRAMS[name]
    full_outcome, full = run(text, args=args)
    assert len(full) > 4 and full_outcome.kind != "fuel-exhausted"
    for fuel in range(len(full) + 2):
        state = instantiate(parse_module(text), fuel=fuel)
        outcome, trace = invoke(state, "main", args)
        assert trace == full[:fuel], fuel
        assert outcome == (full_outcome if fuel >= len(full) else Outcome.fuel_exhausted())
        assert state.fuel == fuel - len(trace)


def test_zero_result_entry_with_return():
    text = """(module
      (func
        i32.const 1
        drop
        return)
      (export "main" (func 0)))"""
    outcome, trace = run(text)
    assert outcome == Outcome.result(None)


def test_determinism(mul_add_text):
    a = run(mul_add_text)
    b = run(mul_add_text)
    assert a == b


# --- trace files -----------------------------------------------------------------


def test_write_trace_format():
    buf = io.StringIO()
    write_trace(trace_of([("push", 10), ("pop", 10)]), Outcome.result(0), buf)
    assert buf.getvalue() == "# crow-trace v1 entry=main\npush 10\npop 10\nresult 0\n"


def test_write_trap_trace():
    buf = io.StringIO()
    write_trace(trace_of([]), Outcome.trap("div-by-zero"), buf, entry="run")
    assert buf.getvalue() == "# crow-trace v1 entry=run\ntrap div-by-zero\n"


@pytest.mark.parametrize("n", [0, 1, 2**16, 2**16 + 1])
def test_trace_file_matches_event_lines(n):
    """Codes are formatted in chunks of 2**16 events; the text must be the
    per-event format at and across a chunk boundary, and read back to the
    same codes."""
    corners = [INT32_MIN, INT32_MAX, -1, 0, 1, INT32_MIN + 1, INT32_MAX - 1]
    events = [(("push", "pop")[i * 7 % 3 == 0], corners[i % 7] if i % 2 else i * 40503 - 2**30)
              for i in range(n)]
    trace = trace_of(events)
    buf = io.StringIO()
    write_trace(trace, Outcome.result(INT32_MIN), buf)
    lines = "".join(f"{k} {v}\n" for k, v in events)
    assert buf.getvalue() == f"# crow-trace v1 entry=main\n{lines}result {INT32_MIN}\n"
    buf.seek(0)
    got, outcome = read_trace(buf)
    assert got.codes == trace.codes and outcome == Outcome.result(INT32_MIN)
    assert trace_tokens(got).tolist() == [2 * v + (k == "push") for k, v in events]


def test_read_rejects_garbage():
    for bad in ("", "push 1\n", "# crow-trace v1\npush\nresult\n",
                "# crow-trace v1\nshove 3\nresult\n", "# crow-trace v1\npush 1\n",
                "# crow-trace v1\npush 1\nresult abc\n",
                "# crow-trace v1\npush 1\nresult 99999999999\n",
                "# crow-trace v1\npush 1\nresult -2147483649\n",
                "# crow-trace v1\npush 1\nresult 1 2\n",
                "# crow-trace v1\npush 1\nfuel-exhausted now\n",
                "# crow-trace v1\npush 1\ntrap\n"):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(bad))


def test_read_rejects_event_values_outside_i32():
    for v in (2**31, -(2**31) - 1, 2**70):
        with pytest.raises(TraceFormatError, match="outside i32"):
            read_trace(io.StringIO(f"# crow-trace v1\npush {v}\nresult\n"))
    edge = "# crow-trace v1\npush 2147483647\npop -2147483648\nresult\n"
    assert read_trace(io.StringIO(edge))[0] == [
        TraceEvent("push", 2**31 - 1), TraceEvent("pop", -(2**31))
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["push", "pop"]), st.integers(-(2**31), 2**31 - 1))),
    st.one_of(
        st.none(),
        st.integers(-(2**31), 2**31 - 1),
        st.sampled_from(["div-by-zero", "unreachable"]),
    ),
)
def test_trace_roundtrip(events, out):
    trace = trace_of(events)
    if out is None:
        outcome = Outcome.fuel_exhausted()
    elif isinstance(out, int):
        outcome = Outcome.result(out)
    else:
        outcome = Outcome.trap(out)
    buf = io.StringIO()
    write_trace(trace, outcome, buf)
    buf.seek(0)
    got_trace, got_outcome = read_trace(buf)
    assert got_trace == trace
    assert got_outcome == outcome


@settings(max_examples=50, deadline=None)
@given(modules())
def test_generated_modules_execute_or_trap(m):
    state = instantiate(m, fuel=50_000)
    for name, idx in m.exports.items():
        f = m.functions[idx]
        outcome, trace = invoke(state, name, [7] * f.params)
        assert outcome.kind in ("result", "trap", "fuel-exhausted")
        depth = 0
        for ev in trace:
            depth += 1 if ev.kind == "push" else -1
            assert depth >= 0


ORACLE_FUEL = 2000  # a generated loop may never exit; its run ends here


@settings(max_examples=200, deadline=None)
@given(modules(), st.data())
def test_invoke_matches_the_structured_oracle(m, data):
    """`invoke` and a direct structured interpreter (interp_oracle) give the
    same outcome and trace codes for every function, at a fuel that ends the
    generated loops and at a fuel drawn inside that run."""
    m = replace(m, exports={f"f{i}": i for i in range(len(m.functions))})
    for name, fn in m.exports.items():
        args = data.draw(st.lists(st.integers(-3, 3) | int32s, min_size=m.functions[fn].params,
                                  max_size=m.functions[fn].params))
        want = interp_oracle.run(m, name, args, ORACLE_FUEL)
        outcome, trace = invoke(instantiate(m, fuel=ORACLE_FUEL), name, args)
        assert (outcome, trace.codes.tolist()) == want
        cut = data.draw(st.integers(0, len(trace)))
        outcome, trace = invoke(instantiate(m, fuel=cut), name, args)
        assert (outcome, trace.codes.tolist()) == interp_oracle.run(m, name, args, cut)


# Bodies for the instructions that need more than constant operands; every
# other instruction runs on i32.const operands, and its results are dropped.
_BODIES = {
    "call": "call 1",
    "block": "block end",
    "loop": "loop end",
    "end": "block end",
    "if": "i32.const 1 if end",
    "else": "i32.const 1 if else end",
    "br": "block br 0 end",
    "br_if": "block i32.const 1 br_if 0 end",
    "return": "return",
}


@pytest.mark.parametrize("mnemonic", sorted(INSTRUCTIONS))
def test_every_instruction_executes(mnemonic):
    # an instruction the interpreter does not implement fails here, not by
    # reaching its AssertionError fallthrough in a real run
    body = _BODIES.get(mnemonic)
    if body is None:
        imm, pops, pushes = INSTRUCTIONS[mnemonic]
        operand = {IMM_NONE: "", IMM_VALUE: " 5", IMM_INDEX: " 0"}[imm]
        body = " ".join(["i32.const 7"] * pops + [mnemonic + operand] + ["drop"] * pushes)
    text = f"""(module (memory 1) (global (mut i32) (i32.const 0))
      (func (local i32) {body}) (func)
      (export "main" (func 0)))"""
    outcome, _ = run(text)
    if mnemonic == "unreachable":
        assert outcome == Outcome.trap("unreachable")
    else:
        assert outcome == Outcome.result(None)
