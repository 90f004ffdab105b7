"""Stack-machine execution with stack-operation tracing.

Every operand-stack mutation emits one trace event: an instruction pops its
operands topmost-first (pop events, so a binary op records [pop rhs, pop lhs,
push result]), then pushes its results. Calls transfer arguments by popping
them in the caller; the callee's result leaves its frame with a pop event and
enters the caller with a push event, which is why a returned call shows a
final pop/push pair with the same value. Values discarded by br/return
unwinding also emit pop events. Locals, globals, and memory writes are not
events.

A trace is an int64 code buffer (`array('q')`, 8 bytes per event): event i
is the code 2*value + 1 for a push and 2*value for a pop, so two codes are
equal exactly when the events are, and the DTW layer reads the buffer as it
is. `Trace` wraps the buffer and shows its codes as `TraceEvent`s. Trace files
keep the `push N`/`pop N` line format; codes are converted at the file
boundary only.

`instantiate` decodes each function body once into (opcode, immediate,
target) triples. Branch targets, and the stack height a branch unwinds to,
come from the body shape that validation computes (`wat.analyze_body`): the
`end` or `else` of each frame, the frame each branch targets and that
frame's entry height (blocks are void). So block, end and nop do no work at
run time. One dispatch loop runs every frame of an invocation.

Fuel counts trace events. The loop records events without testing the fuel;
it compares the trace length with the fuel at loop back-edges, calls,
returns and every exit (result, trap, instruction ceiling). A run that
recorded more events than its fuel is cut to the fuel and reports
fuel-exhausted: execution is deterministic, so this is the trace and outcome
of a run stopped at its first event past the fuel. Between two checks the
loop runs at most one function body's worth of instructions, whose writes to
globals and memory stay. No later run on the same state can observe them:
its fuel is then 0, and reading a global or memory is an event.

Every state change emits an event, so a branch back to a loop whose last
iteration emitted none repeats that iteration forever; it ends the run as
fuel-exhausted at once. A generous instruction ceiling, tested on every
instruction, backs this up so event-free call trees cannot hang the
interpreter either.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ir import OP_TO_MNEMONIC, PURE_OPS, SEMANTICS, width_constants
from .wat import (
    INT32_MAX, INT32_MIN, BodyShape, FuncDef, Module, analyze_body, validate, wrap_i32,
)

DEFAULT_FUEL = 50_000_000
MAX_CALL_DEPTH = 256


class TraceEvent(NamedTuple):
    kind: str  # 'push' | 'pop'
    value: int


def _event(code: int) -> TraceEvent:
    return TraceEvent("push" if code & 1 else "pop", code >> 1)


class Trace:
    """A read-only view of an int64 code buffer as a sequence of events.

    Indexing gives a `TraceEvent`, a slice gives a list of them, and a trace
    equals another trace with the same codes or a list of the same events.
    `codes` is the buffer itself."""

    __slots__ = ("codes",)

    def __init__(self, codes: array):
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(_event, self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_event(c) for c in self.codes[i]]
        return _event(self.codes[i])

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.codes == other.codes
        if isinstance(other, list):
            return len(other) == len(self.codes) and list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        head = ", ".join(f"{k} {v}" for k, v in self[:8])
        return f"Trace({len(self)} events: {head}{', ...' if len(self) > 8 else ''})"


@dataclass(frozen=True)
class Outcome:
    kind: str  # 'result' | 'trap' | 'fuel-exhausted'
    value: int | None = None
    reason: str | None = None

    @classmethod
    def result(cls, value: int | None) -> "Outcome":
        return cls("result", value=value)

    @classmethod
    def trap(cls, reason: str) -> "Outcome":
        return cls("trap", reason=reason)

    @classmethod
    def fuel_exhausted(cls) -> "Outcome":
        return cls("fuel-exhausted")

    def __str__(self):
        if self.kind == "result":
            return "result" if self.value is None else f"result {self.value}"
        if self.kind == "trap":
            return f"trap {self.reason}"
        return "fuel-exhausted"


class InvokeError(ValueError):
    """Unknown export or argument arity mismatch."""


class TraceFormatError(ValueError):
    pass


class _Trap(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _FuelExhausted(Exception):
    pass


def _u32(v: int) -> int:
    return v & 0xFFFFFFFF


def _div_s(a: int, b: int) -> int:
    if a == INT32_MIN and b == -1:
        raise _Trap("integer-overflow")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem_s(a: int, b: int) -> int:
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# The trapping ops, over signed i32 operands with a nonzero divisor; every
# other value op comes from the semantics table.
_TRAPPING = {
    "i32.div_s": _div_s,
    "i32.div_u": lambda a, b: wrap_i32(_u32(a) // _u32(b)),
    "i32.rem_s": _rem_s,
    "i32.rem_u": lambda a, b: wrap_i32(_u32(a) % _u32(b)),
}
_I32 = width_constants(32)

# Opcodes of the decoded form. A decoded instruction is (opcode, a, b):
# LOCAL_*/GLOBAL_*: a = index; CONST: a = value, b = its push code;
# UNARY/BINARY/TERNARY: a = semantics function; DIVIDE: a = trapping function;
# CALL: a = callee; LOOP: b = body start; IF: b = first instruction of the
# false arm (past `else`, or past `end`); ELSE: b = the matching `end`;
# BR*: a = stack height of the target frame, b = where execution continues.
(LOCAL_GET, CONST, BINARY, LOCAL_SET, NOP, LOCAL_TEE, BR_IF_LOOP, BR_IF, BR,
 BR_LOOP, IF, ELSE, LOOP, UNARY, TERNARY, DIVIDE, GLOBAL_GET, GLOBAL_SET, LOAD,
 STORE, DROP, CALL, RETURN, EXIT, UNREACHABLE) = range(25)


# mnemonic -> (opcode, a) for every instruction whose decoded form does not
# depend on its position; a None `a` takes the instruction's immediate.
_STRAIGHT = {
    mn: (op, None)
    for mn, op in (
        ("local.get", LOCAL_GET), ("local.set", LOCAL_SET), ("local.tee", LOCAL_TEE),
        ("global.get", GLOBAL_GET), ("global.set", GLOBAL_SET), ("i32.load", LOAD),
        ("i32.store", STORE), ("drop", DROP), ("nop", NOP), ("block", NOP), ("end", NOP),
        ("call", CALL), ("return", RETURN), ("unreachable", UNREACHABLE),
    )
}
_STRAIGHT.update(
    (mn, ((UNARY, BINARY, TERNARY)[PURE_OPS[op] - 1], SEMANTICS[op].fn))
    for op, mn in OP_TO_MNEMONIC.items()
)
_STRAIGHT.update((mn, (DIVIDE, fn)) for mn, fn in _TRAPPING.items())


class _Function(NamedTuple):
    code: tuple[tuple, ...]  # decoded body, closed by an EXIT sentinel
    params: int
    results: int
    locals: int


def _decode(f: FuncDef, shape: BodyShape) -> _Function:
    """Decodes a validated body, taking its control targets from `shape`. A
    branch unwinds to the entry height of the frame it targets and continues
    at that frame's `end`, or at the body of a loop."""
    code = []
    for i, ins in enumerate(f.body):
        mn, imm = ins.mnemonic, ins.immediate
        straight = _STRAIGHT.get(mn)
        if straight is not None:
            op, a = straight
            code.append((op, imm if a is None else a, None))
        elif mn == "i32.const":
            code.append((CONST, imm, 2 * imm + 1))
        elif mn == "loop":
            code.append((LOOP, None, i + 1))
        elif mn == "if":
            code.append((IF, None, shape.else_of.get(i, shape.end_of[i]) + 1))
        elif mn == "else":
            code.append((ELSE, None, shape.end_of[i]))
        else:  # br, br_if
            opener = shape.target_of[i]
            loop = f.body[opener].mnemonic == "loop"
            op = (BR_LOOP if loop else BR) if mn == "br" else (BR_IF_LOOP if loop else BR_IF)
            target = opener + 1 if loop else shape.end_of[opener] + 1
            code.append((op, shape.base[opener + 1], target))
    code.append((EXIT, None, None))
    return _Function(tuple(code), f.params, f.results, f.locals)


@dataclass
class MachineState:
    module: Module
    globals: list[int]
    memory: bytearray
    fuel: int
    instruction_ceiling: int
    functions: list[_Function] = field(default_factory=list)
    instructions_executed: int = 0


def instantiate(m: Module, fuel: int = DEFAULT_FUEL) -> MachineState:
    """Globals initialized, memory zero-filled, function bodies decoded."""
    diags = validate(m)
    if diags:
        raise ValueError(f"module does not validate: {diags[0]}")
    return MachineState(
        module=m,
        globals=[g.init for g in m.globals],
        memory=bytearray((m.memory or 0) * 65536),
        fuel=fuel,
        instruction_ceiling=fuel * 16 + 1_000_000,
        functions=[_decode(f, analyze_body(f, m, i, diags)) for i, f in enumerate(m.functions)],
    )


def _execute(state: MachineState, codes: array, fn_index: int, locals_: list[int],
             fuel: int) -> int | None:
    """Runs one entry function to its result, appending event codes to
    `codes`; raises _Trap or _FuelExhausted to end the run otherwise. May
    record events past `fuel` (see the module docstring)."""
    functions = state.functions
    globals_ = state.globals
    memory = state.memory
    ceiling = state.instruction_ceiling
    n = state.instructions_executed
    append = codes.append
    k32 = _I32
    frames: list[tuple] = []  # the callers' (code, resume ip, stack, locals, marks, results)
    code, _, results, _ = functions[fn_index]
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    marks: dict[int, int] = {}  # loop body start -> trace length when its iteration began
    ip = 0
    try:
        while True:
            op, a, b = code[ip]
            n += 1
            if n > ceiling and op != EXIT:
                raise _FuelExhausted()
            if op == LOCAL_GET:
                v = locals_[a]
                push(v)
                append(v + v + 1)
            elif op == CONST:
                push(a)
                append(b)
            elif op == BINARY:
                y = pop()
                x = stack[-1]
                r = a(k32, x & 0xFFFFFFFF, y & 0xFFFFFFFF)
                if r > 0x7FFFFFFF:
                    r -= 0x100000000
                stack[-1] = r
                append(y + y)
                append(x + x)
                append(r + r + 1)
            elif op == LOCAL_SET:
                v = pop()
                locals_[a] = v
                append(v + v)
            elif op == NOP:
                pass
            elif op == LOCAL_TEE:
                v = stack[-1]
                locals_[a] = v
                append(v + v)
                append(v + v + 1)
            elif op == BR_IF_LOOP or op == BR_LOOP:
                if op == BR_IF_LOOP:
                    v = pop()
                    append(v + v)
                    if not v:
                        ip += 1
                        continue
                while len(stack) > a:
                    v = pop()
                    append(v + v)
                t = len(codes)
                if t > fuel or marks[b] == t:
                    raise _FuelExhausted()
                marks[b] = t
                ip = b
                continue
            elif op == BR_IF or op == BR:
                if op == BR_IF:
                    v = pop()
                    append(v + v)
                    if not v:
                        ip += 1
                        continue
                while len(stack) > a:
                    v = pop()
                    append(v + v)
                ip = b
                continue
            elif op == IF:
                v = pop()
                append(v + v)
                if not v:
                    ip = b
                    continue
            elif op == ELSE:  # the then-arm finished
                ip = b
                continue
            elif op == LOOP:
                marks[b] = len(codes)
            elif op == UNARY:
                x = stack[-1]
                r = a(k32, x & 0xFFFFFFFF)
                if r > 0x7FFFFFFF:
                    r -= 0x100000000
                stack[-1] = r
                append(x + x)
                append(r + r + 1)
            elif op == TERNARY:
                z = pop()
                y = pop()
                x = stack[-1]
                r = a(k32, x & 0xFFFFFFFF, y & 0xFFFFFFFF, z & 0xFFFFFFFF)
                if r > 0x7FFFFFFF:
                    r -= 0x100000000
                stack[-1] = r
                append(z + z)
                append(y + y)
                append(x + x)
                append(r + r + 1)
            elif op == DIVIDE:
                y = pop()
                x = stack[-1]
                append(y + y)
                append(x + x)
                if y == 0:
                    raise _Trap("div-by-zero")
                r = a(x, y)
                stack[-1] = r
                append(r + r + 1)
            elif op == GLOBAL_GET:
                v = globals_[a]
                push(v)
                append(v + v + 1)
            elif op == GLOBAL_SET:
                v = pop()
                globals_[a] = v
                append(v + v)
            elif op == LOAD:
                v = pop()
                append(v + v)
                addr = v & 0xFFFFFFFF
                if addr + 4 > len(memory):
                    raise _Trap("out-of-bounds")
                v = wrap_i32(int.from_bytes(memory[addr : addr + 4], "little"))
                push(v)
                append(v + v + 1)
            elif op == STORE:
                v = pop()
                append(v + v)
                addr = pop()
                append(addr + addr)
                addr &= 0xFFFFFFFF
                if addr + 4 > len(memory):
                    raise _Trap("out-of-bounds")
                memory[addr : addr + 4] = (v & 0xFFFFFFFF).to_bytes(4, "little")
            elif op == DROP:
                v = pop()
                append(v + v)
            elif op == CALL:
                callee = functions[a]
                args = []
                for _ in range(callee.params):
                    v = pop()
                    append(v + v)
                    args.append(v)
                if len(frames) >= MAX_CALL_DEPTH:
                    raise _Trap("call-depth")
                if len(codes) > fuel:
                    raise _FuelExhausted()
                frames.append((code, ip + 1, stack, locals_, marks, results))
                code, _, results, _ = callee
                args.reverse()
                locals_ = args + [0] * callee.locals
                stack = []
                push, pop = stack.append, stack.pop
                marks = {}
                ip = 0
                continue
            elif op == RETURN or op == EXIT:
                if op == EXIT:
                    n -= 1  # the sentinel is not an instruction
                    if not frames:
                        return stack[-1] if results else None
                v = None
                if results:
                    v = pop()
                    append(v + v)
                while stack:  # left only by `return`
                    w = pop()
                    append(w + w)
                if not frames:  # the entry frame keeps its result
                    if v is not None:
                        append(v + v + 1)
                    return v
                if len(codes) > fuel:
                    raise _FuelExhausted()
                code, ip, stack, locals_, marks, results = frames.pop()
                push, pop = stack.append, stack.pop
                if v is not None:
                    push(v)
                    append(v + v + 1)
                continue
            elif op == UNREACHABLE:
                raise _Trap("unreachable")
            else:  # pragma: no cover
                raise AssertionError(op)
            ip += 1
    finally:
        state.instructions_executed = n


def invoke(state: MachineState, export_name: str, args: list[int]) -> tuple[Outcome, Trace]:
    """Runs one export to completion; deterministic given module and args."""
    if export_name not in state.module.exports:
        raise InvokeError(f"unknown export {export_name!r}")
    fn_index = state.module.exports[export_name]
    f = state.module.functions[fn_index]
    if len(args) != f.params:
        raise InvokeError(f"{export_name!r} takes {f.params} argument(s), got {len(args)}")
    codes = array("q")
    fuel = max(state.fuel, 0)
    locals_ = [wrap_i32(a) for a in args] + [0] * f.locals
    try:
        outcome = Outcome.result(_execute(state, codes, fn_index, locals_, fuel))
    except _Trap as t:
        outcome = Outcome.trap(t.reason)
    except _FuelExhausted:
        outcome = Outcome.fuel_exhausted()
    if len(codes) > fuel:
        del codes[fuel:]
        outcome = Outcome.fuel_exhausted()
    state.fuel -= len(codes)
    return outcome, Trace(codes)


# --- trace files ---------------------------------------------------------------

TRACE_HEADER = "# crow-trace v1"
_WRITE_CHUNK = 1 << 16  # events formatted per write, bounding the text held at once
_KIND = ("pop ", "push ")


def write_trace(trace: Trace, outcome: Outcome, sink, entry: str = "main") -> None:
    """Line format: header, one `push N`/`pop N` per event, one terminator."""
    sink.write(f"{TRACE_HEADER} entry={entry}\n")
    codes = np.frombuffer(trace.codes, dtype=np.int64)
    for start in range(0, len(codes), _WRITE_CHUNK):
        chunk = codes[start : start + _WRITE_CHUNK]
        kinds, values = (chunk & 1).tolist(), (chunk >> 1).tolist()
        sink.write("".join([f"{_KIND[k]}{v}\n" for k, v in zip(kinds, values)]))
    sink.write(f"{outcome}\n")


def _i32_field(token: str, ln: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise TraceFormatError(f"malformed value: {ln!r}") from None
    if not INT32_MIN <= value <= INT32_MAX:
        raise TraceFormatError(f"value outside i32: {ln!r}")
    return value


def read_trace(source) -> tuple[Trace, Outcome]:
    """Parses a trace file from `source`, an iterable of lines, holding only
    the code buffer and one line at a time."""
    lines = (ln.rstrip("\n") for ln in source)
    if not next(lines, "").startswith(TRACE_HEADER):
        raise TraceFormatError("missing trace header")
    codes = array("q")
    outcome: Outcome | None = None
    for ln in lines:
        if not ln.strip():
            continue
        if outcome is not None:
            raise TraceFormatError(f"content after terminator: {ln!r}")
        kind, *rest = ln.split()
        if kind in ("push", "pop"):
            if len(rest) != 1:
                raise TraceFormatError(f"malformed event: {ln!r}")
            codes.append(2 * _i32_field(rest[0], ln) + (kind == "push"))
        elif kind == "result" and len(rest) <= 1:
            outcome = Outcome.result(_i32_field(rest[0], ln) if rest else None)
        elif kind == "trap" and rest:
            outcome = Outcome.trap(" ".join(rest))
        elif kind == "fuel-exhausted" and not rest:
            outcome = Outcome.fuel_exhausted()
        else:
            raise TraceFormatError(f"unrecognized line: {ln!r}")
    if outcome is None:
        raise TraceFormatError("missing terminator line")
    return Trace(codes), outcome
