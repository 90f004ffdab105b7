"""Stack-machine execution with stack-operation tracing.

Every operand-stack mutation emits one trace event: an instruction pops its
operands topmost-first (pop events, so a binary op records [pop rhs, pop lhs,
push result]), then pushes its results. Calls transfer arguments by popping
them in the caller; the callee's result leaves its frame with a pop event and
enters the caller with a push event, which is why a returned call shows a
final pop/push pair with the same value. Values discarded by br/return
unwinding also emit pop events. Locals, globals, and memory writes are not
events.

Fuel counts trace events; execution stops with a fuel-exhausted outcome when
it runs out. Every state change emits an event, so a branch back to a loop
whose last iteration emitted none repeats that iteration forever; it ends the
run as fuel-exhausted at once. A generous instruction ceiling backs this up
so event-free call trees cannot hang the interpreter either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .ir import OP_TO_MNEMONIC, PURE_OPS, SEMANTICS, width_constants
from .wat import INT32_MAX, INT32_MIN, Instr, Module, validate, wrap_i32

DEFAULT_FUEL = 50_000_000


class TraceEvent(NamedTuple):
    kind: str  # 'push' | 'pop'
    value: int


Trace = list[TraceEvent]


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


def _match_control(body: tuple[Instr, ...]):
    """Maps each block/loop/if site to its end (and else) site."""
    end_of: dict[int, int] = {}
    else_of: dict[int, int] = {}
    stack: list[int] = []
    for i, ins in enumerate(body):
        if ins.mnemonic in ("block", "loop", "if"):
            stack.append(i)
        elif ins.mnemonic == "else":
            else_of[stack[-1]] = i
        elif ins.mnemonic == "end":
            end_of[stack.pop()] = i
    return end_of, else_of


@dataclass
class MachineState:
    module: Module
    globals: list[int]
    memory: bytearray
    fuel: int
    instruction_ceiling: int
    control: list[tuple[dict[int, int], dict[int, int]]] = field(default_factory=list)
    instructions_executed: int = 0


def instantiate(m: Module, fuel: int = DEFAULT_FUEL) -> MachineState:
    """Globals initialized, memory zero-filled, control structure indexed."""
    diags = validate(m)
    if diags:
        raise ValueError(f"module does not validate: {diags[0]}")
    return MachineState(
        module=m,
        globals=[g.init for g in m.globals],
        memory=bytearray((m.memory or 0) * 65536),
        fuel=fuel,
        instruction_ceiling=fuel * 16 + 1_000_000,
        control=[_match_control(f.body) for f in m.functions],
    )


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
_PURE = {mn: (SEMANTICS[op].fn, PURE_OPS[op]) for op, mn in OP_TO_MNEMONIC.items()}
_I32 = width_constants(32)


def _run(state: MachineState, fn_index: int, locals_: list[int], trace: Trace,
         depth: int, entry: bool) -> int | None:
    if depth > 256:
        raise _Trap("call-depth")
    module = state.module
    f = module.functions[fn_index]
    body = f.body
    end_of, else_of = state.control[fn_index]
    stack: list[int] = []
    # (kind, entry depth, site, fuel when a loop's iteration began) per open frame
    ctrl: list[tuple[str, int, int, int]] = []

    def push(v: int):
        if state.fuel <= 0:
            raise _FuelExhausted()
        state.fuel -= 1
        trace.append(TraceEvent("push", v))
        stack.append(v)

    def pop() -> int:
        if state.fuel <= 0:
            raise _FuelExhausted()
        state.fuel -= 1
        v = stack.pop()
        trace.append(TraceEvent("pop", v))
        return v

    def leave(value: int | None):
        """Transfer on function exit; entry frames keep the final push."""
        while stack:
            pop()
        if entry and value is not None:
            push(value)
        return value

    ip = 0
    while ip < len(body):
        state.instructions_executed += 1
        if state.instructions_executed > state.instruction_ceiling:
            raise _FuelExhausted()
        ins = body[ip]
        m = ins.mnemonic
        if m == "i32.const":
            push(ins.immediate)
        elif m == "local.get":
            push(locals_[ins.immediate])
        elif m == "local.set":
            locals_[ins.immediate] = pop()
        elif m == "local.tee":
            v = pop()
            locals_[ins.immediate] = v
            push(v)
        elif m == "global.get":
            push(state.globals[ins.immediate])
        elif m == "global.set":
            state.globals[ins.immediate] = pop()
        elif m == "i32.load":
            addr = _u32(pop())
            if addr + 4 > len(state.memory):
                raise _Trap("out-of-bounds")
            push(wrap_i32(int.from_bytes(state.memory[addr : addr + 4], "little")))
        elif m == "i32.store":
            v = pop()
            addr = _u32(pop())
            if addr + 4 > len(state.memory):
                raise _Trap("out-of-bounds")
            state.memory[addr : addr + 4] = _u32(v).to_bytes(4, "little")
        elif m == "drop":
            pop()
        elif m == "block" or m == "loop":
            ctrl.append((m, len(stack), ip, state.fuel))
        elif m == "if":
            c = pop()
            if c != 0:
                ctrl.append(("if", len(stack), ip, state.fuel))
            elif ip in else_of:
                ctrl.append(("if", len(stack), ip, state.fuel))
                ip = else_of[ip]
            else:
                ip = end_of[ip]
        elif m == "else":
            # falling into else means the then-arm finished: skip to end
            ip = end_of[ctrl[-1][2]]
            continue
        elif m == "end":
            if ctrl and end_of.get(ctrl[-1][2]) == ip:
                ctrl.pop()
        elif m == "br" or m == "br_if":
            taken = True
            if m == "br_if":
                taken = pop() != 0
            if taken:
                target = ctrl[len(ctrl) - 1 - ins.immediate]
                while len(stack) > target[1]:
                    pop()
                if target[0] == "loop":
                    if target[3] == state.fuel:
                        raise _FuelExhausted()
                    del ctrl[len(ctrl) - ins.immediate :]
                    ctrl[-1] = (*target[:3], state.fuel)
                    ip = target[2] + 1
                    continue
                del ctrl[len(ctrl) - 1 - ins.immediate :]
                ip = end_of[target[2]] + 1
                continue
        elif m == "return":
            value = pop() if f.results else None
            return leave(value)
        elif m == "call":
            callee = module.functions[ins.immediate]
            args = [pop() for _ in range(callee.params)][::-1]
            value = _run(state, ins.immediate, args + [0] * callee.locals,
                         trace, depth + 1, False)
            if callee.results:
                push(value)
        elif m == "nop":
            pass
        elif m == "unreachable":
            raise _Trap("unreachable")
        elif m in _PURE:
            fn, arity = _PURE[m]
            if arity == 2:
                b = pop() & 0xFFFFFFFF
                r = fn(_I32, pop() & 0xFFFFFFFF, b)
            elif arity == 1:
                r = fn(_I32, pop() & 0xFFFFFFFF)
            else:
                c = pop() & 0xFFFFFFFF
                b = pop() & 0xFFFFFFFF
                r = fn(_I32, pop() & 0xFFFFFFFF, b, c)
            push(wrap_i32(r))
        elif m in _TRAPPING:
            b = pop()
            a = pop()
            if b == 0:
                raise _Trap("div-by-zero")
            push(_TRAPPING[m](a, b))
        else:  # pragma: no cover
            raise AssertionError(m)
        ip += 1

    # fallthrough exit
    if entry:
        return stack[-1] if f.results else None
    return pop() if f.results else None


def invoke(state: MachineState, export_name: str, args: list[int]) -> tuple[Outcome, Trace]:
    """Runs one export to completion; deterministic given module and args."""
    if export_name not in state.module.exports:
        raise InvokeError(f"unknown export {export_name!r}")
    fn_index = state.module.exports[export_name]
    f = state.module.functions[fn_index]
    if len(args) != f.params:
        raise InvokeError(f"{export_name!r} takes {f.params} argument(s), got {len(args)}")
    trace: Trace = []
    locals_ = [wrap_i32(a) for a in args] + [0] * f.locals
    try:
        value = _run(state, fn_index, locals_, trace, 0, True)
    except _Trap as t:
        return Outcome.trap(t.reason), trace
    except _FuelExhausted:
        return Outcome.fuel_exhausted(), trace
    return Outcome.result(value if f.results else None), trace


# --- trace files ---------------------------------------------------------------

TRACE_HEADER = "# crow-trace v1"


def write_trace(trace: Trace, outcome: Outcome, sink, entry: str = "main") -> None:
    """Line format: header, one `push N`/`pop N` per event, one terminator."""
    sink.write(f"{TRACE_HEADER} entry={entry}\n")
    for ev in trace:
        sink.write(f"{ev.kind} {ev.value}\n")
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
    lines = [ln.rstrip("\n") for ln in source]
    if not lines or not lines[0].startswith(TRACE_HEADER):
        raise TraceFormatError("missing trace header")
    trace: Trace = []
    outcome: Outcome | None = None
    for ln in lines[1:]:
        if not ln.strip():
            continue
        if outcome is not None:
            raise TraceFormatError(f"content after terminator: {ln!r}")
        kind, *rest = ln.split()
        if kind in ("push", "pop"):
            if len(rest) != 1:
                raise TraceFormatError(f"malformed event: {ln!r}")
            trace.append(TraceEvent(kind, _i32_field(rest[0], ln)))
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
    return trace, outcome
