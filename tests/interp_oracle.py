"""A direct structured interpreter, the reference `crow.interp` is checked
against.

It runs a body as its instruction list, recursing into each block, loop and
if, and finds a frame's `else` and `end` by counting nesting when it enters
the frame. A branch raises `_Branch` up to the frame it targets, which
unwinds the stack to its entry height; `return` raises `_Return` up to the
function. There is no predecoding and no static depth. Events follow the
rules in `crow.interp`'s docstring and are recorded one at a time; the run
stops at its first event past the fuel. Pure ops come from
`semantics_spec`. The instruction ceiling is not modeled: only event-free
call trees reach it.
"""

from crow.interp import MAX_CALL_DEPTH, Outcome
from crow.wat import INT32_MIN, Module, wrap_i32

from semantics_spec import spec, to_unsigned


class _Branch(Exception):
    def __init__(self, label: int):
        self.label = label


class _Return(Exception):
    pass


class _Stop(Exception):
    def __init__(self, outcome: Outcome):
        self.outcome = outcome


def _match(body, i: int) -> tuple[int | None, int]:
    """The `else` (or None) and the `end` of the frame opened at `i`."""
    nesting, else_at = 0, None
    for j in range(i + 1, len(body)):
        mn = body[j].mnemonic
        if mn in ("block", "loop", "if"):
            nesting += 1
        elif mn == "else" and nesting == 0:
            else_at = j
        elif mn == "end":
            if nesting == 0:
                return else_at, j
            nesting -= 1
    raise AssertionError(f"no end for the frame at {i}")


def _divide(mn: str, x: int, y: int) -> int:
    if y == 0:
        raise _Stop(Outcome.trap("div-by-zero"))
    if mn == "i32.div_s" and x == INT32_MIN and y == -1:
        raise _Stop(Outcome.trap("integer-overflow"))
    if mn in ("i32.div_u", "i32.rem_u"):
        x, y = to_unsigned(x, 32), to_unsigned(y, 32)
    q = abs(x) // abs(y) * (-1 if (x < 0) != (y < 0) else 1)
    return wrap_i32(q if mn.startswith("i32.div") else x - q * y)


class _Machine:
    def __init__(self, m: Module, fuel: int):
        self.module = m
        self.fuel = fuel
        self.codes: list[int] = []
        self.globals = [g.init for g in m.globals]
        self.memory = bytearray((m.memory or 0) * 65536)

    def event(self, code: int) -> None:
        if len(self.codes) == self.fuel:
            raise _Stop(Outcome.fuel_exhausted())
        self.codes.append(code)

    def push(self, stack: list[int], v: int) -> None:
        stack.append(v)
        self.event(2 * v + 1)

    def pop(self, stack: list[int]) -> int:
        v = stack.pop()
        self.event(2 * v)
        return v

    def unwind(self, stack: list[int], height: int) -> None:
        while len(stack) > height:
            self.pop(stack)

    def address(self, stack: list[int]) -> int:
        addr = to_unsigned(self.pop(stack), 32)
        if addr + 4 > len(self.memory):
            raise _Stop(Outcome.trap("out-of-bounds"))
        return addr

    def call(self, fn: int, args: list[int], depth: int, caller: list[int] | None):
        """Runs function `fn`; its result goes to the `caller` stack, or is
        returned when `fn` is the entry (caller None)."""
        f = self.module.functions[fn]
        stack: list[int] = []
        try:
            self.run(f.body, 0, len(f.body), stack, args + [0] * f.locals, depth)
            if caller is None:  # the entry falls off its end: no events
                return stack[-1] if f.results else None
        except _Return:
            pass
        v = self.pop(stack) if f.results else None
        self.unwind(stack, 0)
        if v is not None:
            self.push(stack if caller is None else caller, v)
        return v

    def frame(self, body, i: int, stack, locals_, depth) -> int:
        """Runs the block, loop or if opened at `i`; returns its `end`."""
        mn = body[i].mnemonic
        else_at, end = _match(body, i)
        start, stop = i + 1, else_at if else_at is not None else end
        if mn == "if" and not self.pop(stack):
            start, stop = (else_at + 1, end) if else_at is not None else (end, end)
        height, mark = len(stack), len(self.codes)
        while True:
            try:
                self.run(body, start, stop, stack, locals_, depth)
                return end
            except _Branch as b:
                if b.label:
                    b.label -= 1
                    raise
                self.unwind(stack, height)
                if mn != "loop":
                    return end
                if len(self.codes) == mark:  # an iteration without events repeats forever
                    raise _Stop(Outcome.fuel_exhausted())
                mark = len(self.codes)

    def run(self, body, i: int, stop: int, stack, locals_, depth) -> None:
        """Runs body[i:stop], a sequence of whole instructions and frames."""
        while i < stop:
            ins = body[i]
            mn, imm = ins.mnemonic, ins.immediate
            if mn in ("block", "loop", "if"):
                i = self.frame(body, i, stack, locals_, depth)
            elif mn == "br":
                raise _Branch(imm)
            elif mn == "br_if":
                if self.pop(stack):
                    raise _Branch(imm)
            elif mn == "return":
                raise _Return()
            elif mn == "unreachable":
                raise _Stop(Outcome.trap("unreachable"))
            elif mn == "call":
                callee = self.module.functions[imm]
                args = [self.pop(stack) for _ in range(callee.params)][::-1]
                if depth >= MAX_CALL_DEPTH:
                    raise _Stop(Outcome.trap("call-depth"))
                self.call(imm, args, depth + 1, stack)
            elif mn == "i32.const":
                self.push(stack, imm)
            elif mn == "local.get":
                self.push(stack, locals_[imm])
            elif mn == "local.set":
                locals_[imm] = self.pop(stack)
            elif mn == "local.tee":
                locals_[imm] = self.pop(stack)
                self.push(stack, locals_[imm])
            elif mn == "global.get":
                self.push(stack, self.globals[imm])
            elif mn == "global.set":
                self.globals[imm] = self.pop(stack)
            elif mn == "i32.load":
                addr = self.address(stack)
                raw = int.from_bytes(self.memory[addr : addr + 4], "little")
                self.push(stack, wrap_i32(raw))
            elif mn == "i32.store":
                v = self.pop(stack)
                addr = self.address(stack)
                self.memory[addr : addr + 4] = to_unsigned(v, 32).to_bytes(4, "little")
            elif mn == "drop":
                self.pop(stack)
            elif mn in ("i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u"):
                y, x = self.pop(stack), self.pop(stack)
                self.push(stack, _divide(mn, x, y))
            elif mn != "nop":  # a pure op: operands pop topmost-first
                arity = 3 if mn == "select" else 1 if mn == "i32.eqz" else 2
                operands = [self.pop(stack) for _ in range(arity)][::-1]
                self.push(stack, wrap_i32(spec(mn.removeprefix("i32."), operands, 32)))
            i += 1


def run(m: Module, export: str, args: list[int], fuel: int) -> tuple[Outcome, list[int]]:
    """Runs `export` on a fresh instance of `m`: its outcome and event codes."""
    machine = _Machine(m, fuel)
    try:
        value = machine.call(m.exports[export], [wrap_i32(a) for a in args], 0, None)
        outcome = Outcome.result(value)
    except _Stop as stop:
        outcome = stop.outcome
    return outcome, machine.codes
