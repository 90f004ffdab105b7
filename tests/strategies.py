"""Hypothesis strategies producing valid modules of the supported subset.

A module's signatures, globals and memory are drawn first, so bodies can
read and write globals, load and store, and call functions. A function only
calls functions after it, so there is no recursion. Bodies are built
inside-out from expression trees so they stack-check by construction. An
expression may write a local with `local.tee`, so a value can stay pending
on the stack across a write to a local. Statements wrap expressions in
local.set / global.set / i32.store / drop / if-else and nest block, loop
and if, so structured control also gets exercised. Branches target any
enclosing label with extra values on the stack to unwind; only `br_if`
targets a loop, so every loop iteration emits an event. `return` and
`unreachable` leave dead code behind them.
"""

from typing import NamedTuple

import hypothesis.strategies as st

from crow.wat import FuncDef, GlobalDef, Instr, Module

BINOPS = [
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
    "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
    "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u",
]
DIVOPS = ["i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u"]
MAX_NESTING = 3

int32s = st.integers(-(2**31), 2**31 - 1)


class Ctx(NamedTuple):
    """What a body may refer to besides its own locals."""

    nlocals: int
    globals: tuple[GlobalDef, ...]
    memory: bool
    callees: tuple[tuple[int, FuncDef], ...]  # (index, signature), later functions only


@st.composite
def call(draw, ctx, depth, results):
    """A call to a later function whose result count is `results`."""
    index, sig = draw(st.sampled_from([c for c in ctx.callees if c[1].results == results]))
    args = [ins for _ in range(sig.params) for ins in draw(expr(ctx, depth + 1))]
    return args + [Instr("call", index)]


@st.composite
def address(draw, ctx, depth):
    """Mostly an in-bounds constant address, sometimes any expression."""
    if draw(st.booleans()):
        return [Instr("i32.const", 4 * draw(st.integers(0, 15)))]
    return draw(expr(ctx, depth + 1))


@st.composite
def expr(draw, ctx, depth=0):
    """Instruction list leaving exactly one value on the stack."""
    kinds = ["const", "local"]
    if ctx.globals:
        kinds.append("global")
    if depth < 3:
        kinds += ["binop", "binop", "eqz", "select", "divrem"]
        if ctx.nlocals:
            kinds.append("tee")
        if ctx.memory:
            kinds.append("load")
        if any(sig.results for _, sig in ctx.callees):
            kinds.append("call")
    kind = draw(st.sampled_from(kinds))
    if kind == "const" or (kind == "local" and ctx.nlocals == 0):
        return [Instr("i32.const", draw(int32s))]
    if kind == "local":
        return [Instr("local.get", draw(st.integers(0, ctx.nlocals - 1)))]
    if kind == "global":
        return [Instr("global.get", draw(st.integers(0, len(ctx.globals) - 1)))]
    if kind == "load":
        return draw(address(ctx, depth)) + [Instr("i32.load")]
    if kind == "call":
        return draw(call(ctx, depth, 1))
    if kind in ("binop", "divrem"):
        a = draw(expr(ctx, depth + 1))
        b = draw(expr(ctx, depth + 1))
        return a + b + [Instr(draw(st.sampled_from(BINOPS if kind == "binop" else DIVOPS)))]
    if kind == "tee":  # e; local.tee k leaves e's value
        return draw(expr(ctx, depth + 1)) + [Instr("local.tee", draw(st.integers(0, ctx.nlocals - 1)))]
    if kind == "eqz":
        a = draw(expr(ctx, depth + 1))
        return a + [Instr("i32.eqz")]
    v1 = draw(expr(ctx, depth + 1))
    v2 = draw(expr(ctx, depth + 1))
    c = draw(expr(ctx, depth + 1))
    return v1 + v2 + c + [Instr("select")]


@st.composite
def extras(draw, ctx):
    """Values pushed before a branch, for it to unwind: (instructions, count)."""
    count = draw(st.integers(0, 2))
    return [ins for _ in range(count) for ins in draw(expr(ctx))], count


@st.composite
def statements(draw, ctx, results, labels):
    """Zero to two statements, or a `nop` when that leaves the list empty."""
    body = []
    for _ in range(draw(st.integers(0, 2))):
        body.extend(draw(statement(ctx, results, labels)))
    return body or [Instr("nop")]


@st.composite
def statement(draw, ctx, results=0, labels=()):
    """Instruction list with no net stack effect on the code that follows it.
    `labels` holds the kinds of the enclosing frames, innermost last;
    `results` is the function's result count, for `return`."""
    kinds = ["set", "drop", "return", "unreachable"]
    if any(g.mutable for g in ctx.globals):
        kinds.append("global.set")
    if ctx.memory:
        kinds.append("store")
    if ctx.callees:
        kinds.append("call")
    if labels:
        kinds.append("br_if")
    if any(kind != "loop" for kind in labels):
        kinds.append("br")
    if len(labels) < MAX_NESTING:
        kinds += ["block", "loop", "if"]
    kind = draw(st.sampled_from(kinds))
    if kind == "set" and ctx.nlocals:
        e = draw(expr(ctx))
        return e + [Instr("local.set", draw(st.integers(0, ctx.nlocals - 1)))]
    if kind in ("set", "drop"):
        return draw(expr(ctx)) + [Instr("drop")]
    if kind == "global.set":
        index = draw(st.sampled_from([i for i, g in enumerate(ctx.globals) if g.mutable]))
        return draw(expr(ctx)) + [Instr("global.set", index)]
    if kind == "store":
        return draw(address(ctx, 0)) + draw(expr(ctx)) + [Instr("i32.store")]
    if kind == "call":
        pushed = draw(st.sampled_from(sorted({sig.results for _, sig in ctx.callees})))
        return draw(call(ctx, 0, pushed)) + [Instr("drop")] * pushed
    if kind in ("block", "loop"):
        return [Instr(kind)] + draw(statements(ctx, results, labels + (kind,))) + [Instr("end")]
    if kind == "if":
        inner = labels + ("if",)
        then = draw(statements(ctx, results, inner))
        els = draw(statements(ctx, results, inner))
        return draw(expr(ctx)) + [Instr("if")] + then + [Instr("else")] + els + [Instr("end")]
    if kind == "unreachable":  # the dead code may pop values never pushed
        dead = draw(st.sampled_from([[], [Instr("i32.add"), Instr("drop")]]))
        return [Instr("unreachable")] + dead + draw(statements(ctx, results, labels))
    pushed, count = draw(extras(ctx))
    if kind == "return":
        value = draw(expr(ctx)) if results else []
        return pushed + value + [Instr("return")]
    if kind == "br_if":
        label = draw(st.integers(0, len(labels) - 1))
        cond = draw(expr(ctx))
        return pushed + cond + [Instr("br_if", label)] + [Instr("drop")] * count
    label = draw(st.sampled_from([k for k in range(len(labels)) if labels[-1 - k] != "loop"]))
    return pushed + [Instr("br", label)]


@st.composite
def body(draw, ctx, results):
    instrs = []
    for _ in range(draw(st.integers(0, 3))):
        instrs.extend(draw(statement(ctx, results)))
    if results:
        instrs.extend(draw(expr(ctx)))
    return tuple(instrs)


@st.composite
def modules(draw):
    n = draw(st.integers(1, 3))
    sigs = [
        FuncDef(params=draw(st.integers(0, 2)), results=draw(st.integers(0, 1)),
                locals=draw(st.integers(0, 2)), body=())
        for _ in range(n)
    ]
    globals_ = tuple(
        GlobalDef(mutable=draw(st.booleans()), init=draw(int32s))
        for _ in range(draw(st.integers(0, 2)))
    )
    memory = draw(st.one_of(st.none(), st.integers(0, 2)))
    funcs = []
    for i, sig in enumerate(sigs):
        ctx = Ctx(sig.local_count, globals_, memory is not None,
                  tuple((j, sigs[j]) for j in range(i + 1, n)))
        funcs.append(FuncDef(sig.params, sig.results, sig.locals, draw(body(ctx, sig.results))))
    exports = {}
    for i in range(n):
        if draw(st.booleans()):
            exports[draw(st.sampled_from(["main", "run", "aux"])) + str(i)] = i
    return Module(functions=tuple(funcs), globals=globals_, memory=memory, exports=exports)
