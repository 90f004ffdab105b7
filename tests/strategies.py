"""Hypothesis strategies producing valid modules of the supported subset.

Bodies are built inside-out from expression trees so they stack-check by
construction; statements wrap expressions in local.set / drop / if-else and
nest block, loop and if, so structured control also gets exercised. Branches
target any enclosing label with extra values on the stack to unwind; only
`br_if` targets a loop, so every loop iteration emits an event. `return` and
`unreachable` leave dead code behind them.
"""

import hypothesis.strategies as st

from crow.wat import FuncDef, GlobalDef, Instr, Module

BINOPS = [
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
    "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
    "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u",
]
MAX_NESTING = 3

int32s = st.integers(-(2**31), 2**31 - 1)


@st.composite
def expr(draw, nlocals, depth=0):
    """Instruction list leaving exactly one value on the stack."""
    leaf_only = depth >= 3
    choice = draw(st.integers(0, 1 if leaf_only else 5))
    if choice == 0 or (choice == 1 and nlocals == 0):
        return [Instr("i32.const", draw(int32s))]
    if choice == 1:
        return [Instr("local.get", draw(st.integers(0, nlocals - 1)))]
    if choice in (2, 3):
        a = draw(expr(nlocals, depth + 1))
        b = draw(expr(nlocals, depth + 1))
        return a + b + [Instr(draw(st.sampled_from(BINOPS)))]
    if choice == 4:
        a = draw(expr(nlocals, depth + 1))
        return a + [Instr("i32.eqz")]
    v1 = draw(expr(nlocals, depth + 1))
    v2 = draw(expr(nlocals, depth + 1))
    c = draw(expr(nlocals, depth + 1))
    return v1 + v2 + c + [Instr("select")]


@st.composite
def extras(draw, nlocals):
    """Values pushed before a branch, for it to unwind: (instructions, count)."""
    count = draw(st.integers(0, 2))
    return [ins for _ in range(count) for ins in draw(expr(nlocals))], count


@st.composite
def statements(draw, nlocals, results, labels):
    """Zero to two statements, or a `nop` when that leaves the list empty."""
    body = []
    for _ in range(draw(st.integers(0, 2))):
        body.extend(draw(statement(nlocals, results, labels)))
    return body or [Instr("nop")]


@st.composite
def statement(draw, nlocals, results=0, labels=()):
    """Instruction list with no net stack effect on the code that follows it.
    `labels` holds the kinds of the enclosing frames, innermost last;
    `results` is the function's result count, for `return`."""
    kinds = ["set", "drop", "return", "unreachable"]
    if labels:
        kinds.append("br_if")
    if any(kind != "loop" for kind in labels):
        kinds.append("br")
    if len(labels) < MAX_NESTING:
        kinds += ["block", "loop", "if"]
    kind = draw(st.sampled_from(kinds))
    if kind == "set" and nlocals:
        e = draw(expr(nlocals))
        return e + [Instr("local.set", draw(st.integers(0, nlocals - 1)))]
    if kind in ("set", "drop"):
        return draw(expr(nlocals)) + [Instr("drop")]
    if kind in ("block", "loop"):
        return [Instr(kind)] + draw(statements(nlocals, results, labels + (kind,))) + [Instr("end")]
    if kind == "if":
        inner = labels + ("if",)
        then = draw(statements(nlocals, results, inner))
        els = draw(statements(nlocals, results, inner))
        return draw(expr(nlocals)) + [Instr("if")] + then + [Instr("else")] + els + [Instr("end")]
    if kind == "unreachable":  # the dead code may pop values never pushed
        dead = draw(st.sampled_from([[], [Instr("i32.add"), Instr("drop")]]))
        return [Instr("unreachable")] + dead + draw(statements(nlocals, results, labels))
    pushed, count = draw(extras(nlocals))
    if kind == "return":
        value = draw(expr(nlocals)) if results else []
        return pushed + value + [Instr("return")]
    if kind == "br_if":
        label = draw(st.integers(0, len(labels) - 1))
        cond = draw(expr(nlocals))
        return pushed + cond + [Instr("br_if", label)] + [Instr("drop")] * count
    label = draw(st.sampled_from([k for k in range(len(labels)) if labels[-1 - k] != "loop"]))
    return pushed + [Instr("br", label)]


@st.composite
def funcdefs(draw):
    params = draw(st.integers(0, 2))
    locals_ = draw(st.integers(0, 2))
    results = draw(st.integers(0, 1))
    nlocals = params + locals_
    body = []
    for _ in range(draw(st.integers(0, 3))):
        body.extend(draw(statement(nlocals, results)))
    if results:
        body.extend(draw(expr(nlocals)))
    return FuncDef(params=params, results=results, locals=locals_, body=tuple(body))


@st.composite
def modules(draw):
    funcs = draw(st.lists(funcdefs(), min_size=1, max_size=3))
    exports = {}
    for i in range(len(funcs)):
        if draw(st.booleans()):
            exports[draw(st.sampled_from(["main", "run", "aux"])) + str(i)] = i
    globals_ = tuple(
        GlobalDef(mutable=draw(st.booleans()), init=draw(int32s))
        for _ in range(draw(st.integers(0, 2)))
    )
    memory = draw(st.one_of(st.none(), st.integers(0, 2)))
    return Module(functions=tuple(funcs), globals=globals_, memory=memory, exports=exports)
