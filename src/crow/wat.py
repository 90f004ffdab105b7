"""Parse, validate, and print the supported WebAssembly text-format subset.

The subset is deliberately narrow: i32 is the only value type, function
bodies are flat (non-folded) instruction lists, structured blocks carry no
result type, and each function returns at most one value. Everything outside
the subset is rejected with an error that names the offending construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple


# Immediate classes.
IMM_NONE = "none"
IMM_VALUE = "value"  # signed i32 constant
IMM_INDEX = "index"  # local/global/function/label index, non-negative

# mnemonic -> (immediate class, pops, pushes). Control flow and call are
# handled specially during validation; their pop/push entries cover only the
# operand they consume directly (e.g. the if/br_if condition).
INSTRUCTIONS: dict[str, tuple[str, int, int]] = {
    "i32.const": (IMM_VALUE, 0, 1),
    "i32.add": (IMM_NONE, 2, 1),
    "i32.sub": (IMM_NONE, 2, 1),
    "i32.mul": (IMM_NONE, 2, 1),
    "i32.div_s": (IMM_NONE, 2, 1),
    "i32.div_u": (IMM_NONE, 2, 1),
    "i32.rem_s": (IMM_NONE, 2, 1),
    "i32.rem_u": (IMM_NONE, 2, 1),
    "i32.and": (IMM_NONE, 2, 1),
    "i32.or": (IMM_NONE, 2, 1),
    "i32.xor": (IMM_NONE, 2, 1),
    "i32.shl": (IMM_NONE, 2, 1),
    "i32.shr_s": (IMM_NONE, 2, 1),
    "i32.shr_u": (IMM_NONE, 2, 1),
    "i32.rotl": (IMM_NONE, 2, 1),
    "i32.rotr": (IMM_NONE, 2, 1),
    "i32.eq": (IMM_NONE, 2, 1),
    "i32.ne": (IMM_NONE, 2, 1),
    "i32.lt_s": (IMM_NONE, 2, 1),
    "i32.lt_u": (IMM_NONE, 2, 1),
    "i32.gt_s": (IMM_NONE, 2, 1),
    "i32.gt_u": (IMM_NONE, 2, 1),
    "i32.le_s": (IMM_NONE, 2, 1),
    "i32.le_u": (IMM_NONE, 2, 1),
    "i32.ge_s": (IMM_NONE, 2, 1),
    "i32.ge_u": (IMM_NONE, 2, 1),
    "i32.eqz": (IMM_NONE, 1, 1),
    "select": (IMM_NONE, 3, 1),
    "drop": (IMM_NONE, 1, 0),
    "local.get": (IMM_INDEX, 0, 1),
    "local.set": (IMM_INDEX, 1, 0),
    "local.tee": (IMM_INDEX, 1, 1),
    "global.get": (IMM_INDEX, 0, 1),
    "global.set": (IMM_INDEX, 1, 0),
    "i32.load": (IMM_NONE, 1, 1),
    "i32.store": (IMM_NONE, 2, 0),
    "block": (IMM_NONE, 0, 0),
    "loop": (IMM_NONE, 0, 0),
    "if": (IMM_NONE, 1, 0),
    "else": (IMM_NONE, 0, 0),
    "end": (IMM_NONE, 0, 0),
    "br": (IMM_INDEX, 0, 0),
    "br_if": (IMM_INDEX, 1, 0),
    "return": (IMM_NONE, 0, 0),
    "call": (IMM_INDEX, 0, 0),
    "nop": (IMM_NONE, 0, 0),
    "unreachable": (IMM_NONE, 0, 0),
}

CONTROL_MNEMONICS = frozenset(
    ["block", "loop", "if", "else", "end", "br", "br_if", "return"]
)

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
UINT32_MAX = 2**32 - 1
MAX_PAGES = 65536  # the spec's memory limit: 4 GiB of 64 KiB pages


def wrap_i32(v: int) -> int:
    """Canonical signed two's-complement interpretation of an integer."""
    v &= UINT32_MAX
    return v - 2**32 if v > INT32_MAX else v


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class UnsupportedError(ParseError):
    """A construct that exists in full WebAssembly but not in the subset."""


@dataclass(frozen=True)
class Instr:
    mnemonic: str
    immediate: int | None = None

    def __post_init__(self):
        if self.mnemonic not in INSTRUCTIONS:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")
        kind = INSTRUCTIONS[self.mnemonic][0]
        if kind == IMM_NONE and self.immediate is not None:
            raise ValueError(f"{self.mnemonic} takes no immediate")
        if kind != IMM_NONE and self.immediate is None:
            raise ValueError(f"{self.mnemonic} requires an immediate")

    def __str__(self):
        if self.immediate is None:
            return self.mnemonic
        return f"{self.mnemonic} {self.immediate}"


@dataclass(frozen=True)
class FuncDef:
    params: int
    results: int
    locals: int
    body: tuple[Instr, ...]

    @property
    def local_count(self) -> int:
        return self.params + self.locals


@dataclass(frozen=True)
class GlobalDef:
    mutable: bool
    init: int


@dataclass(frozen=True)
class Module:
    functions: tuple[FuncDef, ...] = ()
    globals: tuple[GlobalDef, ...] = ()
    memory: int | None = None  # min pages
    exports: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tokenizer / s-expression reader


@dataclass(frozen=True)
class _Token:
    kind: str  # 'lp' | 'rp' | 'string' | 'atom'
    text: str
    line: int
    col: int


_ATOM_RE = re.compile(r"[^\s()\";]+")


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
        elif text.startswith(";;", i):
            j = text.find("\n", i)
            advance((j if j != -1 else n) - i)
        elif text.startswith("(;", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("(;", j):
                    depth += 1
                    j += 2
                elif text.startswith(";)", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                raise ParseError("unterminated block comment", line, col)
            advance(j - i)
        elif c == "(":
            tokens.append(_Token("lp", "(", line, col))
            advance(1)
        elif c == ")":
            tokens.append(_Token("rp", ")", line, col))
            advance(1)
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(_Token("string", text[i + 1 : j], line, col))
            advance(j + 1 - i)
        else:
            m = _ATOM_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {c!r}", line, col)
            tokens.append(_Token("atom", m.group(0), line, col))
            advance(len(m.group(0)))
    return tokens


def _read_sexpr(tokens: list[_Token], pos: int):
    """Returns (tree, next_pos); tree nodes are _Token or list[tree]. Open
    lists sit on an explicit stack, so nesting depth is not bounded by
    Python's recursion limit."""
    tok = tokens[pos]
    if tok.kind == "rp":
        raise ParseError("unexpected ')'", tok.line, tok.col)
    if tok.kind != "lp":
        return tok, pos + 1
    stack = [(tok, [])]  # each open '(' with the items read inside it so far
    for pos in range(pos + 1, len(tokens)):
        tok = tokens[pos]
        if tok.kind == "lp":
            stack.append((tok, []))
        elif tok.kind == "rp":
            _, items = stack.pop()
            if not stack:
                return items, pos + 1
            stack[-1][1].append(items)
        else:
            stack[-1][1].append(tok)
    tok = stack[-1][0]
    raise ParseError("unclosed '('", tok.line, tok.col)


_NUMBER_RE = re.compile(r"[-+]?\d+$")


def _parse_int(tok: _Token) -> int:
    if not _NUMBER_RE.match(tok.text):
        raise ParseError(f"expected integer, got {tok.text!r}", tok.line, tok.col)
    return int(tok.text)


def _head(tree) -> str:
    if isinstance(tree, list) and tree and isinstance(tree[0], _Token):
        return tree[0].text
    return ""


def _loc(tree) -> tuple[int, int]:
    node = tree
    while isinstance(node, list):
        if not node:
            return (0, 0)
        node = node[0]
    return (node.line, node.col)


def _check_valtypes(items, what: str):
    """Accepts repeated i32 atoms; rejects other value types by name."""
    count = 0
    for it in items:
        if not isinstance(it, _Token):
            raise ParseError(f"malformed {what}", *_loc(it))
        if it.text == "i32":
            count += 1
        elif it.text in ("i64", "f32", "f64", "v128", "funcref", "externref"):
            raise UnsupportedError(f"unsupported value type {it.text}", it.line, it.col)
        else:
            raise ParseError(f"expected value type in {what}", it.line, it.col)
    return count


def _parse_func(tree) -> FuncDef:
    params = results = locals_ = 0
    idx = 1
    n = len(tree)
    # Optional $name identifiers are outside the subset.
    if idx < n and isinstance(tree[idx], _Token) and tree[idx].text.startswith("$"):
        raise UnsupportedError("symbolic function names", *_loc(tree[idx]))
    seen_instr = False
    body: list[Instr] = []
    while idx < n:
        item = tree[idx]
        if isinstance(item, list):
            if seen_instr:
                raise UnsupportedError("folded instruction", *_loc(item))
            h = _head(item)
            if h == "type":
                pass  # index into a type section we do not model
            elif h == "param":
                params += _check_valtypes(item[1:], "param")
            elif h == "result":
                results += _check_valtypes(item[1:], "result")
                if results > 1:
                    raise UnsupportedError("multi-value results", *_loc(item))
            elif h == "local":
                locals_ += _check_valtypes(item[1:], "local")
            elif h == "export":
                raise UnsupportedError("inline export", *_loc(item))
            else:
                raise UnsupportedError(f"({h} ...) inside func", *_loc(item))
            idx += 1
            continue
        seen_instr = True
        mnem = item.text
        if mnem not in INSTRUCTIONS:
            if _NUMBER_RE.match(mnem):
                raise ParseError(f"unexpected immediate {mnem!r}", item.line, item.col)
            raise UnsupportedError(f"unsupported instruction {mnem!r}", item.line, item.col)
        imm_kind = INSTRUCTIONS[mnem][0]
        idx += 1
        imm = None
        if imm_kind != IMM_NONE:
            if idx >= n or not isinstance(tree[idx], _Token):
                raise ParseError(f"{mnem} expects an immediate", item.line, item.col)
            imm = _parse_int(tree[idx])
            if imm_kind == IMM_VALUE:
                if not (INT32_MIN <= imm <= UINT32_MAX):
                    raise ParseError(f"constant {imm} out of 32-bit range", item.line, item.col)
                imm = wrap_i32(imm)
            elif imm < 0:
                raise ParseError(f"negative index for {mnem}", item.line, item.col)
            idx += 1
        body.append(Instr(mnem, imm))
    return FuncDef(params=params, results=results, locals=locals_, body=tuple(body))


def _parse_global(tree) -> GlobalDef:
    items = tree[1:]
    if not items:
        raise ParseError("malformed global", *_loc(tree))
    mutable = False
    ty = items[0]
    if isinstance(ty, list) and _head(ty) == "mut":
        mutable = True
        _check_valtypes(ty[1:], "global type")
        items = items[1:]
    elif isinstance(ty, _Token):
        _check_valtypes([ty], "global type")
        items = items[1:]
    else:
        raise ParseError("malformed global type", *_loc(ty))
    if len(items) != 1 or _head(items[0]) != "i32.const" or len(items[0]) != 2:
        raise ParseError("global initializer must be (i32.const N)", *_loc(tree))
    init = wrap_i32(_parse_int(items[0][1]))
    return GlobalDef(mutable=mutable, init=init)


def _parse_export(tree) -> tuple[str, int]:
    if len(tree) != 3 or not isinstance(tree[1], _Token) or tree[1].kind != "string":
        raise ParseError('malformed export, expected (export "name" (func idx))', *_loc(tree))
    desc = tree[2]
    if _head(desc) != "func":
        raise UnsupportedError(f"export of {_head(desc)!r}", *_loc(desc))
    if len(desc) != 2:
        raise ParseError("malformed export descriptor", *_loc(desc))
    return tree[1].text, _parse_int(desc[1])


def parse_module(text: str) -> Module:
    """Parse the text of one module; raises ParseError/UnsupportedError."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    tree, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing tokens after module", tokens[pos].line, tokens[pos].col)
    if _head(tree) != "module":
        raise ParseError("expected (module ...)", *_loc(tree))

    functions: list[FuncDef] = []
    globals_: list[GlobalDef] = []
    memory: int | None = None
    exports: dict[str, int] = {}
    for item in tree[1:]:
        h = _head(item)
        if h == "type":
            continue
        if h == "func":
            functions.append(_parse_func(item))
        elif h == "global":
            globals_.append(_parse_global(item))
        elif h == "memory":
            if memory is not None:
                raise ParseError("duplicate memory section", *_loc(item))
            if len(item) != 2:
                raise ParseError("expected (memory N)", *_loc(item))
            memory = _parse_int(item[1])
            if memory < 0:
                raise ParseError("negative page count", *_loc(item))
            if memory > MAX_PAGES:
                raise ParseError(f"{memory} pages exceed the limit of {MAX_PAGES}", *_loc(item))
        elif h == "export":
            name, idx = _parse_export(item)
            if name in exports:
                raise ParseError(f"duplicate export {name!r}", *_loc(item))
            exports[name] = idx
        elif h in ("import", "table", "elem", "data", "start"):
            raise UnsupportedError(f"({h} ...) section", *_loc(item))
        else:
            raise ParseError(f"unknown module field ({h} ...)", *_loc(item))
    return Module(
        functions=tuple(functions),
        globals=tuple(globals_),
        memory=memory,
        exports=exports,
    )


# ---------------------------------------------------------------------------
# Canonical printing


def print_module(m: Module) -> str:
    """Canonical text: one instruction per line, two-space nesting indent,
    immediates in signed decimal. Structurally equal modules print
    byte-identically."""
    out = ["(module"]
    for g in m.globals:
        ty = "(mut i32)" if g.mutable else "i32"
        out.append(f"  (global {ty} (i32.const {g.init}))")
    if m.memory is not None:
        out.append(f"  (memory {m.memory})")
    for i, f in enumerate(m.functions):
        header = [f"(func (;{i};)"]
        if f.params:
            header.append("(param " + " ".join(["i32"] * f.params) + ")")
        if f.results:
            header.append("(result i32)")
        if f.locals:
            header.append("(local " + " ".join(["i32"] * f.locals) + ")")
        out.append("  " + " ".join(header))
        depth = 2
        for ins in f.body:
            if ins.mnemonic in ("end", "else"):
                depth = max(depth - 1, 2)
            out.append("  " * depth + str(ins))
            if ins.mnemonic in ("block", "loop", "if", "else"):
                depth += 1
        out.append("  )")
    for name in sorted(m.exports):
        out.append(f'  (export "{name}" (func {m.exports[name]}))')
    out.append(")")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Validation


@dataclass
class _Frame:
    opcode: str  # 'func' | 'block' | 'loop' | 'if' | 'else'
    base: int
    start: int  # index of the opening instruction (-1 for the function)
    unreachable: bool = False
    entry_unreachable: bool = False


class BodyShape(NamedTuple):
    """The structure of one body, as validation walks it.

    Three columns hold one entry per instruction, taken before it runs:
    `depth` is the operand stack depth, `base` the entry depth of the
    innermost frame, and `live` is False inside unreachable (dead) code. The
    entry depth of the frame an opener at index k starts is `base[k + 1]`.
    Three maps resolve structured control: `end_of` takes each
    block/loop/if and each `else` to its `end`, `else_of` each `if` to its
    `else` (if it has one), and `target_of` each `br`/`br_if` to the opener
    of the frame it targets. The maps are complete only for a body that
    validates."""

    depth: list[int]
    base: list[int]
    live: list[bool]
    end_of: dict[int, int]
    else_of: dict[int, int]
    target_of: dict[int, int]


def analyze_body(func: FuncDef, module: Module, fn_index: int,
                 diags: list[str]) -> BodyShape:
    """Walks one body, appending diagnostics to `diags`; returns its shape.

    The walk mirrors the standard validation algorithm: every structured
    block is void, so frames only track their entry depth plus the
    polymorphic flag set after br/return/unreachable.
    """

    def diag(i: int, msg: str):
        diags.append(f"func {fn_index} instr {i}: {msg}")

    shape = BodyShape([], [], [], {}, {}, {})
    frames = [_Frame("func", 0, -1)]
    depth = 0

    def pop(i: int, what: str) -> None:
        nonlocal depth
        top = frames[-1]
        if depth > top.base:
            depth -= 1
        elif not top.unreachable:
            diag(i, f"operand underflow ({what})")

    for i, ins in enumerate(func.body):
        top = frames[-1]
        shape.depth.append(depth)
        shape.base.append(top.base)
        shape.live.append(not top.unreachable)
        m = ins.mnemonic
        if m in ("block", "loop"):
            frames.append(_Frame(m, depth, i, top.unreachable, top.unreachable))
        elif m == "if":
            pop(i, "if condition")
            frames.append(_Frame("if", depth, i, top.unreachable, top.unreachable))
        elif m == "else":
            if top.opcode != "if":
                diag(i, "else without matching if")
                continue
            if not top.unreachable and depth != top.base:
                diag(i, "stack not empty at else")
            shape.else_of[top.start] = i
            top.opcode = "else"
            top.unreachable = top.entry_unreachable
            depth = top.base
        elif m == "end":
            if len(frames) == 1:
                diag(i, "end without matching block")
                continue
            if not top.unreachable and depth != top.base:
                diag(i, "stack not empty at end")
            shape.end_of[top.start] = i
            if top.opcode == "else":
                shape.end_of[shape.else_of[top.start]] = i
            frames.pop()
            depth = top.base
        elif m in ("br", "br_if"):
            # Labels may only target block/loop/if frames, not the function
            # frame; `return` covers the latter.
            if ins.immediate >= len(frames) - 1:
                diag(i, "branch label out of range")
            else:
                shape.target_of[i] = frames[-1 - ins.immediate].start
            if m == "br_if":
                pop(i, "br_if condition")
            else:
                top.unreachable = True
                depth = top.base
        elif m == "return":
            for _ in range(func.results):
                pop(i, "return value")
            top.unreachable = True
            depth = top.base
        elif m == "unreachable":
            top.unreachable = True
            depth = top.base
        elif m == "call":
            if ins.immediate >= len(module.functions):
                diag(i, "index out of range (call)")
                callee_params, callee_results = 0, 0
            else:
                callee = module.functions[ins.immediate]
                callee_params, callee_results = callee.params, callee.results
            for _ in range(callee_params):
                pop(i, "call argument")
            depth += callee_results
        else:
            imm_kind, pops, pushes = INSTRUCTIONS[m]
            if m in ("local.get", "local.set", "local.tee"):
                if ins.immediate >= func.local_count:
                    diag(i, "index out of range (local)")
            elif m in ("global.get", "global.set"):
                if ins.immediate >= len(module.globals):
                    diag(i, "index out of range (global)")
                elif m == "global.set" and not module.globals[ins.immediate].mutable:
                    diag(i, "global is immutable")
            elif m in ("i32.load", "i32.store") and module.memory is None:
                diag(i, "memory access without memory section")
            for _ in range(pops):
                pop(i, m)
            depth += pushes

    if len(frames) > 1:
        diags.append(f"func {fn_index}: {len(frames) - 1} unclosed block(s)")
    elif not frames[0].unreachable and depth != func.results:
        diags.append(
            f"func {fn_index}: body leaves {depth} value(s), expected {func.results}"
        )
    return shape


def validate(m: Module) -> list[str]:
    """Returns diagnostics; empty list means the module is well-formed."""
    diags: list[str] = []
    for name, idx in m.exports.items():
        if idx >= len(m.functions):
            diags.append(f"export {name!r}: index out of range")
    for i, f in enumerate(m.functions):
        if f.results > 1:
            diags.append(f"func {i}: more than one result")
            continue
        analyze_body(f, m, i, diags)
    return diags
