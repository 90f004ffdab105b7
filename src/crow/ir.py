"""Straight-line regions, expression DAGs, and pure-block extraction.

A function body is cut into straight-line regions at structured control
instructions. Inside a region, the operand stack is replayed symbolically:
pure computations become DAG nodes, while loads, calls, global accesses in
the presence of writers, and trap-capable div/rem stay in place as anchors
whose results enter the dataflow as opaque input leaves. Memory contents are
never modeled; a load is a fresh input, full stop.

A pure block is the backward dataflow slice hanging off one value-producing
pure instruction. Evaluating its DAG twice under the same inputs gives the
same value, which is what makes it a legal replacement target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple

from .wat import CONTROL_MNEMONICS, INSTRUCTIONS, Instr, Module, analyze_body

# --- i32 semantics ----------------------------------------------------------


class Width(NamedTuple):
    """Constants of one bit width, in the number type of the operands:
    Python ints for scalar evaluation, numpy uint64 for batches."""

    w: object
    mask: object
    sign: object
    one: object


@cache
def width_constants(width: int, num=int) -> Width:
    return Width(*(num(v) for v in (width, (1 << width) - 1, 1 << (width - 1), 1)))


class OpSemantics(NamedTuple):
    """`fn(k, *operands)` maps unsigned width-bit operands to the unsigned
    result, with `k` the width's constants. It uses plain operators only, so
    it runs unchanged on Python ints and on uint64 arrays (whose
    intermediate values stay below 2**64 for widths up to 32). `smt` is the
    SMT-LIB term at width 32 over the operand terms {a}, {b}, {c}."""

    fn: Callable
    smt: str


def _shr_s(k, a, b):
    s = b % k.w
    return (((a ^ k.sign) >> s) - (k.sign >> s)) & k.mask


def _rotl(k, a, b):
    s = b % k.w
    return ((a << s) | (a >> ((k.w - s) % k.w))) & k.mask


def _rotr(k, a, b):
    s = b % k.w
    return ((a >> s) | (a << ((k.w - s) % k.w))) & k.mask


def _bool32(pred: str) -> str:
    return f"(ite {pred} #x00000001 #x00000000)"


_COUNT32 = "(bvand {b} #x0000001f)"
_BACK32 = f"(bvand (bvsub #x00000020 {_COUNT32}) #x0000001f)"

# Every pure operation, once, in canonical enumeration order: these keys are
# the DAG node ops and candidate vocabulary (i32 is implied). Signed
# comparisons flip the sign bit so that the unsigned order applies.
SEMANTICS: dict[str, OpSemantics] = {
    "add": OpSemantics(lambda k, a, b: (a + b) & k.mask, "(bvadd {a} {b})"),
    "sub": OpSemantics(lambda k, a, b: (a - b) & k.mask, "(bvsub {a} {b})"),
    "mul": OpSemantics(lambda k, a, b: (a * b) & k.mask, "(bvmul {a} {b})"),
    "and": OpSemantics(lambda k, a, b: a & b, "(bvand {a} {b})"),
    "or": OpSemantics(lambda k, a, b: a | b, "(bvor {a} {b})"),
    "xor": OpSemantics(lambda k, a, b: a ^ b, "(bvxor {a} {b})"),
    "shl": OpSemantics(lambda k, a, b: (a << (b % k.w)) & k.mask,
                       f"(bvshl {{a}} {_COUNT32})"),
    "shr_s": OpSemantics(_shr_s, f"(bvashr {{a}} {_COUNT32})"),
    "shr_u": OpSemantics(lambda k, a, b: a >> (b % k.w), f"(bvlshr {{a}} {_COUNT32})"),
    "rotl": OpSemantics(_rotl, f"(bvor (bvshl {{a}} {_COUNT32}) (bvlshr {{a}} {_BACK32}))"),
    "rotr": OpSemantics(_rotr, f"(bvor (bvlshr {{a}} {_COUNT32}) (bvshl {{a}} {_BACK32}))"),
    "eq": OpSemantics(lambda k, a, b: (a == b) * k.one, _bool32("(= {a} {b})")),
    "ne": OpSemantics(lambda k, a, b: (a != b) * k.one, _bool32("(distinct {a} {b})")),
    "lt_s": OpSemantics(lambda k, a, b: ((a ^ k.sign) < (b ^ k.sign)) * k.one,
                        _bool32("(bvslt {a} {b})")),
    "lt_u": OpSemantics(lambda k, a, b: (a < b) * k.one, _bool32("(bvult {a} {b})")),
    "gt_s": OpSemantics(lambda k, a, b: ((a ^ k.sign) > (b ^ k.sign)) * k.one,
                        _bool32("(bvsgt {a} {b})")),
    "gt_u": OpSemantics(lambda k, a, b: (a > b) * k.one, _bool32("(bvugt {a} {b})")),
    "le_s": OpSemantics(lambda k, a, b: ((a ^ k.sign) <= (b ^ k.sign)) * k.one,
                        _bool32("(bvsle {a} {b})")),
    "le_u": OpSemantics(lambda k, a, b: (a <= b) * k.one, _bool32("(bvule {a} {b})")),
    "ge_s": OpSemantics(lambda k, a, b: ((a ^ k.sign) >= (b ^ k.sign)) * k.one,
                        _bool32("(bvsge {a} {b})")),
    "ge_u": OpSemantics(lambda k, a, b: (a >= b) * k.one, _bool32("(bvuge {a} {b})")),
    "eqz": OpSemantics(lambda k, a: (a == 0) * k.one, _bool32("(= {a} #x00000000)")),
    "select": OpSemantics(lambda k, a, b, c: b ^ ((a ^ b) & ((c != 0) * k.mask)),
                          "(ite (distinct {c} #x00000000) {a} {b})"),
}

OP_TO_MNEMONIC = {op: ("select" if op == "select" else f"i32.{op}") for op in SEMANTICS}
MNEMONIC_TO_OP = {v: k for k, v in OP_TO_MNEMONIC.items()}

# Arity of each pure operation, in canonical order.
PURE_OPS: dict[str, int] = {op: INSTRUCTIONS[mn][1] for op, mn in OP_TO_MNEMONIC.items()}

TRAP_OPS = frozenset(["div_s", "div_u", "rem_s", "rem_u"])


# --- standalone DAG model ---------------------------------------------------

K_OP = "op"
K_CONST = "const"
K_INPUT = "input"


@dataclass(frozen=True)
class InputOrigin:
    """Where a block input comes from in the original program.

    kind: 'param' | 'local' | 'global' | 'load' | 'call' | 'trap-op' | 'entry'
    index: param/local/global index or entry-stack depth (from the bottom of
           the accessible entry values)
    site: body position for site-specific origins (loads, calls, trap ops,
          and global reads pinned by an in-region writer)
    """

    kind: str
    index: int | None = None
    site: int | None = None

    def __str__(self):
        if self.kind == "param":
            return f"param({self.index})"
        if self.kind == "local":
            return f"local-at-entry({self.index})"
        if self.kind == "global":
            base = f"global({self.index})"
            return base if self.site is None else f"{base}@{self.site}"
        if self.kind == "entry":
            return f"entry-stack({self.index})"
        name = {"load": "load", "call": "call-result", "trap-op": "trap-op-result"}[self.kind]
        return f"{name}({self.site})"


@dataclass(frozen=True)
class DagNode:
    """One node of a standalone DAG; operands refer to earlier node indices."""

    kind: str
    operands: tuple[int, ...] = ()
    op: str | None = None  # bare op name for kind 'op'
    value: int | None = None  # for kind 'const'
    input: int | None = None  # block-input ordinal for kind 'input'

    def __post_init__(self):
        if self.kind == K_OP:
            if self.op not in PURE_OPS:
                raise ValueError(f"not a pure op: {self.op!r}")
            if len(self.operands) != PURE_OPS[self.op]:
                raise ValueError(f"{self.op} arity mismatch")
        if any(o < 0 for o in self.operands):
            raise ValueError("operand index negative")


@dataclass(frozen=True)
class Dag:
    nodes: tuple[DagNode, ...]
    root: int

    def __post_init__(self):
        for i, n in enumerate(self.nodes):
            if any(o >= i for o in n.operands):
                raise ValueError("operands must refer to earlier nodes")
        if not (0 <= self.root < len(self.nodes)):
            raise ValueError("root out of range")

    def key(self) -> str:
        """Canonical serialization, stable across processes."""
        parts = []
        for n in self.nodes:
            if n.kind == K_OP:
                parts.append(n.op + "(" + ",".join(map(str, n.operands)) + ")")
            elif n.kind == K_CONST:
                parts.append(f"c{n.value}")
            else:
                parts.append(f"i{n.input}")
        return ";".join(parts) + f"|{self.root}"


def _reachable_key(d: Dag) -> str:
    def walk(i: int) -> str:
        n = d.nodes[i]
        if n.kind == K_CONST:
            return f"c{n.value}"
        if n.kind == K_INPUT:
            return f"i{n.input}"
        return n.op + "(" + ",".join(walk(o) for o in n.operands) + ")"

    return walk(d.root)


# --- regions ----------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Maximal straight-line run of a body: [start, end) with no structured
    control. Dead regions (unreachable code) are kept for faithful
    re-emission but never diversified."""

    func: int
    start: int
    end: int
    entry_arity: int
    live: bool


_BOUNDARY = CONTROL_MNEMONICS | {"unreachable"}


def build_regions(m: Module, fn_index: int) -> list[Region]:
    """Splits the body at structured control; unreachable also ends a region
    because the stack depth after it is polymorphic."""
    f = m.functions[fn_index]
    diags: list[str] = []
    infos = analyze_body(f, m, fn_index, diags)
    if diags:
        raise ValueError(f"function {fn_index} does not validate: {diags[0]}")
    regions = []
    start = None
    for i, ins in enumerate(f.body):
        if ins.mnemonic in _BOUNDARY:
            if start is not None:
                info = infos[start]
                regions.append(
                    Region(fn_index, start, i, info.depth - info.base, info.live)
                )
                start = None
        elif start is None:
            start = i
    if start is not None:
        info = infos[start]
        regions.append(
            Region(fn_index, start, len(f.body), info.depth - info.base, info.live)
        )
    return regions


# --- region dataflow graph ---------------------------------------------------


@dataclass
class RNode:
    """Region-level dataflow node (internal, mutable during construction)."""

    id: int
    kind: str  # 'op' | 'const' | 'input'
    op: str | None = None
    value: int | None = None
    origin: InputOrigin | None = None
    operands: tuple[int, ...] = ()
    site: int | None = None  # creation site (op/const) or first read site
    read_sites: tuple[int, ...] = ()  # local.get/global.get sites pushing this node
    edge_sites: tuple[int, ...] = ()  # push sites of consumed operands (op nodes)
    anchored: bool = False  # produced by an anchor; not re-evaluable


@dataclass
class Anchor:
    """An instruction replayed verbatim, in order, during re-emission."""

    site: int
    instr: Instr
    operands: tuple[int, ...]  # rnode ids, bottom -> top
    result: int | None = None  # rnode id of the produced input leaf


@dataclass
class RegionIR:
    region: Region
    nodes: list[RNode] = field(default_factory=list)
    anchors: list[Anchor] = field(default_factory=list)
    exit_stack: list[int] = field(default_factory=list)  # above untouched prefix
    entry_used: int = 0  # entry slots consumed, from the top down
    entry_nodes: dict[int, int] = field(default_factory=dict)  # depth -> rnode id


def build_region_ir(m: Module, region: Region) -> RegionIR:
    f = m.functions[region.func]
    ir = RegionIR(region=region)
    nodes = ir.nodes

    def new_node(**kw) -> int:
        n = RNode(id=len(nodes), **kw)
        nodes.append(n)
        return n.id

    # Globals read in a region that also writes them (or calls out, since a
    # callee may write any global) must stay anchored at their original
    # position; otherwise reads of one global all see the same stable value
    # and can share a leaf.
    body = f.body[region.start : region.end]
    has_call = any(ins.mnemonic == "call" for ins in body)
    written_globals = {
        ins.immediate for ins in body if ins.mnemonic == "global.set"
    }

    stack: list[tuple[int, int]] = []  # (rnode id, push site)
    last_assign: dict[int, int] = {}  # local index -> rnode id
    local_leaves: dict[int, int] = {}  # local index -> input rnode id
    global_leaves: dict[int, int] = {}  # global index -> input rnode id

    def pop(site: int) -> tuple[int, int]:
        if stack:
            return stack.pop()
        depth = region.entry_arity - 1 - ir.entry_used
        assert depth >= 0, "operand underflow in validated region"
        nid = new_node(
            kind=K_INPUT, origin=InputOrigin("entry", index=depth), anchored=True
        )
        ir.entry_nodes[depth] = nid
        ir.entry_used += 1
        return nid, -1

    for site in range(region.start, region.end):
        ins = f.body[site]
        m_ = ins.mnemonic
        if m_ == "i32.const":
            stack.append((new_node(kind=K_CONST, value=ins.immediate, site=site), site))
        elif m_ == "local.get":
            idx = ins.immediate
            if idx in last_assign:
                nid = last_assign[idx]
            elif idx in local_leaves:
                nid = local_leaves[idx]
            else:
                kind = "param" if idx < f.params else "local"
                nid = new_node(
                    kind=K_INPUT, origin=InputOrigin(kind, index=idx), site=site
                )
                local_leaves[idx] = nid
            nodes[nid].read_sites += (site,)
            stack.append((nid, site))
        elif m_ in ("local.set", "local.tee"):
            nid, _ = pop(site)
            ir.anchors.append(Anchor(site, ins, (nid,)))
            last_assign[ins.immediate] = nid
            if m_ == "local.tee":
                stack.append((nid, site))
        elif m_ == "global.get":
            idx = ins.immediate
            if has_call or idx in written_globals:
                nid = new_node(
                    kind=K_INPUT,
                    origin=InputOrigin("global", index=idx, site=site),
                    site=site,
                    anchored=True,
                )
                ir.anchors.append(Anchor(site, ins, (), result=nid))
            else:
                if idx not in global_leaves:
                    global_leaves[idx] = new_node(
                        kind=K_INPUT, origin=InputOrigin("global", index=idx), site=site
                    )
                nid = global_leaves[idx]
                nodes[nid].read_sites += (site,)
            stack.append((nid, site))
        elif m_ == "global.set":
            nid, _ = pop(site)
            ir.anchors.append(Anchor(site, ins, (nid,)))
        elif m_ == "i32.load":
            addr, _ = pop(site)
            nid = new_node(
                kind=K_INPUT, origin=InputOrigin("load", site=site), site=site, anchored=True
            )
            ir.anchors.append(Anchor(site, ins, (addr,), result=nid))
            stack.append((nid, site))
        elif m_ == "i32.store":
            val, _ = pop(site)
            addr, _ = pop(site)
            ir.anchors.append(Anchor(site, ins, (addr, val)))
        elif m_ == "call":
            callee = m.functions[ins.immediate]
            args = tuple(pop(site)[0] for _ in range(callee.params))[::-1]
            result = None
            if callee.results:
                result = new_node(
                    kind=K_INPUT, origin=InputOrigin("call", site=site), site=site, anchored=True
                )
            ir.anchors.append(Anchor(site, ins, args, result=result))
            if result is not None:
                stack.append((result, site))
        elif m_ in ("drop", "nop"):
            ops = (pop(site)[0],) if m_ == "drop" else ()
            ir.anchors.append(Anchor(site, ins, ops))
        elif m_.startswith("i32.") and m_[4:] in TRAP_OPS:
            b, _ = pop(site)
            a, _ = pop(site)
            nid = new_node(
                kind=K_INPUT, origin=InputOrigin("trap-op", site=site), site=site, anchored=True
            )
            ir.anchors.append(Anchor(site, ins, (a, b), result=nid))
            stack.append((nid, site))
        else:
            op = MNEMONIC_TO_OP[m_]
            arity = PURE_OPS[op]
            popped = [pop(site) for _ in range(arity)][::-1]  # bottom -> top
            nid = new_node(
                kind=K_OP,
                op=op,
                operands=tuple(p[0] for p in popped),
                site=site,
                edge_sites=tuple(p[1] for p in popped if p[1] >= 0),
            )
            stack.append((nid, site))

    ir.exit_stack = [nid for nid, _ in stack]
    return ir


# --- pure blocks ------------------------------------------------------------


@dataclass(frozen=True)
class PureBlock:
    id: str
    func: int
    region_index: int
    root_site: int
    dag: Dag
    inputs: tuple[InputOrigin, ...]
    covered_sites: frozenset[int]
    # emission binding: region rnode id per dag node index, and the root's id
    rnode_ids: tuple[int, ...]
    root_rnode: int

    @property
    def node_count(self) -> int:
        return len(self.dag.nodes)


def _block_from_root(ir: RegionIR, region_index: int, root: int) -> PureBlock:
    nodes = ir.nodes
    reach: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in reach:
            continue
        reach.add(nid)
        stack.extend(nodes[nid].operands)
    ordered = sorted(reach)
    index_of = {rid: i for i, rid in enumerate(ordered)}

    covered: set[int] = set()
    dag_nodes = []
    inputs: list[InputOrigin] = []
    for rid in ordered:
        rn = nodes[rid]
        if rn.kind == K_INPUT:
            dag_nodes.append(DagNode(K_INPUT, input=len(inputs)))
            inputs.append(rn.origin)
            if rn.origin.kind in ("param", "local", "global") and rn.origin.site is None:
                if rid == root:
                    covered.update(rn.read_sites)
        elif rn.kind == K_CONST:
            dag_nodes.append(DagNode(K_CONST, value=rn.value))
            covered.add(rn.site)
        else:
            dag_nodes.append(
                DagNode(K_OP, op=rn.op, operands=tuple(index_of[o] for o in rn.operands))
            )
            covered.add(rn.site)
            covered.update(rn.edge_sites)

    root_site = nodes[root].site
    return PureBlock(
        id=f"f{ir.region.func}s{root_site}",
        func=ir.region.func,
        region_index=region_index,
        root_site=root_site,
        dag=Dag(tuple(dag_nodes), index_of[root]),
        inputs=tuple(inputs),
        covered_sites=frozenset(covered),
        rnode_ids=tuple(ordered),
        root_rnode=root,
    )


def extract_blocks(r: Region, m: Module, region_index: int = 0) -> list[PureBlock]:
    """One block per value-producing pure instruction.

    Every pure op roots a block. A bare producer (const, local.get,
    stable global.get) roots one only when no pure op in the region consumes
    its value, mirroring how an SSA engine sees ops as the instructions and
    bare values as operands.
    """
    if not r.live:
        return []
    ir = build_region_ir(m, r)
    consumed_by_op: set[int] = set()
    for rn in ir.nodes:
        if rn.kind == K_OP:
            consumed_by_op.update(rn.operands)

    blocks = []
    for rn in ir.nodes:
        if rn.kind == K_OP:
            blocks.append(_block_from_root(ir, region_index, rn.id))
        elif rn.id not in consumed_by_op and rn.site is not None and not rn.anchored:
            if rn.kind == K_CONST or (
                rn.kind == K_INPUT
                and rn.origin.kind in ("param", "local", "global")
            ):
                blocks.append(_block_from_root(ir, region_index, rn.id))
    blocks.sort(key=lambda b: b.root_site)
    return blocks


def blocks_overlap(a: PureBlock, b: PureBlock) -> bool:
    if a.func != b.func:
        return False
    if a.id == b.id:
        return True
    return bool(a.covered_sites & b.covered_sites)


def extract_module_blocks(m: Module) -> list[PureBlock]:
    """All pure blocks of a module, ordered by (function, root site)."""
    out: list[PureBlock] = []
    for fi in range(len(m.functions)):
        for ri, region in enumerate(build_regions(m, fi)):
            out.extend(extract_blocks(region, m, ri))
    out.sort(key=lambda b: (b.func, b.root_site))
    return out
