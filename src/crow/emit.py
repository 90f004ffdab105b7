"""Re-emit straight-line regions from their dataflow graphs.

Replacement subgraphs need not be contiguous in stack code, so an affected
region is regenerated wholesale instead of splicing instruction ranges. This
takes two steps over one graph:

  * `substitute` returns the variant's region IR. Each candidate's ops and
    constants join the region's nodes, a candidate's input leaf is the
    block's own input node, and every use of a replaced root outside its
    candidate (op operands, anchor operands, the exit stack) points at the
    candidate's root.
  * `emit_region` materializes that graph. Anchors (loads, stores, calls,
    local/global writes, trap-capable ops) replay in their original order,
    pure values are materialized on demand, and no folding or
    simplification is ever applied to the result.

Every input value stays in a local for the whole region: a param or local
the region never writes is read in place, and every other input (an
entry-stack value, an anchor's result, the entry value of a local the region
writes) is set once into a temp that nothing else writes. The one input
without a local is a global that no in-region writer pins, re-read with
global.get. One record says which node each local holds. A value some local
holds is fetched from the local that took it last; a pure value no local
holds is (re-)emitted, duplicating work when it has many uses, which is
sound because it is pure.
"""

from __future__ import annotations

from dataclasses import replace

from .ir import (
    Dag,
    K_CONST,
    K_INPUT,
    K_OP,
    OP_TO_MNEMONIC,
    RNode,
    RegionIR,
    build_region_ir,
    build_regions,
)
from .wat import FuncDef, Instr, Module, wrap_i32

# substitution map: root rnode id -> (candidate dag, rnode id per input ordinal)
Substitutions = dict[int, tuple[Dag, tuple[int, ...]]]

# One instruction per pure op; an Instr is immutable, so emitted bodies share them.
OP_INSTR = {op: Instr(mnemonic) for op, mnemonic in OP_TO_MNEMONIC.items()}


def emit_dag(dag: Dag) -> list[Instr]:
    """Standalone post-order emission; input ordinal k becomes local.get k."""
    out: list[Instr] = []

    def walk(i: int):
        n = dag.nodes[i]
        if n.kind == K_CONST:
            out.append(Instr("i32.const", wrap_i32(n.value)))
        elif n.kind == K_INPUT:
            out.append(Instr("local.get", n.input))
        else:
            for o in n.operands:
                walk(o)
            out.append(OP_INSTR[n.op])

    walk(dag.root)
    return out


def substitute(ir: RegionIR, substitutions: Substitutions) -> RegionIR:
    """The variant's region IR: the region's nodes, then each candidate's ops
    and constants. A candidate's input leaf is the block's input node, and
    every use of a replaced root outside its candidate points at the
    candidate's root. `ir` is left as it is."""
    nodes = list(ir.nodes)
    root_of: dict[int, int] = {}  # replaced root -> its candidate's root
    for rid, (dag, binding) in substitutions.items():
        at: list[int] = []  # node id per candidate node
        for n in dag.nodes:
            if n.kind == K_INPUT:
                at.append(binding[n.input])
            else:
                at.append(len(nodes))  # an op or a const: no origin
                nodes.append(RNode(len(nodes), n.kind, n.op, n.value, None,
                                   tuple([at[o] for o in n.operands])))
        root_of[rid] = at[dag.root]

    def redirect(ids) -> tuple[int, ...]:
        return tuple([root_of.get(i, i) for i in ids])

    roots = root_of.keys()
    for rn in ir.nodes:
        if rn.operands and not roots.isdisjoint(rn.operands):
            nodes[rn.id] = replace(rn, operands=redirect(rn.operands))
    anchors = [a if roots.isdisjoint(a.operands) else replace(a, operands=redirect(a.operands))
               for a in ir.anchors]
    exit_stack = [root_of.get(i, i) for i in ir.exit_stack]
    return RegionIR(ir.region, nodes, anchors, exit_stack, ir.entry_nodes)


def emit_region(ir: RegionIR, temp_base: int) -> tuple[list[Instr], int]:
    """Returns (instructions, number of temp locals used)."""
    nodes = ir.nodes
    out: list[Instr] = []
    temps_used = 0

    def new_temp() -> int:
        nonlocal temps_used
        t = temp_base + temps_used
        temps_used += 1
        return t

    # What each local holds: local -> node id, and node id -> the locals
    # holding it, most recent bind last (a dict keeps insertion order).
    holds: dict[int, int] = {}
    held_in: dict[int, dict[int, None]] = {}

    def bind(local: int, nid: int):
        old = holds.get(local)
        if old is not None:
            del held_in[old][local]
        holds[local] = nid
        held_in.setdefault(nid, {})[local] = None

    # Prologue 1: spill consumed entry-stack values, top first.
    for nid in ir.entry_nodes:
        t = new_temp()
        out.append(Instr("local.set", t))
        bind(t, nid)

    # Prologue 2: stash entry values of locals the region overwrites; the
    # entry values of locals never overwritten stay readable in place.
    written_locals = {a.instr.immediate for a in ir.anchors if a.instr.mnemonic == "local.set"}
    for rn in nodes:
        if rn.kind == K_INPUT and rn.origin.kind in ("param", "local"):
            if rn.origin.index in written_locals:
                t = new_temp()
                out.append(Instr("local.get", rn.origin.index))
                out.append(Instr("local.set", t))
                bind(t, rn.id)
            else:
                bind(rn.origin.index, rn.id)

    def materialize(rid: int):
        """Emits the value of node `rid`. Pending work sits on an explicit
        stack, so a deep pure chain is not bounded by Python's recursion
        limit: a node id, or an Instr to append. Operands are pushed last
        first, so they are emitted in order."""
        work: list = [rid]
        while work:
            item = work.pop()
            if isinstance(item, Instr):
                out.append(item)
                continue
            rn = nodes[item]
            held = held_in.get(item)
            if held:
                out.append(Instr("local.get", next(reversed(held))))
            elif rn.kind == K_CONST:
                out.append(Instr("i32.const", wrap_i32(rn.value)))
            elif rn.kind == K_OP:
                work.append(OP_INSTR[rn.op])
                work.extend(reversed(rn.operands))
            elif rn.origin.kind == "global" and rn.origin.site is None:
                out.append(Instr("global.get", rn.origin.index))
            else:  # pragma: no cover - every other input stays in a local
                raise AssertionError(f"no materialization for {rn.origin}")

    for anchor in ir.anchors:
        for op in anchor.operands:
            materialize(op)
        out.append(anchor.instr)
        if anchor.result is not None:
            t = new_temp()
            out.append(Instr("local.set", t))
            bind(t, anchor.result)
        if anchor.instr.mnemonic == "local.set":
            bind(anchor.instr.immediate, anchor.operands[0])

    for rid in ir.exit_stack:
        materialize(rid)
    return out, temps_used


def reemit_function(
    m: Module, fn_index: int, region_subs: dict[int, Substitutions]
) -> FuncDef:
    """Rebuilds one function body with the given per-region substitutions;
    unaffected regions and all control instructions are copied verbatim."""
    f = m.functions[fn_index]
    regions = build_regions(m, fn_index)
    body: list[Instr] = []
    pos = 0
    temp_base = f.params + f.locals
    for ri, region in enumerate(regions):
        body.extend(f.body[pos : region.start])
        subs = region_subs.get(ri)
        if subs:
            ir = substitute(build_region_ir(m, region), subs)
            instrs, used = emit_region(ir, temp_base)
            temp_base += used
            body.extend(instrs)
        else:
            body.extend(f.body[region.start : region.end])
        pos = region.end
    body.extend(f.body[pos:])
    new_locals = f.locals + (temp_base - f.params - f.locals)
    return FuncDef(f.params, f.results, new_locals, tuple(body))
