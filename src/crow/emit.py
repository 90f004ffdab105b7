"""Re-emit straight-line regions from their dataflow graphs.

Replacement subgraphs need not be contiguous in stack code, so an affected
region is regenerated wholesale instead of splicing instruction ranges:
anchors (loads, stores, calls, local/global writes, trap-capable ops) replay
in their original order, pure values are materialized on demand, and no
folding or simplification is ever applied to the result.

Materialization rules, in order:
  * a value known to sit in a local right now is fetched with local.get;
  * a value produced by an anchor lives in a dedicated temp local, set at
    the anchor and fetched at every use (anchors never re-execute);
  * accessible entry-stack values are spilled to temps in a prologue;
  * anything pure is (re-)emitted, duplicating work when a value has many
    uses, which is sound because the block is pure.

Substituted block roots emit their candidate DAG instead; the candidate's
own input leaves bypass that substitution so a replacement for a bare value
cannot recurse into itself.
"""

from __future__ import annotations

from .ir import (
    Dag,
    K_CONST,
    K_INPUT,
    K_OP,
    OP_TO_MNEMONIC,
    RegionIR,
    build_region_ir,
    build_regions,
)
from .wat import FuncDef, Instr, Module, wrap_i32

# substitution map: root rnode id -> (candidate dag, input ordinal -> rnode id)
Substitutions = dict[int, tuple[Dag, dict[int, int]]]


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
            out.append(Instr(OP_TO_MNEMONIC[n.op]))

    walk(dag.root)
    return out


def emit_region(
    ir: RegionIR, substitutions: Substitutions, temp_base: int
) -> tuple[list[Instr], int]:
    """Returns (instructions, number of temp locals used)."""
    nodes = ir.nodes
    out: list[Instr] = []
    temps_used = 0

    def new_temp() -> int:
        nonlocal temps_used
        t = temp_base + temps_used
        temps_used += 1
        return t

    def canon(rid: int, skip: frozenset):
        if rid in substitutions and rid not in skip:
            return ("sub", rid)
        return rid

    # value identity -> local currently holding it, and the reverse
    value_local: dict[object, int] = {}
    local_value: dict[int, object] = {}

    def bind(local: int, key: object):
        old = local_value.get(local)
        if old is not None and value_local.get(old) == local:
            del value_local[old]
        local_value[local] = key
        value_local[key] = local

    # Prologue 1: spill consumed entry-stack values, top first.
    for k in range(ir.entry_used):
        depth = ir.region.entry_arity - 1 - k
        t = new_temp()
        out.append(Instr("local.set", t))
        bind(t, ir.entry_nodes[depth])

    # Prologue 2: stash entry values of locals the region overwrites.
    written_locals = {
        a.instr.immediate
        for a in ir.anchors
        if a.instr.mnemonic in ("local.set", "local.tee")
    }
    for rn in nodes:
        if (
            rn.kind == K_INPUT
            and rn.origin is not None
            and rn.origin.kind in ("param", "local")
            and rn.origin.index in written_locals
        ):
            t = new_temp()
            out.append(Instr("local.get", rn.origin.index))
            out.append(Instr("local.set", t))
            bind(t, rn.id)

    # Entry values of locals never overwritten stay readable in place.
    for rn in nodes:
        if (
            rn.kind == K_INPUT
            and rn.origin is not None
            and rn.origin.kind in ("param", "local")
            and rn.origin.index not in written_locals
        ):
            bind(rn.origin.index, rn.id)

    def materialize(rid: int, skip: frozenset):
        key = canon(rid, skip)
        if key in value_local:
            out.append(Instr("local.get", value_local[key]))
            return
        if rid in substitutions and rid not in skip:
            dag, binding = substitutions[rid]
            emit_candidate(dag, dag.root, binding, skip | {rid})
            return
        rn = nodes[rid]
        if rn.kind == K_CONST:
            out.append(Instr("i32.const", wrap_i32(rn.value)))
        elif rn.kind == K_OP:
            for o in rn.operands:
                materialize(o, skip)
            out.append(Instr(OP_TO_MNEMONIC[rn.op]))
        else:
            origin = rn.origin
            if origin.kind in ("param", "local"):
                out.append(Instr("local.get", origin.index))
            elif origin.kind == "global" and origin.site is None:
                out.append(Instr("global.get", origin.index))
            else:  # pragma: no cover - anchored values always sit in temps
                raise AssertionError(f"no materialization for {origin}")

    def emit_candidate(dag: Dag, idx: int, binding: dict[int, int], skip: frozenset):
        n = dag.nodes[idx]
        if n.kind == K_CONST:
            out.append(Instr("i32.const", wrap_i32(n.value)))
        elif n.kind == K_INPUT:
            materialize(binding[n.input], skip)
        else:
            for o in n.operands:
                emit_candidate(dag, o, binding, skip)
            out.append(Instr(OP_TO_MNEMONIC[n.op]))

    none = frozenset()
    for anchor in ir.anchors:
        for op in anchor.operands:
            materialize(op, none)
        m_ = anchor.instr.mnemonic
        if m_ == "local.tee":
            # the pushed copy is re-materialized on demand
            out.append(Instr("local.set", anchor.instr.immediate))
        else:
            out.append(anchor.instr)
        if anchor.result is not None:
            t = new_temp()
            out.append(Instr("local.set", t))
            bind(t, anchor.result)
        if m_ in ("local.set", "local.tee"):
            bind(anchor.instr.immediate, canon(anchor.operands[0], none))

    for rid in ir.exit_stack:
        materialize(rid, none)
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
            instrs, used = emit_region(build_region_ir(m, region), subs, temp_base)
            temp_base += used
            body.extend(instrs)
        else:
            body.extend(f.body[region.start : region.end])
        pos = region.end
    body.extend(f.body[pos:])
    new_locals = f.locals + (temp_base - f.params - f.locals)
    return FuncDef(f.params, f.results, new_locals, tuple(body))
