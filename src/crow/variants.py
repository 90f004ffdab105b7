"""Turn per-block replacements into unique module variants.

Overlapping blocks are resolved first (largest block count wins, ties to the
earliest root), then the power set of replacement choices is enumerated as a
mixed-radix product; each plan re-emits the affected regions, and identical
outputs collapse on canonical text. Everything is deterministic in
(module, replacements, limit, seed).
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field

from .emit import reemit_function
from .ir import Dag, K_INPUT, PureBlock, blocks_overlap
from .synth import Replacement
from .wat import Module, print_module, validate


@dataclass(frozen=True)
class ReplacementSet:
    """Replacements keyed by block id over mutually non-overlapping blocks."""

    blocks: dict[str, PureBlock]
    replacements: dict[str, list[Replacement]]
    dropped: dict[str, str] = field(default_factory=dict)  # block id -> reason

    def order(self) -> list[str]:
        return sorted(self.blocks, key=lambda k: (self.blocks[k].func, self.blocks[k].root_site))


@dataclass(frozen=True)
class VariantPlan:
    """Chosen replacement index per block id; blocks absent keep the original.
    At least one block must have a choice."""

    choices: dict[str, int]

    def __post_init__(self):
        if not self.choices:
            raise ValueError("a plan must replace at least one block")


@dataclass(frozen=True)
class Variant:
    module: Module
    plan: VariantPlan
    text: str
    digest: str


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def resolve_overlaps(
    blocks: list[PureBlock], replacements: dict[str, list[Replacement]]
) -> ReplacementSet:
    """Keeps, within any overlapping group, only the block with the largest
    DAG node count (ties to the earliest root site). Only blocks that
    actually hold replacements compete."""
    holders = [b for b in blocks if replacements.get(b.id)]
    holders.sort(key=lambda b: (-b.node_count, b.func, b.root_site))
    kept: list[PureBlock] = []
    dropped: dict[str, str] = {}
    for b in holders:
        winner = next((k for k in kept if blocks_overlap(b, k)), None)
        if winner is None:
            kept.append(b)
        else:
            dropped[b.id] = f"overlaps {winner.id}"
    return ReplacementSet(
        blocks={b.id: b for b in kept},
        replacements={b.id: list(replacements[b.id]) for b in kept},
        dropped=dropped,
    )


def plan_count(s: ReplacementSet) -> int:
    total = 1
    for bid in s.order():
        total *= 1 + len(s.replacements[bid])
    return total - 1  # minus the all-original choice


def _decode_plan(s: ReplacementSet, order: list[str], code: int) -> VariantPlan:
    """Mixed-radix decoding; digit 0 keeps the original block."""
    choices = {}
    for bid in order:
        radix = 1 + len(s.replacements[bid])
        digit = code % radix
        code //= radix
        if digit:
            choices[bid] = digit - 1
    return VariantPlan(choices)


def enumerate_combinations(
    s: ReplacementSet, limit: int, seed: int = 0
) -> tuple[list[VariantPlan], bool]:
    """All replacement combinations except the all-original one; a seeded
    uniform sample of `limit` plans (with a truncation flag) when the full
    product is larger."""
    order = s.order()
    total = plan_count(s)
    if total <= 0:
        return [], False
    truncated = total > limit
    if truncated:
        rng = random.Random(seed)
        if total <= sys.maxsize:
            codes = sorted(rng.sample(range(1, total + 1), limit))
        else:  # a range this long has no len(), so sample() cannot take it
            picked: set[int] = set()
            while len(picked) < limit:
                picked.add(rng.randrange(1, total + 1))
            codes = sorted(picked)
    else:
        codes = range(1, total + 1)
    return [_decode_plan(s, order, code) for code in codes], truncated


def candidate_binding(block: PureBlock) -> dict[int, int]:
    """Maps candidate input ordinals to the block's region node ids."""
    return {
        node.input: block.rnode_ids[i]
        for i, node in enumerate(block.dag.nodes)
        if node.kind == K_INPUT
    }


def apply_plan(m: Module, s: ReplacementSet, plan: VariantPlan) -> Module:
    """Re-emits every affected region with the chosen candidate subgraphs
    substituted; signatures, exports, and unaffected regions are unchanged."""
    per_function: dict[int, dict[int, dict[int, tuple[Dag, dict[int, int]]]]] = {}
    for bid, choice in plan.choices.items():
        block = s.blocks[bid]
        dag = s.replacements[bid][choice].candidate.dag
        per_function.setdefault(block.func, {}).setdefault(block.region_index, {})[
            block.root_rnode
        ] = (dag, candidate_binding(block))
    functions = list(m.functions)
    for fn_index, region_subs in per_function.items():
        functions[fn_index] = reemit_function(m, fn_index, region_subs)
    out = Module(
        functions=tuple(functions),
        globals=m.globals,
        memory=m.memory,
        exports=dict(m.exports),
    )
    diags = validate(out)
    if diags:  # pragma: no cover - emission must stay closed over validity
        raise AssertionError(f"emitted variant does not validate: {diags[0]}")
    return out


def dedup_variants(variants: list[Variant], taken: set[str] | None = None) -> list[Variant]:
    """First occurrence per canonical text wins; `taken` seeds the seen-set
    (e.g. with the original program's text) so clones of it are dropped."""
    seen = set(taken or ())
    out = []
    for v in variants:
        if v.text not in seen:
            seen.add(v.text)
            out.append(v)
    return out


def make_variant(m: Module, s: ReplacementSet, plan: VariantPlan) -> Variant:
    module = apply_plan(m, s, plan)
    text = print_module(module)
    return Variant(module=module, plan=plan, text=text, digest=content_digest(text))
