"""Workflow orchestration and on-disk formats.

The replacement store and the variant manifest are JSON, dumped with sorted
keys; together with seeded sampling and work-unit (not wall-clock) budget
accounting this makes whole runs byte-reproducible for a fixed seed, at any
worker count. Per-block synthesis and per-variant tracing fan out to a
process pool (a variant travels as its emitted `Module`) and results come back
in task order, so scheduling cannot reorder anything. Each command extracts
the module's blocks once and passes them from exploration, or from the store,
into generation.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__, metrics
from .equiv import CheckerConfig
from .interp import DEFAULT_FUEL, Outcome, Trace, instantiate, invoke
from .ir import Dag, DagNode, PureBlock, extract_module_blocks
from .metrics import TokenSeq, dt_dyn, tokenize
from .synth import (
    BlockSynthesis,
    Candidate,
    Replacement,
    SynthesisConfig,
    synthesize_replacements,
)
from .variants import (
    ReplacementSet,
    Variant,
    content_digest,
    dedup_variants,
    enumerate_combinations,
    make_variant,
    plan_count,
    resolve_overlaps,
)
from .wat import Module, print_module

STORE_FORMAT = "crow-replacement-store v1"
MANIFEST_FORMAT = "crow-manifest v1"

SIGNIFICANT_DYNAMIC = 0.8  # normalized dt_dyn at or above this is flagged
SIZE_ENVELOPE = (0.5, 2.0)  # token-count ratio sanity bounds


@dataclass(frozen=True)
class RunConfig:
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    checker: CheckerConfig = field(default_factory=CheckerConfig)
    max_variants: int = 256
    rank_by_diff: bool = False
    strict: bool = False  # consume only verified replacements
    jobs: int = 1
    timeout_seconds: float = 60.0
    seed: int = 0
    invoke_name: str = "main"
    invoke_args: tuple[int, ...] = ()
    fuel: int = DEFAULT_FUEL

    def validate(self) -> list[str]:
        errs = self.synthesis.validate() + self.checker.validate()
        if self.jobs < 1:
            errs.append("jobs must be >= 1")
        if self.timeout_seconds <= 0:
            errs.append("timeout must be positive")
        if self.max_variants < 1:
            errs.append("max-variants must be >= 1")
        return errs


# --- exploration ----------------------------------------------------------------


def _fan_out(fn, tasks: list, jobs: int) -> list:
    """`fn` over `tasks`, results in task order: on a pool of `jobs` worker
    processes when there is more than one of each, else in this process."""
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _synth_task(args) -> BlockSynthesis:
    block, synth_cfg, checker_cfg, budget = args
    return synthesize_replacements(block, synth_cfg, checker_cfg, budget_seconds=budget)


def explore_module(m: Module, cfg: RunConfig) -> list[BlockSynthesis]:
    """Synthesizes replacements for every block, splitting the global budget
    equally across the blocks eligible for synthesis."""
    blocks = extract_module_blocks(m)
    eligible = [b for b in blocks if b.node_count <= cfg.synthesis.max_block_nodes]
    per_block = cfg.timeout_seconds / max(len(eligible), 1)
    tasks = [(b, cfg.synthesis, cfg.checker, per_block) for b in blocks]
    return _fan_out(_synth_task, tasks, cfg.jobs)


# --- store serialization -----------------------------------------------------------


def dag_to_json(dag: Dag) -> dict:
    nodes = []
    for n in dag.nodes:
        if n.kind == "const":
            nodes.append({"kind": "const", "value": n.value})
        elif n.kind == "input":
            nodes.append({"kind": "input", "input": n.input})
        else:
            nodes.append({"kind": "op", "op": n.op, "operands": list(n.operands)})
    return {"nodes": nodes, "root": dag.root}


def dag_from_json(data: dict) -> Dag:
    nodes = []
    for n in data["nodes"]:
        if n["kind"] == "const":
            nodes.append(DagNode("const", value=n["value"]))
        elif n["kind"] == "input":
            nodes.append(DagNode("input", input=n["input"]))
        else:
            nodes.append(DagNode("op", op=n["op"], operands=tuple(n["operands"])))
    return Dag(tuple(nodes), data["root"])


def store_to_json(m: Module, cfg: RunConfig, results: list[BlockSynthesis]) -> dict:
    return {
        "format": STORE_FORMAT,
        "tool_version": __version__,
        "module_digest": content_digest(print_module(m)),
        "config": {
            "max_size": cfg.synthesis.max_size,
            "vocabulary": sorted(cfg.synthesis.vocabulary.ops)
            + (["const"] if cfg.synthesis.vocabulary.allow_const else []),
            "seed": cfg.synthesis.seed,
            "timeout_seconds": cfg.timeout_seconds,
            "checker_mode": cfg.checker.mode,
        },
        "budget_exhausted": any(r.stopped == "budget" for r in results),
        "blocks": [
            {
                "id": r.block.id,
                "function": r.block.func,
                "root_site": r.block.root_site,
                "node_count": r.block.node_count,
                "inputs": [str(o) for o in r.block.inputs],
                "dag": dag_to_json(r.block.dag),
                "stopped": r.stopped,
                "skipped_reason": r.skipped_reason,
                "candidates_seen": r.candidates_seen,
                "work_units": r.work_units,
                "replacements": [
                    {
                        "id": i,
                        "dag": dag_to_json(rep.candidate.dag),
                        "tier": rep.tier,
                        "method": rep.method,
                        "emitted_len": rep.emitted_len,
                        "enum_index": rep.candidate.index,
                    }
                    for i, rep in enumerate(r.replacements)
                ],
            }
            for r in results
        ],
    }


class StoreMismatchError(ValueError):
    """The store was produced from a different module."""


def replacements_from_store(
    m: Module, store: dict
) -> tuple[list[PureBlock], dict[str, list[Replacement]]]:
    """Pairs stored replacements with blocks re-extracted from the module and
    returns both; any disagreement means the store belongs to a different
    module."""
    if store.get("format") != STORE_FORMAT:
        raise StoreMismatchError("not a replacement store")
    digest = content_digest(print_module(m))
    if store.get("module_digest") != digest:
        raise StoreMismatchError("store/module digest mismatch")
    blocks = extract_module_blocks(m)
    ids = {b.id for b in blocks}
    out: dict[str, list[Replacement]] = {}
    for entry in store["blocks"]:
        bid = entry["id"]
        if bid not in ids:
            raise StoreMismatchError(f"store references unknown block {bid}")
        out[bid] = [
            Replacement(
                block_id=bid,
                candidate=Candidate(dag_from_json(rep["dag"]), rep["enum_index"]),
                tier=rep["tier"],
                method=rep["method"],
                emitted_len=rep["emitted_len"],
            )
            for rep in entry["replacements"]
        ]
    return blocks, out


# --- generation ---------------------------------------------------------------------

RANK_OVERSAMPLE = 4


@dataclass
class StaticMeasure:
    """`dt_static` and token count of variants against one original, which is
    tokenized once; each distinct variant text is measured once."""

    original: TokenSeq
    seen: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __call__(self, v: Variant) -> tuple[int, int]:
        if v.digest not in self.seen:
            toks = tokenize(v.module)
            # `metrics.dtw` is looked up per call, so wrappers of it see the call
            self.seen[v.digest] = (metrics.dtw(self.original, toks).cost, len(toks))
        return self.seen[v.digest]


@dataclass
class GenerationResult:
    resolved: ReplacementSet
    variants: list[Variant]
    plans_total: int
    truncated: bool
    dropped_duplicates: int
    static: StaticMeasure  # against the original; holds every ranked variant


def generate_variants(
    m: Module, blocks: list[PureBlock], replacements: dict[str, list[Replacement]],
    cfg: RunConfig,
) -> GenerationResult:
    """Variants of `m` from the replacements of its `blocks`, as extracted
    by exploration or by `replacements_from_store`."""
    if cfg.strict:
        replacements = {
            bid: [r for r in reps if r.tier == "verified"]
            for bid, reps in replacements.items()
        }
    resolved = resolve_overlaps(blocks, replacements)
    total = plan_count(resolved)
    limit = cfg.max_variants * RANK_OVERSAMPLE if cfg.rank_by_diff else cfg.max_variants
    plans, truncated = enumerate_combinations(resolved, limit=limit, seed=cfg.seed)
    variants = [make_variant(m, resolved, p) for p in plans]
    static = StaticMeasure(tokenize(m))
    if cfg.rank_by_diff:
        variants.sort(key=lambda v: -static(v)[0])
        truncated = truncated or len(variants) > cfg.max_variants
    unique = dedup_variants(variants, taken={print_module(m)})
    dropped = len(variants) - len(unique)
    unique = unique[: cfg.max_variants]
    return GenerationResult(
        resolved=resolved,
        variants=unique,
        plans_total=total,
        truncated=truncated,
        dropped_duplicates=dropped,
        static=static,
    )


# --- tracing & measurement ------------------------------------------------------------


def trace_module(
    m: Module, entry: str, args: list[int], fuel: int = DEFAULT_FUEL
) -> tuple[Outcome, Trace]:
    return invoke(instantiate(m, fuel=fuel), entry, args)


# --- the full pipeline -----------------------------------------------------------------


@dataclass
class VariantReport:
    variant: Variant
    verified: bool
    dt_static: int
    token_ratio: float
    size_flag: bool
    outcome: Outcome | None = None
    dt_dyn: int | None = None
    normalized_dt_dyn: float | None = None
    trace_identical: bool | None = None
    trace: Trace | None = None


@dataclass
class DiversifyResult:
    exploration: list[BlockSynthesis] | None
    generation: GenerationResult
    reports: list[VariantReport]
    original_outcome: Outcome | None
    original_trace: Trace | None
    outcome_mismatches: int


def _variant_report(gen: GenerationResult, v: Variant) -> VariantReport:
    chosen = [
        gen.resolved.replacements[bid][idx] for bid, idx in v.plan.choices.items()
    ]
    cost, n_tokens = gen.static(v)
    ratio = n_tokens / max(len(gen.static.original), 1)
    return VariantReport(
        variant=v,
        verified=all(r.tier == "verified" for r in chosen),
        dt_static=cost,
        token_ratio=ratio,
        size_flag=not (SIZE_ENVELOPE[0] <= ratio <= SIZE_ENVELOPE[1]),
    )


def _trace_task(args):
    module, entry, invoke_args, fuel = args
    return trace_module(module, entry, list(invoke_args), fuel)


def diversify(m: Module, cfg: RunConfig, do_trace: bool = True) -> DiversifyResult:
    exploration = explore_module(m, cfg)
    blocks = [r.block for r in exploration]
    replacements = {r.block.id: r.replacements for r in exploration}
    return report_variants(m, blocks, replacements, cfg, do_trace, exploration)


def report_variants(
    m: Module, blocks: list[PureBlock], replacements: dict[str, list[Replacement]],
    cfg: RunConfig, do_trace: bool = False,
    exploration: list[BlockSynthesis] | None = None,
) -> DiversifyResult:
    """Generates the variants and reports on each one. With `do_trace`, runs
    the entry on the original and every variant (each traced from its
    emitted `Module`) and drops variants whose outcome differs.
    `exploration` is None when the replacements come from a store."""
    gen = generate_variants(m, blocks, replacements, cfg)
    reports = [_variant_report(gen, v) for v in gen.variants]

    original_outcome = None
    original_trace = None
    mismatches = 0
    if do_trace and cfg.invoke_name in m.exports:
        original_outcome, original_trace = trace_module(
            m, cfg.invoke_name, list(cfg.invoke_args), cfg.fuel
        )
        tasks = [
            (r.variant.module, cfg.invoke_name, cfg.invoke_args, cfg.fuel) for r in reports
        ]
        traced = _fan_out(_trace_task, tasks, cfg.jobs)
        kept = []
        for report, (outcome, trace) in zip(reports, traced):
            if outcome != original_outcome:
                # a probable-tier replacement lied; the variant is dropped
                mismatches += 1
                continue
            report.outcome = outcome
            report.trace = trace
            report.dt_dyn = dt_dyn(original_trace, trace)
            if len(original_trace) > 0:
                report.normalized_dt_dyn = report.dt_dyn / len(original_trace)
            report.trace_identical = report.dt_dyn == 0
            kept.append(report)
        reports = kept
    return DiversifyResult(
        exploration=exploration,
        generation=gen,
        reports=reports,
        original_outcome=original_outcome,
        original_trace=original_trace,
        outcome_mismatches=mismatches,
    )


# --- manifest ---------------------------------------------------------------------------


def manifest_to_json(
    m: Module,
    cfg: RunConfig,
    result: DiversifyResult,
    original_file: str,
    variant_files: list[str],
) -> dict:
    exp = result.exploration
    entries = []
    for report, fname in zip(result.reports, variant_files):
        entry = {
            "file": fname,
            "digest": report.variant.digest,
            "plan": {bid: idx for bid, idx in sorted(report.variant.plan.choices.items())},
            "verified": report.verified,
            "dt_static": report.dt_static,
            "token_ratio": round(report.token_ratio, 6),
            "size_flag": report.size_flag,
        }
        if report.outcome is not None:
            entry["outcome"] = str(report.outcome)
            entry["dt_dyn"] = report.dt_dyn
            entry["trace_identical"] = report.trace_identical
            if report.normalized_dt_dyn is not None:
                entry["normalized_dt_dyn"] = round(report.normalized_dt_dyn, 6)
                entry["significant_dynamic"] = (
                    report.normalized_dt_dyn >= SIGNIFICANT_DYNAMIC
                )
        entries.append(entry)
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "original": {
            "file": original_file,
            "digest": content_digest(print_module(m)),
        },
        "entry": cfg.invoke_name,
        "generation": {
            "plans_total": result.generation.plans_total,
            "truncated": result.generation.truncated,
            "dropped_duplicates": result.generation.dropped_duplicates,
            "dropped_overlaps": dict(sorted(result.generation.resolved.dropped.items())),
            "outcome_mismatches": result.outcome_mismatches,
            "emitted": len(result.reports),
        },
        "variants": entries,
    }
    if exp is not None:  # a run from a store leaves exploration to its explore
        manifest["exploration"] = {
            "blocks_found": len(exp),
            "budget_exhausted": any(r.stopped == "budget" for r in exp),
            "work_units": sum(r.work_units for r in exp),
            "replacements": {
                r.block.id: {
                    "count": len(r.replacements),
                    "verified": sum(1 for x in r.replacements if x.tier == "verified"),
                    "probable": sum(1 for x in r.replacements if x.tier == "probable"),
                    "stopped": r.stopped,
                }
                for r in exp
            },
        }
    return manifest


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
