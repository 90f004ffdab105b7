"""Workflow orchestration and on-disk formats.

The replacement store and the variant manifest are JSON, dumped with sorted
keys; together with seeded sampling and work-unit (not wall-clock) budget
accounting this makes whole runs byte-reproducible for a fixed seed, at any
worker count. Per-block synthesis and per-variant tracing fan out to a
process pool (a variant travels as its emitted `Module`) and results come back
in task order, so scheduling cannot reorder anything. Each command extracts
the module's blocks once and passes them from exploration, or from the store,
into generation. `diversify` runs CROW's stages in order: it runs the entry
on the original first, so that an entry it cannot invoke fails before any
synthesis, then explores, generates and measures each unique variant once,
and traces the variants.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__, metrics
from .equiv import TIER_METHODS, CheckerConfig, ConfigError
from .interp import DEFAULT_FUEL, Outcome, Trace, instantiate, invoke
from .ir import Dag, DagNode, PureBlock, extract_module_blocks
from .metrics import dt_dyn, tokenize
from .synth import (
    WORK_UNITS_PER_SECOND,
    BlockSynthesis,
    Candidate,
    Replacement,
    SynthesisConfig,
    skip_reason,
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
from .wat import INT32_MAX, INT32_MIN, Module, print_module

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

    def __post_init__(self):
        errs = []
        if self.jobs < 1:
            errs.append("jobs must be >= 1")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            errs.append("timeout must be finite and positive")
        if self.max_variants < 1:
            errs.append("max-variants must be >= 1")
        if self.fuel < 0:
            errs.append("fuel must be >= 0")
        if errs:
            raise ConfigError("; ".join(errs))


# --- exploration ----------------------------------------------------------------


def _fan_out(fn, tasks: list, jobs: int) -> list:
    """`fn` over `tasks`, results in task order: on a pool of at most `jobs`
    worker processes, one per task, when there is more than one of each, else
    in this process."""
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _synth_task(args) -> BlockSynthesis:
    return synthesize_replacements(*args)


def explore_module(m: Module, cfg: RunConfig) -> list[BlockSynthesis]:
    """Synthesizes replacements for every block, splitting the global budget,
    converted once to work units, equally across the blocks eligible for
    synthesis."""
    blocks = extract_module_blocks(m)
    eligible = [b for b in blocks if skip_reason(b, cfg.checker) is None]
    quota = int(cfg.timeout_seconds / max(len(eligible), 1) * WORK_UNITS_PER_SECOND)
    tasks = [(b, cfg.synthesis, cfg.checker, quota, cfg.seed) for b in blocks]
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
            "seed": cfg.seed,
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
    """The store was produced from a different module, or is malformed."""


def _stored_replacement(block: PureBlock, rep: dict) -> Replacement:
    dag = dag_from_json(rep["dag"])
    for n in dag.nodes:
        if n.kind == "input" and not 0 <= n.input < len(block.inputs):
            raise ValueError(f"input {n.input} of a {len(block.inputs)}-input block")
        if n.kind == "const" and not (type(n.value) is int and INT32_MIN <= n.value <= INT32_MAX):
            raise ValueError(f"constant {n.value!r} is not an i32")
    if rep["method"] not in TIER_METHODS.get(rep["tier"], ()):
        raise ValueError(f"tier {rep['tier']!r} with method {rep['method']!r}")
    for key in ("enum_index", "emitted_len"):
        if type(rep[key]) is not int:
            raise ValueError(f"{key} {rep[key]!r} is not an int")
    return Replacement(candidate=Candidate(dag, rep["enum_index"]),
                       tier=rep["tier"], method=rep["method"], emitted_len=rep["emitted_len"])


def replacements_from_store(
    m: Module, store: dict
) -> tuple[list[PureBlock], dict[str, list[Replacement]]]:
    """Pairs stored replacements with blocks re-extracted from the module and
    returns both; any disagreement means the store belongs to a different
    module, and an entry that does not decode is a malformed store."""
    if not isinstance(store, dict) or store.get("format") != STORE_FORMAT:
        raise StoreMismatchError("not a replacement store")
    digest = content_digest(print_module(m))
    if store.get("module_digest") != digest:
        raise StoreMismatchError("store/module digest mismatch")
    blocks = extract_module_blocks(m)
    by_id = {b.id: b for b in blocks}
    out: dict[str, list[Replacement]] = {}
    try:
        for entry in store["blocks"]:
            block = by_id.get(entry["id"])
            if block is None:
                raise StoreMismatchError(f"store references unknown block {entry['id']}")
            if block.id in out:
                raise StoreMismatchError(f"store lists block {block.id} twice")
            out[block.id] = [_stored_replacement(block, rep) for rep in entry["replacements"]]
    except StoreMismatchError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as e:
        raise StoreMismatchError(f"malformed replacement store: {e!r}") from None
    return blocks, out


# --- generation ---------------------------------------------------------------------

RANK_OVERSAMPLE = 4


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
class GenerationResult:
    resolved: ReplacementSet
    reports: list[VariantReport]  # one per unique variant, untraced
    plans_total: int
    truncated: bool
    dropped_duplicates: int


def generate_variants(
    m: Module, blocks: list[PureBlock], replacements: dict[str, list[Replacement]],
    cfg: RunConfig,
) -> GenerationResult:
    """Variants of `m` from the replacements of its `blocks`, as extracted
    by exploration or by `replacements_from_store`, each measured once.
    Duplicates share their text, so a stable sort of the unique variants
    by `dt_static` keeps the order that ranking every copy would give."""
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
    unique = dedup_variants(variants, taken={print_module(m)})
    original = tokenize(m)
    reports = []
    for v in unique:
        toks = tokenize(v.module)
        ratio = len(toks) / max(len(original), 1)
        chosen = [resolved.replacements[bid][idx] for bid, idx in v.plan.choices.items()]
        reports.append(VariantReport(
            variant=v,
            verified=all(r.tier == "verified" for r in chosen),
            # `metrics.dtw` is looked up per call, so wrappers of it see the call
            dt_static=metrics.dtw(original, toks).cost,
            token_ratio=ratio,
            size_flag=not (SIZE_ENVELOPE[0] <= ratio <= SIZE_ENVELOPE[1]),
        ))
    if cfg.rank_by_diff:
        reports.sort(key=lambda r: -r.dt_static)
        truncated = truncated or len(variants) > cfg.max_variants
    return GenerationResult(
        resolved=resolved,
        reports=reports[: cfg.max_variants],
        plans_total=total,
        truncated=truncated,
        dropped_duplicates=len(variants) - len(unique),
    )


# --- tracing & measurement ------------------------------------------------------------


def trace_module(m: Module, cfg: RunConfig) -> tuple[Outcome, Trace]:
    """Runs `cfg`'s entry on `m` with its arguments, under its fuel."""
    return invoke(instantiate(m, fuel=cfg.fuel), cfg.invoke_name, list(cfg.invoke_args))


def _trace_task(args):
    return trace_module(*args)


# --- the full pipeline -----------------------------------------------------------------


@dataclass
class DiversifyResult:
    exploration: list[BlockSynthesis] | None
    generation: GenerationResult
    reports: list[VariantReport]
    original_outcome: Outcome | None
    original_trace: Trace | None
    outcome_mismatches: int


def diversify(m: Module, cfg: RunConfig) -> DiversifyResult:
    """CROW's workflow in order: runs the entry on the original, when the
    module exports it, so that a bad entry or argument list fails before
    any synthesis; explores every block; generates and measures the unique
    variants; and traces them."""
    original = trace_module(m, cfg) if cfg.invoke_name in m.exports else None
    exploration = explore_module(m, cfg)
    blocks = [r.block for r in exploration]
    replacements = {r.block.id: r.replacements for r in exploration}
    return report_variants(m, blocks, replacements, cfg, original, exploration)


def report_variants(
    m: Module, blocks: list[PureBlock], replacements: dict[str, list[Replacement]],
    cfg: RunConfig, original: tuple[Outcome, Trace] | None = None,
    exploration: list[BlockSynthesis] | None = None,
) -> DiversifyResult:
    """Generates the variants and reports on each one. Given the original's
    `(outcome, trace)`, also runs the entry on every variant (each traced
    from its emitted `Module`) and drops variants whose outcome differs.
    `exploration` is None when the replacements come from a store."""
    gen = generate_variants(m, blocks, replacements, cfg)
    reports = gen.reports
    original_outcome, original_trace = original or (None, None)
    mismatches = 0
    if original is not None:
        tasks = [(r.variant.module, cfg) for r in reports]
        traced = _fan_out(_trace_task, tasks, cfg.jobs)
        kept = []
        for report, (outcome, trace) in zip(reports, traced):
            if outcome != original_outcome:
                # a probable-tier replacement lied; the variant is dropped
                mismatches += 1
                continue
            report.outcome = outcome
            report.trace = trace
            kept.append(report)
        for report, cost in zip(kept, dt_dyn(original_trace, [r.trace for r in kept])):
            report.dt_dyn = cost
            if len(original_trace) > 0:
                report.normalized_dt_dyn = cost / len(original_trace)
            report.trace_identical = cost == 0
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
