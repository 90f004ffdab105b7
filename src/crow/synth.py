"""Enumerative synthesis of candidate replacements for pure blocks.

Candidates are operator trees enumerated by iterative deepening on op count,
in a fixed canonical order (ops in vocabulary order, operand size splits with
the left subtree largest first, operand choices rightmost-fastest). No cost
or dataflow pruning is applied; every candidate that survives the test-vector
prefilter goes to the equivalence checker, and every non-rejected candidate
is kept.

The stream is evaluated bottom-up over value vectors, not tree by tree. A
segment table per size fixes the order: each (op, operand size split) covers
a run of positions, and a position decodes mixed-radix into one position per
operand in the smaller sizes' streams. A segment is evaluated in bounded
chunks, each one broadcast operator application over the operands' value
rows (taken from a cached bank when a size's whole stream is small, else
recomputed for the chunk) and one comparison with the block's values. Only
prefilter survivors become trees and DAGs, and only they are compared with
the block's own key, since the block's own tree always survives.

Budgets are deterministic: each block gets a quota of work units (a fixed
charge per candidate plus the checker's evaluations), so results depend only
on (block, config, quota, seed), never on wall clock or worker count.
Between survivors the per-candidate charges are replayed arithmetically in
stream order, so the stop point, the counts and every index equal those of
a loop that charges candidate by candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import equiv
from .emit import emit_dag
from .equiv import CheckerConfig, ConfigError, batch_apply, batch_eval
from .ir import Dag, DagNode, K_CONST, K_INPUT, K_OP, PURE_OPS, PureBlock, _reachable_key
from .wat import wrap_i32

# Scale of the deterministic budget: a run's seconds convert to this many
# work units per second, and a candidate costs max(prefilter vectors, 16)
# units plus its checker evaluations. It is a fixed conversion, not a
# measured rate (batched evaluation gets through far more units per second),
# and changing it changes where budgets stop, hence the outputs.
WORK_UNITS_PER_SECOND = 8_000_000

# Batch sizes in uint64 values (candidates x prefilter vectors); they bound
# peak memory. One chunk of a segment is evaluated at a time, and a size's
# values are kept across chunks only when its whole stream fits in a bank.
CHUNK_ELEMENTS = 8 * 1024
BANK_ELEMENTS = 32 * 1024

# Stream positions are int64 in numpy; no budget reaches this far, so larger
# strides and counts are clamped to it without changing any decoded position.
_POS_CAP = 1 << 62

CANDIDATE_OPS = tuple(PURE_OPS)  # canonical order

CORNER_VALUES = (0, 1, -1, 2, 10, 2**31 - 1, -(2**31))
CORNER_CAP = 512

# Fixed settings: no flag sets them and the store does not record them, so
# they change only with the tool version.
POOL_BASE = (0, 1, 2, -1)  # constants every pool holds
PREFILTER_RANDOM = 64  # seeded random prefilter vectors, after the corners
MAX_BLOCK_NODES = 64  # larger blocks are recorded but not synthesized
MAX_REPLACEMENTS = 24  # deterministic early stop per block


@dataclass(frozen=True)
class Vocabulary:
    """Instruction set permitted in candidates; `const` gates constant leaves."""

    ops: tuple[str, ...]
    allow_const: bool = True

    @classmethod
    def of(cls, *names: str) -> "Vocabulary":
        names_set = set(names)
        allow_const = "const" in names_set
        names_set.discard("const")
        unknown = names_set - set(CANDIDATE_OPS)
        if unknown:
            raise ConfigError(f"not pure candidate ops: {sorted(unknown)}")
        ops = tuple(op for op in CANDIDATE_OPS if op in names_set)
        return cls(ops=ops, allow_const=allow_const)

    @classmethod
    def default(cls) -> "Vocabulary":
        return cls(ops=CANDIDATE_OPS, allow_const=True)

    @classmethod
    def parse(cls, csv: str) -> "Vocabulary":
        return cls.of(*[p.strip() for p in csv.split(",") if p.strip()])


@dataclass(frozen=True)
class SynthesisConfig:
    max_size: int = 3  # op nodes per candidate; hard cap 50
    vocabulary: Vocabulary = field(default_factory=Vocabulary.default)

    def __post_init__(self):
        errs = []
        if not 1 <= self.max_size <= 50:
            errs.append("max candidate size must lie in 1..50")
        if not self.vocabulary.ops and not self.vocabulary.allow_const:
            errs.append("vocabulary is empty")
        if errs:
            raise ConfigError("; ".join(errs))


@dataclass(frozen=True)
class Candidate:
    dag: Dag
    index: int  # enumeration position; -1 for the constant-inference candidate


@dataclass(frozen=True)
class Replacement:
    candidate: Candidate
    tier: str  # 'verified' | 'probable'
    method: str
    emitted_len: int


@dataclass
class BlockSynthesis:
    block: PureBlock
    replacements: list[Replacement] = field(default_factory=list)
    candidates_seen: int = 0
    work_units: int = 0
    stopped: str = "complete"  # 'complete' | 'budget' | 'cap' | 'skipped'
    skipped_reason: str | None = None


def skip_reason(b: PureBlock, checker: CheckerConfig) -> str | None:
    """Why block `b` gets no synthesis budget, or None when it is eligible."""
    if b.node_count > MAX_BLOCK_NODES:
        return f"block has {b.node_count} nodes (> {MAX_BLOCK_NODES})"
    if b.inputs and checker.mode == "exhaustive-only":
        return f"block has {len(b.inputs)} input(s), which the exhaustive checker cannot verify"
    return None


def constant_pool(b: PureBlock) -> tuple[int, ...]:
    """Base constants plus the block's own immediates, their neighbors, and
    their negations (the last reaches subtract-a-negative rewrites)."""
    pool = set(POOL_BASE)
    for n in b.dag.nodes:
        if n.kind == K_CONST:
            pool.update((n.value, n.value + 1, n.value - 1, -n.value))
    return tuple(sorted(wrap_i32(v) for v in pool))


# --- the canonical stream ---------------------------------------------------------
# A tree is either a leaf index (int) or (op, subtree, ...).


def _splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _splits(total - first, parts - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class _Segment:
    """Positions [start, start + length) of one size's stream: trees rooted at
    `op` whose operands have `sizes` ops, chosen rightmost-fastest from
    streams of `counts` trees."""

    start: int
    op: str
    sizes: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def length(self) -> int:
        return math.prod(self.counts)

    def operands(self, local):
        """Operand stream positions of segment-local position(s) `local`,
        a Python int or an int64 array."""
        out = []
        stride = self.length
        for n in self.counts:
            stride //= n
            out.append(local // min(stride, _POS_CAP) % min(n, _POS_CAP))
        return out


class _Stream:
    """Segment table of the trees over `n_leaves` leaves, one size at a time;
    size 0 is the leaves themselves."""

    def __init__(self, n_leaves: int, ops: tuple[str, ...]):
        self.ops = ops
        self.counts = [n_leaves]
        self.segments: list[list[_Segment]] = [[]]
        self.starts = [np.empty(0, dtype=np.int64)]

    def grow(self) -> int:
        """Adds the next size's segments; returns that size."""
        k = len(self.counts)
        segs, start = [], 0
        for op in self.ops:
            for sizes in _splits(k - 1, PURE_OPS[op]):
                seg = _Segment(start, op, sizes, tuple(self.counts[s] for s in sizes))
                if seg.length:
                    segs.append(seg)
                    start += seg.length
        self.segments.append(segs)
        self.counts.append(start)
        self.starts.append(np.array([min(g.start, _POS_CAP) for g in segs], dtype=np.int64))
        return k

    def tree(self, size: int, pos: int):
        if size == 0:
            return pos
        seg = self.segments[size][int(np.searchsorted(self.starts[size], pos, "right")) - 1]
        children = zip(seg.sizes, seg.operands(pos - seg.start))
        return (seg.op, *(self.tree(s, p) for s, p in children))


class _Values:
    """Value rows of stream positions: one row per tree, one uint64 column
    per prefilter vector. Sizes whose whole stream fits in BANK_ELEMENTS are
    evaluated once and kept; the others are recomputed per request."""

    def __init__(self, stream: _Stream, leaf_rows):
        self.stream = stream
        self.width = leaf_rows.shape[1]
        self.banks = {0: leaf_rows}

    def segment(self, seg: _Segment, local):
        """Values of segment-local positions: one broadcast operator call."""
        args = [self.rows(s, p) for s, p in zip(seg.sizes, seg.operands(local))]
        return batch_apply(seg.op, args, 32)

    def rows(self, size: int, pos):
        bank = self.banks.get(size)
        if bank is None and self.stream.counts[size] * self.width <= BANK_ELEMENTS:
            bank = self._compute(size, np.arange(self.stream.counts[size], dtype=np.int64))
            self.banks[size] = bank
        if bank is not None:
            return bank[pos]
        uniq, inverse = np.unique(pos, return_inverse=True)
        return self._compute(size, uniq)[inverse]

    def _compute(self, size: int, pos):
        """Rows of ascending positions, grouped by segment."""
        segs = self.stream.segments[size]
        lo = np.searchsorted(pos, self.stream.starts[size])
        hi = np.append(lo[1:], len(pos))
        out = np.empty((len(pos), self.width), dtype=np.uint64)
        for i in np.flatnonzero(hi > lo).tolist():
            out[lo[i]:hi[i]] = self.segment(segs[i], pos[lo[i]:hi[i]] - segs[i].start)
        return out


def _tree_to_dag(tree, leaves) -> Dag:
    nodes: list[DagNode] = []

    def walk(t) -> int:
        if isinstance(t, int):
            kind, v = leaves[t]
            if kind == "const":
                nodes.append(DagNode(K_CONST, value=v))
            else:
                nodes.append(DagNode(K_INPUT, input=v))
        else:
            ids = tuple(walk(c) for c in t[1:])
            nodes.append(DagNode("op", op=t[0], operands=ids))
        return len(nodes) - 1

    root = walk(tree)
    return Dag(tuple(nodes), root)


def _leaves_for(b: PureBlock, cfg: SynthesisConfig):
    """Leaf catalogue: block inputs first, then pool constants ascending."""
    leaves = [("input", i) for i in range(len(b.inputs))]
    if cfg.vocabulary.allow_const:
        leaves.extend(("const", v) for v in constant_pool(b))
    return leaves


def _expanded_op_count(d: Dag) -> int:
    """Op count of the DAG's tree expansion, in one pass over the nodes
    (operands come before their users)."""
    counts: list[int] = []
    for n in d.nodes:
        counts.append(1 + sum(counts[o] for o in n.operands) if n.kind == K_OP else 0)
    return counts[d.root]


def _self_test(b: PureBlock, max_size: int):
    """Predicate telling whether a candidate DAG of `size` ops is the block's
    own tree. A tree of k ops can only share the key of a block whose
    expansion has k ops, so the block's key, which grows exponentially with
    its sharing depth, is built only when that count is within max_size."""
    ops = _expanded_op_count(b.dag)
    if ops > max_size:
        return lambda dag, size: False
    key = _reachable_key(b.dag)
    return lambda dag, size: size == ops and _reachable_key(dag) == key


# --- prefiltering ----------------------------------------------------------------


def prefilter_vectors(b: PureBlock, seed: int):
    """Corner-value combinations (capped) plus PREFILTER_RANDOM seeded random
    vectors, as uint64 arrays, one per block input."""
    n = len(b.inputs)
    if n == 0:
        return []
    corners = [wrap_i32(v) & 0xFFFFFFFF for v in CORNER_VALUES]
    combos = min(len(corners) ** n, CORNER_CAP)
    cols = [[] for _ in range(n)]
    for idx in range(combos):
        rest = idx
        for j in range(n - 1, -1, -1):
            cols[j].append(corners[rest % len(corners)])
            rest //= len(corners)
    seed = equiv._stable_seed("prefilter", seed, b.dag.key())
    rand = equiv.random_vectors(n, PREFILTER_RANDOM, seed)
    return [
        np.concatenate([np.array(col, dtype=np.uint64), rand[j]])
        for j, col in enumerate(cols)
    ]


def infer_constant(target: np.ndarray) -> Candidate | None:
    """Proposes const(v) when the block's values on the prefilter vectors,
    `target` (one value for a zero-input block), are all v. Still subject to
    the full equivalence check downstream."""
    if not bool(np.all(target == target[0])):
        return None
    return Candidate(Dag((DagNode(K_CONST, value=wrap_i32(int(target[0]))),), 0), -1)


# --- the synthesis loop -----------------------------------------------------------


def synthesize_replacements(
    b: PureBlock,
    cfg: SynthesisConfig,
    checker: CheckerConfig,
    quota: int,
    seed: int,
) -> BlockSynthesis:
    """Collects every candidate the checker does not reject, in stream order,
    until enumeration completes, the replacement cap is hit, or the block's
    `quota` of work units runs out."""
    result = BlockSynthesis(block=b, skipped_reason=skip_reason(b, checker))
    if result.skipped_reason:
        result.stopped = "skipped"
        return result

    leaves = _leaves_for(b, cfg)
    is_self = _self_test(b, cfg.max_size)
    vectors = prefilter_vectors(b, seed)
    n_vec = len(vectors[0]) if vectors else 1
    charge = max(n_vec, 16)  # floor covers per-candidate bookkeeping cost
    target = np.atleast_1d(batch_eval(b.dag, vectors, 32))
    leaf_rows = np.empty((len(leaves), n_vec), dtype=np.uint64)
    for row, (kind, v) in zip(leaf_rows, leaves):
        row[:] = vectors[v] if kind == "input" else v & 0xFFFFFFFF

    def pay(n: int) -> bool:
        """Charges the next n candidates; False when the budget stops at one
        of them, which is then the last one counted."""
        affordable = max(quota - result.work_units, 0) // charge
        paid = min(n, affordable + 1)
        result.candidates_seen += paid
        result.work_units += paid * charge
        if n > affordable:
            result.stopped = "budget"
            return False
        return True

    def admit(dag: Dag, index: int) -> bool:
        """Checks one prefilter survivor; False means stop the stream."""
        verdict = equiv.check(b, dag, checker, seed)
        result.work_units += verdict.evals
        if verdict.tier == equiv.TIER_REJECTED:
            return True
        result.replacements.append(
            Replacement(
                candidate=Candidate(dag, index),
                tier=verdict.tier,
                method=verdict.method,
                emitted_len=len(emit_dag(dag)),
            )
        )
        if len(result.replacements) >= MAX_REPLACEMENTS:
            result.stopped = "cap"
            return False
        return True

    # The inferred constant agrees with the block on every prefilter vector
    # by construction, so it goes straight to the checker.
    inferred = infer_constant(target)
    if inferred is not None and not is_self(inferred.dag, 0):
        if not pay(1) or not admit(inferred.dag, -1):
            return result

    stream = _Stream(len(leaves), cfg.vocabulary.ops)
    values = _Values(stream, leaf_rows)
    rows_per_chunk = max(CHUNK_ELEMENTS // n_vec, 1)
    base = 0  # stream position of the first tree of the current size
    done = 0  # stream positions before this one are charged or skipped
    skipped = 0  # the block's own tree, once passed; it takes no index
    for _ in range(cfg.max_size):
        k = stream.grow()
        for seg in stream.segments[k]:
            lo = 0
            while lo < seg.length:
                # never evaluate past the stopping candidate (+1 for the self)
                room = max(quota - result.work_units, 0) // charge + 2
                hi = min(seg.length, lo + min(rows_per_chunk, room))
                vals = values.segment(seg, np.arange(lo, hi, dtype=np.int64))
                first = base + seg.start + lo
                for h in np.flatnonzero(np.all(vals == target, axis=1)).tolist():
                    pos = first + h
                    dag = _tree_to_dag(stream.tree(k, seg.start + lo + h), leaves)
                    own = is_self(dag, k)
                    if not pay(pos + (not own) - done):
                        return result
                    done = pos + 1
                    if own:
                        skipped += 1
                    elif not admit(dag, pos - skipped):
                        return result
                end = first + hi - lo
                if not pay(end - done):
                    return result
                done = end
                lo = hi
        base += stream.counts[k]
    return result
