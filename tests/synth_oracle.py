"""Reference candidate loop the batched synthesis is checked against.

`reference_stream` is the canonical candidate order (the order tests in
test_synth check it): the recursive generators below build every canonical
tree, and each tree is keyed as a string to skip the block's own.
`synthesize_reference` is the tree-at-a-time loop over that stream: each tree
is evaluated with one operator call per node and charged its work units
candidate by candidate. Production must return the same `BlockSynthesis`,
field for field.
"""

import numpy as np

from crow import equiv
from crow.emit import emit_dag
from crow.equiv import InfeasibleDomainError, batch_apply, batch_eval
from crow.ir import PURE_OPS, SEMANTICS, _reachable_key, width_constants
from crow.synth import (
    WORK_UNITS_PER_SECOND,
    BlockSynthesis,
    Candidate,
    ConfigError,
    Replacement,
    _leaves_for,
    _tree_to_dag,
    infer_constant,
    prefilter_vectors,
)


def _splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _splits(total - first, parts - 1):
            yield (first, *rest)


def _trees(k: int, n_leaves: int, ops):
    if k == 0:
        yield from range(n_leaves)
        return
    for op in ops:
        for sizes in _splits(k - 1, PURE_OPS[op]):
            yield from _combine(op, sizes, n_leaves, ops)


def _combine(op: str, sizes, n_leaves: int, ops, prefix=()):
    if not sizes:
        yield (op, *prefix)
        return
    for child in _trees(sizes[0], n_leaves, ops):
        yield from _combine(op, sizes[1:], n_leaves, ops, prefix + (child,))


def _tree_key(tree, leaves) -> str:
    if isinstance(tree, int):
        kind, v = leaves[tree]
        return f"c{v}" if kind == "const" else f"i{v}"
    return tree[0] + "(" + ",".join(_tree_key(t, leaves) for t in tree[1:]) + ")"


def _tree_eval(tree, leaf_arrays):
    if isinstance(tree, int):
        return leaf_arrays[tree]
    return batch_apply(tree[0], [_tree_eval(t, leaf_arrays) for t in tree[1:]], 32)


def _tree_eval_scalar(tree, leaves) -> int:
    if isinstance(tree, int):
        return leaves[tree][1] & 0xFFFFFFFF
    args = [_tree_eval_scalar(t, leaves) for t in tree[1:]]
    return SEMANTICS[tree[0]].fn(width_constants(32), *args)


def reference_stream(b, cfg):
    """The canonical candidate stream as (tree, index) pairs: sizes
    1..max_size, the block's own tree skipped without taking an index."""
    leaves = _leaves_for(b, cfg)
    self_key = _reachable_key(b.dag)
    index = 0
    for k in range(1, cfg.max_size + 1):
        for tree in _trees(k, len(leaves), cfg.vocabulary.ops):
            if _tree_key(tree, leaves) != self_key:
                yield tree, index
                index += 1


def synthesize_reference(b, cfg, checker, budget_seconds=None) -> BlockSynthesis:
    errs = cfg.validate()
    if errs:
        raise ConfigError("; ".join(errs))
    result = BlockSynthesis(block=b)
    if b.node_count > cfg.max_block_nodes:
        result.stopped = "skipped"
        result.skipped_reason = f"block has {b.node_count} nodes (> {cfg.max_block_nodes})"
        return result

    seconds = cfg.budget_seconds if budget_seconds is None else budget_seconds
    quota = max(int(seconds * WORK_UNITS_PER_SECOND), 1)
    leaves = _leaves_for(b, cfg)
    self_key = _reachable_key(b.dag)
    vectors = prefilter_vectors(b, cfg)
    n_vec = len(vectors[0]) if vectors else 1
    charge = max(n_vec, 16)
    block_vals = np.atleast_1d(batch_eval(b.dag, vectors, 32)) if vectors else None
    block_scalar = equiv.eval_dag(b.dag, (), 32) & 0xFFFFFFFF if not vectors else None
    leaf_arrays = [
        vectors[v] if kind == "input" else np.uint64(v & 0xFFFFFFFF)
        for kind, v in leaves
    ] if vectors else []

    def consider(candidate_dag, tree, index: int) -> bool:
        result.candidates_seen += 1
        result.work_units += charge
        if result.work_units > quota:
            result.stopped = "budget"
            return False
        if vectors:
            cv = np.atleast_1d(
                _tree_eval(tree, leaf_arrays) if tree is not None
                else batch_eval(candidate_dag, vectors, 32)
            )
            if not bool(np.all(cv == block_vals)):
                return True
        elif tree is not None and _tree_eval_scalar(tree, leaves) != block_scalar:
            return True
        dag = candidate_dag if candidate_dag is not None else _tree_to_dag(tree, leaves)
        if not vectors and (equiv.eval_dag(dag, (), 32) & 0xFFFFFFFF) != block_scalar:
            return True
        try:
            verdict = equiv.check(b, dag, checker)
        except InfeasibleDomainError:
            return True
        result.work_units += verdict.evals
        if verdict.tier == equiv.TIER_REJECTED:
            return True
        result.replacements.append(
            Replacement(
                block_id=b.id,
                candidate=Candidate(dag, index),
                tier=verdict.tier,
                method=verdict.method,
                emitted_len=len(emit_dag(dag)),
            )
        )
        if len(result.replacements) >= cfg.max_replacements:
            result.stopped = "cap"
            return False
        return True

    inferred = infer_constant(b, cfg)
    if inferred is not None and _reachable_key(inferred.dag) != self_key:
        if not consider(inferred.dag, None, -1):
            return result

    for tree, index in reference_stream(b, cfg):
        if not consider(None, tree, index):
            return result
    return result
