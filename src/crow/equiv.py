"""Functional-equivalence checking between a pure block and a candidate.

Verdicts come in three tiers. `verified` needs a sound argument: full-domain
exhaustion (only feasible for zero free inputs at 32 bits) or an unsat answer
from an external SMT solver over QF_BV. `rejected` always carries a concrete
counterexample that replays to different values at width 32. Everything in
between is `probable`: reduced-width exhaustive sweeps plus seeded random
width-32 samples all agreed, but nothing sound completed.

Reduced-width evaluation reinterprets the same DAG at w bits (constants
masked, shift counts mod w). That is a deliberately unsound heuristic: its
counterexamples are rechecked at width 32 and discarded when they do not
replay, and its agreement never upgrades a verdict past `probable`.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
from dataclasses import dataclass

import numpy as np

from .ir import (
    Dag, K_CONST, K_INPUT, K_OP, SEMANTICS, PureBlock, Width, width_constants,
)

# Max evaluations per exhaustive sweep.
EXHAUSTIVE_BUDGET = 2**26

# Fixed settings: no flag sets them and the store does not record them, so
# they change only with the tool version.
REDUCED_WIDTHS = (4, 8)  # swept exhaustively when they fit, in this order
SAMPLES = 100_000  # seeded random width-32 samples per unsound check
SOLVER_TIMEOUT = 5.0  # seconds per solver call

TIER_VERIFIED = "verified"
TIER_PROBABLE = "probable"
TIER_REJECTED = "rejected"

# The methods that can admit a candidate at each tier.
TIER_METHODS = {TIER_VERIFIED: ("exhaustive", "smt"), TIER_PROBABLE: ("reduced-width",)}

SOLVER_ENV = "CROW_SOLVER"  # environment variable read when --solver-cmd is not given


class ConfigError(ValueError):
    """A configuration value is out of range; configs raise it when built."""


class InfeasibleDomainError(Exception):
    """The requested exhaustive sweep does not fit in the evaluation budget."""


@dataclass(frozen=True)
class Verdict:
    tier: str
    method: str  # 'exhaustive' | 'reduced-width' | 'smt'
    counterexample: tuple[int, ...] | None = None
    evals: int = 0
    note: str | None = None


@dataclass(frozen=True)
class CheckerConfig:
    mode: str = "probable-ok"  # 'exhaustive-only' | 'probable-ok' | 'smt'
    solver_cmd: tuple[str, ...] = ()

    def __post_init__(self):
        errs = []
        if self.mode not in ("exhaustive-only", "probable-ok", "smt"):
            errs.append(f"unknown checker mode {self.mode!r}")
        if self.mode == "smt" and not self.solver_cmd:
            errs.append(f"--checker smt needs --solver-cmd or ${SOLVER_ENV}")
        if errs:
            raise ConfigError("; ".join(errs))


# --- evaluation ---------------------------------------------------------------

_U64 = np.uint64

# ir.SEMANTICS turns comparisons into 0/1 by multiplying with a typed one.
if (np.zeros(1, bool) * _U64(1)).dtype != _U64:
    raise ImportError(
        f"numpy {np.__version__} does not promote bool * uint64 to uint64, "
        "which the batched i32 semantics rely on"
    )


def _signed(u: int, width: int) -> int:
    return u - (1 << width) if u >> (width - 1) else u


def _evaluate(dag: Dag, leaves, k: Width):
    """Root value of a DAG over unsigned width-bit input values, in the
    number type of the width constants `k`."""
    vals = []
    for n in dag.nodes:
        if n.kind == K_CONST:
            vals.append(type(k.mask)(n.value & int(k.mask)))
        elif n.kind == K_INPUT:
            vals.append(leaves[n.input])
        else:
            vals.append(SEMANTICS[n.op].fn(k, *(vals[o] for o in n.operands)))
    return vals[dag.root]


def eval_dag(dag: Dag, env, width: int = 32) -> int:
    """Evaluates a DAG under `env` (one integer per input ordinal) at the
    given bit width; returns the signed value. Semantics match the i32
    instruction set: wraparound arithmetic, shift counts modulo width,
    comparisons producing 0/1."""
    k = width_constants(width)
    return _signed(_evaluate(dag, [v & k.mask for v in env], k), width)


def batch_apply(op: str, args, width: int):
    """One operator over uint64 arrays holding width-bit unsigned values.
    Wraparound is the defined semantics, so overflow warnings are silenced."""
    with np.errstate(over="ignore"):
        return SEMANTICS[op].fn(width_constants(width, _U64), *args)


def batch_eval(dag: Dag, env_arrays, width: int = 32):
    """Evaluates a DAG over uint64 input arrays (already masked to width)."""
    with np.errstate(over="ignore"):
        root = _evaluate(dag, env_arrays, width_constants(width, _U64))
    if np.ndim(root) == 0 and env_arrays:
        root = np.broadcast_to(root, env_arrays[0].shape)
    return root


def _stable_seed(*parts) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


def random_vectors(n_inputs: int, count: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [rng.integers(0, 2**32, size=count, dtype=np.uint64) for _ in range(n_inputs)]


# --- exhaustive / sweep machinery ----------------------------------------------

_CHUNK = 1 << 18


def _sweep(left: Dag, right: Dag, n_inputs: int, width: int):
    """Yields (env_arrays, mismatch_positions) chunk by chunk over the full
    width-bit domain of n_inputs variables."""
    total = 1 << (n_inputs * width)
    per = _U64((1 << width) - 1)
    for base in range(0, total, _CHUNK):
        hi = min(base + _CHUNK, total)
        idx = np.arange(base, hi, dtype=np.uint64)
        env = [(idx >> _U64(width * j)) & per for j in range(n_inputs)]
        lv = np.atleast_1d(batch_eval(left, env, width))
        rv = np.atleast_1d(batch_eval(right, env, width))
        yield env, np.nonzero(lv != rv)[0], hi - base


def exhaustive_check(left: Dag, right: Dag, n_inputs: int, width: int):
    """Sound at width 32; reduced widths only contribute evidence. Returns
    (verdict_or_None, evals, discarded_note): None means 'agreed but not
    sound' (reduced width)."""
    if (1 << (n_inputs * width)) > EXHAUSTIVE_BUDGET:
        raise InfeasibleDomainError(
            f"{n_inputs} inputs at {width} bits exceed budget {EXHAUSTIVE_BUDGET}"
        )
    evals = 0
    discarded = 0
    for env, bad, n in _sweep(left, right, n_inputs, width):
        evals += n
        for pos in bad:
            cex = tuple(int(e[pos]) for e in env)
            if width == 32 or eval_dag(left, cex, 32) != eval_dag(right, cex, 32):
                return Verdict(TIER_REJECTED, "exhaustive" if width == 32 else "reduced-width",
                               counterexample=cex, evals=evals), evals, discarded
            discarded += 1
    if width == 32:
        return Verdict(TIER_VERIFIED, "exhaustive", evals=evals), evals, discarded
    return None, evals, discarded


# --- SMT-LIB emission and solver driving ---------------------------------------


def _smt_terms(dag: Dag, prefix: str, lets: list[str]) -> str:
    """The root's term. An op node whose term the templates would spell out
    more than once is bound by name instead (appended to `lets` in node
    order), so the script grows linearly with shared subterms."""
    uses = [0] * len(dag.nodes)
    uses[dag.root] = 1
    for i in range(len(dag.nodes) - 1, -1, -1):
        n = dag.nodes[i]
        if uses[i] and n.kind == K_OP:
            template = SEMANTICS[n.op].smt
            for slot, o in zip("abc", n.operands):
                uses[o] += template.count("{" + slot + "}")
    terms: list[str] = []
    for i, n in enumerate(dag.nodes):
        if n.kind == K_CONST:
            term = f"#x{n.value & 0xFFFFFFFF:08x}"
        elif n.kind == K_INPUT:
            term = f"in{n.input}"
        else:
            term = SEMANTICS[n.op].smt.format(**dict(zip("abc", (terms[o] for o in n.operands))))
            if uses[i] > 1:
                name = f"{prefix}{i}"
                lets.append(f"(let (({name} {term})) ")
                term = name
        terms.append(term)
    return terms[dag.root]


def emit_smtlib(left: Dag, right: Dag, n_inputs: int) -> str:
    """Self-contained QF_BV script over inputs in0..in{n_inputs-1}; the pair
    is equivalent iff the solver answers unsat."""
    lines = ["(set-logic QF_BV)"]
    for i in range(n_inputs):
        lines.append(f"(declare-const in{i} (_ BitVec 32))")
    lets: list[str] = []
    body = f"(distinct {_smt_terms(left, 'l', lets)} {_smt_terms(right, 'r', lets)})"
    lines.append(f"(assert {''.join(lets)}{body}{')' * len(lets)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_MODEL_RE = re.compile(
    r"\(define-fun\s+in(\d+)\s+\(\)\s+\(_\s+BitVec\s+32\s*\)\s+"
    r"(#x[0-9a-fA-F]+|#b[01]+|\(_\s+bv(\d+)\s+32\s*\))"
)


def parse_model(output: str, n_inputs: int) -> tuple[int, ...]:
    vals = [0] * n_inputs
    for m in _MODEL_RE.finditer(output):
        i = int(m.group(1))
        if i >= n_inputs:
            continue
        lit = m.group(2)
        if lit.startswith("#x"):
            vals[i] = int(lit[2:], 16)
        elif lit.startswith("#b"):
            vals[i] = int(lit[2:], 2)
        else:
            vals[i] = int(m.group(3))
    return tuple(vals)


def run_solver(cmd, script: str, timeout: float):
    """Returns (answer, raw stdout); answer in {'sat','unsat','unknown','error'}."""
    try:
        proc = subprocess.run(
            list(cmd), input=script, capture_output=True, text=True, timeout=timeout
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return "error", str(e)
    out = proc.stdout.strip()
    first = out.split(None, 1)[0] if out else ""
    if first in ("sat", "unsat", "unknown"):
        return first, out
    return "error", out


# --- the checker ----------------------------------------------------------------


def check(b: PureBlock, c: Dag, cfg: CheckerConfig, seed: int) -> Verdict:
    """Decides equivalence of a block and a candidate per the configured
    mode; `seed` draws the width-32 samples. Candidate inputs must be a
    subset of the block's inputs. Only a zero-input block's domain fits the
    exhaustive budget, so exhaustive-only mode raises InfeasibleDomainError
    for a block with inputs (synthesis skips such blocks, `synth.skip_reason`)."""
    n = len(b.inputs)
    evals = 0
    notes: list[str] = []

    # Sound path 1: the whole width-32 domain fits in the budget.
    if (1 << (n * 32)) <= EXHAUSTIVE_BUDGET:
        return exhaustive_check(b.dag, c, n, 32)[0]

    # Sound path 2: external solver.
    if cfg.mode == "smt":
        script = emit_smtlib(b.dag, c, n)
        answer, out = run_solver(cfg.solver_cmd, script, SOLVER_TIMEOUT)
        if answer == "unsat":
            return Verdict(TIER_VERIFIED, "smt", evals=evals)
        if answer == "sat":
            cex = parse_model(out, n)
            if eval_dag(b.dag, cex, 32) != eval_dag(c, cex, 32):
                return Verdict(TIER_REJECTED, "smt", counterexample=cex, evals=evals + 2)
            notes.append("solver-failure: sat without replayable model")
        else:
            notes.append(f"solver-failure: {answer}")

    if cfg.mode == "exhaustive-only":
        raise InfeasibleDomainError(f"{n} inputs at 32 bits exceed budget {EXHAUSTIVE_BUDGET}")

    # Unsound evidence: reduced-width sweeps, then width-32 samples.
    for w in REDUCED_WIDTHS:
        if (1 << (n * w)) > EXHAUSTIVE_BUDGET:
            continue
        verdict, ev, discarded = exhaustive_check(b.dag, c, n, w)
        evals += ev
        if discarded:
            notes.append(f"width-{w}: discarded {discarded} non-replaying counterexample(s)")
        if verdict is not None and verdict.tier == TIER_REJECTED:
            return Verdict(TIER_REJECTED, "reduced-width", verdict.counterexample,
                           evals, "; ".join(notes) or None)

    env = random_vectors(n, SAMPLES, _stable_seed(seed, b.dag.key(), c.key()))
    lv = batch_eval(b.dag, env, 32)
    rv = batch_eval(c, env, 32)
    evals += SAMPLES
    bad = np.nonzero(lv != rv)[0]
    if bad.size:
        cex = tuple(int(e[bad[0]]) for e in env)
        return Verdict(TIER_REJECTED, "reduced-width", cex, evals, "; ".join(notes) or None)

    return Verdict(TIER_PROBABLE, "reduced-width", evals=evals, note="; ".join(notes) or None)
