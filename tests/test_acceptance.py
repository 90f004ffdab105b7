"""Acceptance suite: one test per exit criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`). Tolerances are exact
unless a criterion states a rate or a runtime bound.
"""

import itertools
import json
import random
import time
from pathlib import Path

from crow import corpus, equiv
from crow.cli import main
from crow.equiv import CheckerConfig, check, eval_dag
from crow.ir import _reachable_key
from crow.metrics import dtw, tokenize
from crow.pipeline import RunConfig, explore_module
from crow.wat import parse_module

from conftest import MUL_ADD_TEXT
from dagutil import C, D, IN, block_of
from dtw_oracle import codes, dtw_diagonal, dtw_reference


def report(criterion: int, detail: str):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


# -- 1. running-example fidelity ------------------------------------------------


def test_criterion_1_running_example(tmp_path):
    prog = tmp_path / "prog.wat"
    prog.write_text(MUL_ADD_TEXT)
    outdir = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["diversify", str(prog), "-o", str(outdir), "--timeout-secs", "10"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"diversify took {elapsed:.1f}s"
    manifest = json.loads((outdir / "manifest.json").read_text())
    entries = manifest["variants"]
    assert len(entries) >= 2
    texts = [(outdir / e["file"]).read_text() for e in entries]
    assert len(set(texts)) == len(texts)
    assert any("i32.shl" in t for t in texts), "no shift-based variant"

    def has_double_add(text):
        toks = [str(ins) for f in parse_module(text).functions for ins in f.body]
        return any(
            toks[i] == "local.get 0" and toks[i + 1] == "local.get 0" and toks[i + 2] == "i32.add"
            for i in range(len(toks) - 2)
        )

    assert any(has_double_add(t) for t in texts), "no x+x variant"
    assert all(e["outcome"] == "result 30" for e in entries)
    assert manifest["generation"]["outcome_mismatches"] == 0
    report(1, f"{len(entries)} unique variants in {elapsed:.1f}s, shl and x+x present, all result 30")


# -- 2. transformation-family coverage -------------------------------------------


def _explore(name, timeout=10.0):
    m = parse_module(corpus.load(name))
    t0 = time.perf_counter()
    results = explore_module(m, RunConfig(timeout_seconds=timeout))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"{name}: exploration took {elapsed:.1f}s"
    keys = {
        _reachable_key(rep.candidate.dag)
        for r in results
        for rep in r.replacements
        if rep.tier in ("verified", "probable")
    }
    return results, keys, elapsed


def test_criterion_2_family_multiply_to_shift():
    _, keys, dt = _explore("scale_shift")
    assert "shl(i0,c1)" in keys
    report(2, f"multiply-to-shift realized in {dt:.1f}s")


def test_criterion_2_family_comparison_inversion():
    _, keys, dt = _explore("threshold")
    assert "le_s(c11,i0)" in keys
    report(2, f"comparison inversion realized in {dt:.1f}s")


def test_criterion_2_family_sub_negative_to_add():
    _, keys, dt = _explore("sub_negative")
    assert "add(i0,c5)" in keys
    report(2, f"subtract-negative-to-add realized in {dt:.1f}s")


def test_criterion_2_family_zero_input_constant():
    results, keys, dt = _explore("constant_fold")
    assert "c25264" in keys
    const_rep = next(
        rep
        for r in results
        for rep in r.replacements
        if _reachable_key(rep.candidate.dag) == "c25264"
    )
    assert const_rep.tier == "verified"
    report(2, f"zero-input block to constant realized (verified) in {dt:.1f}s")


# -- 3. equivalence soundness ------------------------------------------------------


def test_criterion_3_metamorphic_soundness(monkeypatch):
    """10^5 seeded trials: equivalent rewrites are never rejected, single-
    constant mutations are never verified, and every rejection replays."""
    monkeypatch.setattr(equiv, "SAMPLES", 64)  # 10^5 checks at the full count take too long
    rng = random.Random(0xC0FFEE)
    checker = CheckerConfig()
    trials = 100_000
    rejected_equivalents = 0
    verified_mutations = 0
    bad_counterexamples = 0
    t0 = time.perf_counter()

    def make_pair(kind, k, n, bnd):
        if kind == 0:
            return ("mul", IN(0), C(1 << k)), ("shl", IN(0), C(k))
        if kind == 1:
            return ("sub", IN(0), C(-n)), ("add", IN(0), C(n))
        if kind == 2:
            return ("gt_s", IN(0), C(bnd)), ("le_s", C(bnd + 1), IN(0))
        return ("xor", IN(0), IN(0)), ("const", 0)

    def mutate(tree, delta):
        # perturb the first constant leaf found
        if tree[0] == "const":
            return ("const", tree[1] + delta)
        out = [tree[0]]
        done = False
        for child in tree[1:]:
            if not done and child[0] == "const":
                out.append(("const", child[1] + delta))
                done = True
            else:
                out.append(child)
        return tuple(out) if done else None

    for trial in range(trials):
        kind = rng.randrange(4)
        k = rng.randrange(32)
        n = rng.randrange(-(2**31) + 1, 2**31)
        bnd = rng.randrange(-(2**31), 2**31 - 1)
        lhs, rhs = make_pair(kind, k, n, bnd)
        block = block_of(lhs, 1)
        if trial % 2 == 0:
            verdict = check(block, D(rhs), checker, seed=1)
            if verdict.tier == "rejected":
                rejected_equivalents += 1
        else:
            mutated = mutate(rhs, rng.choice([-3, -2, -1, 1, 2, 3]))
            if mutated is None:
                continue
            verdict = check(block, D(mutated), checker, seed=1)
            if verdict.tier == "verified":
                verified_mutations += 1
            if verdict.tier == "rejected":
                cex = verdict.counterexample
                if eval_dag(block.dag, cex) == eval_dag(D(mutated), cex):
                    bad_counterexamples += 1
    elapsed = time.perf_counter() - t0
    assert rejected_equivalents == 0
    assert verified_mutations == 0
    assert bad_counterexamples == 0
    assert elapsed < 300, f"metamorphic run took {elapsed:.1f}s"
    report(3, f"{trials} trials, zero violations, {elapsed:.0f}s")


# -- 4/5/6/10. corpus-level criteria over one default-config run --------------------

VECTOR_BOUNDS = {"sum_loop": (-50, 50)}  # loop iterations scale with the input


def _vectors_for(name, arity, count=100):
    lo, hi = VECTOR_BOUNDS.get(name, (-(2**31), 2**31 - 1))
    rng = random.Random(f"vectors:{name}")
    return [[rng.randint(lo, hi) for _ in range(arity)] for _ in range(count)]


def test_criterion_4_functional_equivalence(corpus_runs):
    """Programs exporting a parameterized `run` are compared on 100 seeded
    vectors; programs whose only entry takes no arguments are compared on
    the empty vector, which is their entire input domain."""
    from crow.interp import instantiate, invoke

    assert len(corpus_runs.runs) >= 20
    checked = mismatches = 0
    for name, run in corpus_runs.runs.items():
        m = run.module
        entry = "run" if "run" in m.exports else "main"
        arity = m.functions[m.exports[entry]].params
        vectors = _vectors_for(name, arity) if arity else [[]]
        originals = [invoke(instantiate(m), entry, v)[0] for v in vectors]
        for rep in run.result.reports:
            for vec, want in zip(vectors, originals):
                got = invoke(instantiate(rep.variant.module), entry, vec)[0]
                checked += 1
                if got != want:
                    mismatches += 1
    assert mismatches == 0
    report(4, f"{checked} variant evaluations across {len(corpus_runs.runs)} programs, zero mismatches")


def test_criterion_5_static_diversity(corpus_runs):
    total = 0
    for run in corpus_runs.runs.values():
        texts = [r.variant.text for r in run.result.reports]
        assert len(set(texts)) == len(texts), f"{run.name}: duplicate variant text"
        for rep in run.result.reports:
            recomputed = dtw(tokenize(run.module), tokenize(parse_module(rep.variant.text))).cost
            assert recomputed == rep.dt_static
            assert recomputed > 0, f"{run.name}: variant statically identical"
            total += 1
    report(5, f"dt_static > 0 for all {total} variants, all pairwise distinct")


def test_criterion_6_dynamic_diversity(corpus_runs):
    diversified = 0
    for name, run in corpus_runs.runs.items():
        if not run.result.reports:
            continue
        diversified += 1
        assert any(r.dt_dyn and r.dt_dyn > 0 for r in run.result.reports), (
            f"{name}: no variant produces a different trace"
        )
    same = corpus_runs.runs["same_trace"].result
    marked = [
        r for r in same.reports if r.dt_static > 0 and r.dt_dyn == 0 and r.trace_identical
    ]
    assert marked, "no statically-diverse, trace-identical variant was marked"
    report(
        6,
        f"{diversified} diversified programs all have dt_dyn > 0 variants; "
        f"{len(marked)} trace-identical variants marked on same_trace",
    )


def test_criterion_10_diversification_rate(corpus_runs):
    names = list(corpus_runs.runs)
    with_variants = [n for n in names if corpus_runs.runs[n].result.reports]
    rate = len(with_variants) / len(names)
    assert rate >= 0.70, f"only {len(with_variants)}/{len(names)} diversified"
    assert corpus_runs.wall_seconds < 20 * 60
    report(
        10,
        f"{len(with_variants)}/{len(names)} programs diversified "
        f"({rate:.0%}) in {corpus_runs.wall_seconds:.0f}s under default config",
    )


# -- 7. combination arithmetic -------------------------------------------------------


def test_criterion_7_combination_arithmetic():
    from crow.variants import ReplacementSet, enumerate_combinations, plan_count, resolve_overlaps
    from test_variants import fake_replacement, sized_block

    blocks = {}
    reps = {}
    for i, count in enumerate([6, 1]):
        blk = sized_block(f"b{i}", 0, i * 10, {i * 10}, 3)
        blocks[blk.id] = blk
        reps[blk.id] = [fake_replacement(k) for k in range(count)]
    s = ReplacementSet(blocks=blocks, replacements=reps)
    assert plan_count(s) + 1 == 14  # the power set, counting the original
    plans, truncated = enumerate_combinations(s, limit=1000)
    assert len(plans) == 13 and not truncated

    big = sized_block("big", 0, 0, {0, 1, 2}, 6)
    small = sized_block("small", 0, 1, {1}, 2)
    resolved = resolve_overlaps(
        [big, small],
        {"big": [fake_replacement()], "small": [fake_replacement()]},
    )
    assert set(resolved.blocks) == {"big"}
    report(7, "6x1 fixture gives 14 combinations (13 plans); overlap keeps the largest block")


# -- 8. DTW oracle equivalence ---------------------------------------------------------


def test_criterion_8_dtw_oracle():
    """Documented sampled subset: 120k seeded pairs from the full <=8-length
    3-token space (9841 sequences) checked against the naive DP, plus the
    exhaustive length<=4 subset, plus 100 random length-10^4 pairs against
    the independently-derived anti-diagonal oracle."""
    t0 = time.perf_counter()
    seqs = [
        list(s) for k in range(9) for s in itertools.product("ABC", repeat=k)
    ]
    assert len(seqs) == 9841
    rng = random.Random(8)
    samples = 120_000

    def collapse(seq):
        return [k for k, _ in itertools.groupby(seq)]

    for _ in range(samples):
        a = seqs[rng.randrange(len(seqs))]
        b = seqs[rng.randrange(len(seqs))]
        got = dtw(codes(a), codes(b)).cost
        assert got == dtw_reference(a, b), (a, b)
        assert (got == 0) == (collapse(a) == collapse(b)), (a, b)

    small = [list(s) for k in range(5) for s in itertools.product("ABC", repeat=k)]
    for a in small:
        for b in small:
            got = dtw(codes(a), codes(b)).cost
            assert got == dtw_reference(a, b)
            assert (got == 0) == (collapse(a) == collapse(b))

    for i in range(100):
        rng2 = random.Random(1000 + i)
        a = [rng2.choice("ABCDEF") for _ in range(10_000)]
        b = [rng2.choice("ABCDEF") for _ in range(10_000)]
        assert dtw(codes(a), codes(b)).cost == dtw_diagonal(a, b)
    elapsed = time.perf_counter() - t0
    report(
        8,
        f"{samples} sampled + {len(small)**2} exhaustive small pairs match the naive DP; "
        f"100 length-10k pairs match the diagonal oracle ({elapsed:.0f}s)",
    )


# -- 9. determinism ----------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    prog = tmp_path / "prog.wat"
    prog.write_text(MUL_ADD_TEXT)
    flags = ["--timeout-secs", "5", "--seed", "5"]
    assert main(["diversify", str(prog), "-o", str(tmp_path / "a"), "--jobs", "1", *flags]) == 0
    assert main(["diversify", str(prog), "-o", str(tmp_path / "b"), "--jobs", "8", *flags]) == 0

    def snapshot(d: Path):
        return {
            p.relative_to(d).as_posix(): p.read_bytes()
            for p in sorted(d.rglob("*"))
            if p.is_file()
        }

    a, b = snapshot(tmp_path / "a"), snapshot(tmp_path / "b")
    assert list(a) == list(b)
    for key in a:
        assert a[key] == b[key], f"{key} differs between jobs=1 and jobs=8"
    report(9, f"jobs=1 and jobs=8 byte-identical across {len(a)} files")
