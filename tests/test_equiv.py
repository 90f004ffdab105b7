import sys

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crow import equiv
from crow.equiv import (
    CheckerConfig,
    InfeasibleDomainError,
    batch_eval,
    check,
    emit_smtlib,
    eval_dag,
    exhaustive_check,
    parse_model,
    random_vectors,
)

from dagutil import C, D, IN, block_of

MUL2 = ("mul", IN(0), C(2))
SHL1 = ("shl", IN(0), C(1))
ADD1 = ("add", IN(0), C(1))

NO_SOLVER = CheckerConfig()


# --- eval_dag ---------------------------------------------------------------


def test_eval_mul_by_two():
    assert eval_dag(D(MUL2), (10,)) == 20


def test_eval_shl_wraparound():
    assert eval_dag(D(SHL1), (2**31 - 1,)) == -2


def test_eval_eqz():
    assert eval_dag(D(("eqz", C(0))), ()) == 1


def test_eval_signed_compares():
    assert eval_dag(D(("lt_s", C(-1), C(0))), ()) == 1
    assert eval_dag(D(("lt_u", C(-1), C(0))), ()) == 0
    assert eval_dag(D(("gt_s", IN(0), C(10))), (11,)) == 1


def test_eval_select():
    d = D(("select", C(7), C(9), IN(0)))
    assert eval_dag(d, (1,)) == 7
    assert eval_dag(d, (0,)) == 9


def test_eval_shift_count_modulo_width():
    assert eval_dag(D(("shl", C(1), C(33))), ()) == 2
    assert eval_dag(D(("shl", C(1), C(3))), (), width=4) == -8
    assert eval_dag(D(("rotl", C(1), C(0))), ()) == 1


def test_eval_shr_s_sign_fill():
    assert eval_dag(D(("shr_s", C(-8), C(1))), ()) == -4
    assert eval_dag(D(("shr_u", C(-8), C(1))), ()) == 2**31 - 4


@st.composite
def dag_trees(draw, n_inputs=2, depth=0):
    ops2 = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr_s", "shr_u",
            "rotl", "rotr", "eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u",
            "le_s", "le_u", "ge_s", "ge_u"]
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return IN(draw(st.integers(0, n_inputs - 1)))
        return C(draw(st.integers(-(2**31), 2**31 - 1)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return ("eqz", draw(dag_trees(n_inputs, depth + 1)))
    if kind == 1:
        return (
            "select",
            draw(dag_trees(n_inputs, depth + 1)),
            draw(dag_trees(n_inputs, depth + 1)),
            draw(dag_trees(n_inputs, depth + 1)),
        )
    return (
        draw(st.sampled_from(ops2)),
        draw(dag_trees(n_inputs, depth + 1)),
        draw(dag_trees(n_inputs, depth + 1)),
    )


@settings(max_examples=200, deadline=None)
@given(dag_trees(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_scalar_and_batch_evaluators_agree(tree, x, y):
    d = D(tree)
    scalar = eval_dag(d, (x, y))
    env = [np.array([x], dtype=np.uint64), np.array([y], dtype=np.uint64)]
    batched = int(np.atleast_1d(batch_eval(d, env))[0])
    assert scalar & 0xFFFFFFFF == batched


@settings(max_examples=60, deadline=None)
@given(dag_trees(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from([4, 8, 16]))
def test_evaluators_agree_at_reduced_width(tree, x, y, w):
    d = D(tree)
    scalar = eval_dag(d, (x, y), width=w)
    env = [np.array([x & ((1 << w) - 1)], dtype=np.uint64) for x in (x, y)]
    batched = int(np.atleast_1d(batch_eval(d, env, w))[0])
    assert scalar & ((1 << w) - 1) == batched


# --- exhaustive / check -------------------------------------------------------


def test_zero_input_verified():
    b = block_of(("sub", ("mul", C(158), C(160)), C(16)), 0)
    verdict = check(b, D(C(25264)), NO_SOLVER, 0)
    assert verdict.tier == "verified"
    assert verdict.method == "exhaustive"


def test_rejected_with_replaying_counterexample():
    b = block_of(MUL2, 1)
    verdict = check(b, D(ADD1), NO_SOLVER, 0)
    assert verdict.tier == "rejected"
    cex = verdict.counterexample
    assert cex is not None
    assert eval_dag(b.dag, cex) != eval_dag(D(ADD1), cex)


def test_comparison_inversion_probable():
    b = block_of(("gt_s", IN(0), C(10)), 1)
    verdict = check(b, D(("le_s", C(11), IN(0))), NO_SOLVER, 0)
    assert verdict.tier == "probable"
    assert verdict.method == "reduced-width"


def test_exhaustive_one_input_width8():
    b = block_of(("xor", IN(0), IN(0)), 1)
    verdict, evals, _ = exhaustive_check(b.dag, D(C(0)), 1, 8)
    assert verdict is None  # agreement at reduced width is not a proof
    assert evals == 256


def test_exhaustive_infeasible():
    b = block_of(("add", ("add", IN(0), IN(1)), IN(2)), 3)
    with pytest.raises(InfeasibleDomainError):
        exhaustive_check(b.dag, D(IN(0)), 3, 32)


def test_exhaustive_only_mode_raises_when_unsound():
    b = block_of(MUL2, 1)
    with pytest.raises(InfeasibleDomainError):
        check(b, D(SHL1), CheckerConfig(mode="exhaustive-only"), 0)


def test_reduced_width_counterexample_discarded():
    # x*65536 vs x*65537 agree at widths 4/8/16 but differ at 32; random
    # samples must catch it instead.
    b = block_of(("mul", IN(0), C(65536)), 1)
    verdict = check(b, D(("mul", IN(0), C(65537))), NO_SOLVER, 0)
    assert verdict.tier == "rejected"


def test_probable_requires_sample_agreement():
    b = block_of(("and", IN(0), C(0)), 1)
    verdict = check(b, D(C(0)), NO_SOLVER, 0)
    assert verdict.tier == "probable"


# --- metamorphic families -----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 31))
def test_mul_pow2_vs_shift_never_rejected(k):
    b = block_of(("mul", IN(0), C(1 << k)), 1)
    assert check(b, D(("shl", IN(0), C(k))), NO_SOLVER, 0).tier != "rejected"


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**31) + 1, 2**31 - 1))
def test_sub_negative_vs_add_never_rejected(n):
    b = block_of(("sub", IN(0), C(-n)), 1)
    assert check(b, D(("add", IN(0), C(n))), NO_SOLVER, 0).tier != "rejected"


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**31), 2**31 - 2))
def test_compare_inversion_never_rejected(bnd):
    b = block_of(("gt_s", IN(0), C(bnd)), 1)
    assert check(b, D(("le_s", C(bnd + 1), IN(0))), NO_SOLVER, 0).tier != "rejected"


def test_xor_self_is_zero_never_rejected():
    b = block_of(("xor", IN(0), IN(0)), 1)
    assert check(b, D(C(0)), NO_SOLVER, 0).tier != "rejected"


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**31), 2**31 - 2), st.sampled_from([1, -1, 2, 3]))
def test_add_const_perturbation_rejected(c0, delta):
    # a +-1..3 change to an additive constant is visible at any width
    b = block_of(("add", IN(0), C(c0)), 1)
    verdict = check(b, D(("add", IN(0), C(c0 + delta))), NO_SOLVER, 0)
    assert verdict.tier == "rejected"
    cex = verdict.counterexample
    assert eval_dag(b.dag, cex) != eval_dag(D(("add", IN(0), C(c0 + delta))), cex)


# --- SMT-LIB emission and solver driving ----------------------------------------


def test_smtlib_script_shape():
    b = block_of(MUL2, 1)
    script = emit_smtlib(b.dag, D(SHL1), 1)
    assert script.startswith("(set-logic QF_BV)")
    assert "(declare-const in0 (_ BitVec 32))" in script
    assert "(bvmul in0 #x00000002)" in script
    assert "(bvshl in0 (bvand #x00000001 #x0000001f))" in script
    assert "(assert (distinct" in script
    assert "(check-sat)" in script


def test_smtlib_identity_pair():
    b = block_of(IN(0), 1)
    script = emit_smtlib(b.dag, D(IN(0)), 1)
    assert "(assert (distinct in0 in0))" in script


def test_parse_model_formats():
    out = """sat
    (model
      (define-fun in0 () (_ BitVec 32) #x0000002a)
      (define-fun in1 () (_ BitVec 32) (_ bv7 32))
      (define-fun in2 () (_ BitVec 32) #b101))"""
    assert parse_model(out, 3) == (42, 7, 5)


FAKE_SOLVER = """\
import sys
mode = sys.argv[1]
sys.stdin.read()
if mode == "unsat":
    print("unsat")
elif mode == "sat0":
    print("sat")
    print("(model (define-fun in0 () (_ BitVec 32) #x00000000))")
elif mode == "garbage":
    print("flibbertigibbet")
elif mode == "hang":
    import time
    time.sleep(30)
"""


@pytest.fixture
def fake_solver(tmp_path):
    path = tmp_path / "fake_solver.py"
    path.write_text(FAKE_SOLVER)

    def cmd(mode):
        return (sys.executable, str(path), mode)

    return cmd


def test_solver_unsat_verifies(fake_solver):
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=fake_solver("unsat"))
    verdict = check(b, D(SHL1), cfg, 0)
    assert (verdict.tier, verdict.method) == ("verified", "smt")


def test_solver_sat_model_rejects_when_it_replays(fake_solver):
    # x*2 vs x+1 differ at the model point x=0
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=fake_solver("sat0"))
    verdict = check(b, D(ADD1), cfg, 0)
    assert (verdict.tier, verdict.method) == ("rejected", "smt")
    assert verdict.counterexample == (0,)


def test_solver_sat_without_replay_falls_back(fake_solver):
    # equivalent pair, but the fake solver lies "sat": fall back to probable
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=fake_solver("sat0"))
    verdict = check(b, D(SHL1), cfg, 0)
    assert verdict.tier == "probable"
    assert "solver-failure" in (verdict.note or "")


def test_solver_garbage_falls_back(fake_solver):
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=fake_solver("garbage"))
    verdict = check(b, D(SHL1), cfg, 0)
    assert verdict.tier == "probable"
    assert "solver-failure" in (verdict.note or "")


def test_solver_timeout_falls_back(fake_solver, monkeypatch):
    monkeypatch.setattr(equiv, "SOLVER_TIMEOUT", 0.5)
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=fake_solver("hang"))
    verdict = check(b, D(SHL1), cfg, 0)
    assert verdict.tier == "probable"


@pytest.mark.skipif(
    __import__("shutil").which("z3") is None, reason="no z3 binary on PATH"
)
def test_real_solver_roundtrip():
    b = block_of(MUL2, 1)
    cfg = CheckerConfig(mode="smt", solver_cmd=("z3", "-in"))
    assert check(b, D(SHL1), cfg, 0).tier == "verified"
    assert check(b, D(ADD1), cfg, 0).tier == "rejected"


# --- regression: no false verified ---------------------------------------------


def test_verified_pairs_survive_fresh_samples():
    pairs = [
        (block_of(("sub", ("mul", C(158), C(160)), C(16)), 0), D(C(25264))),
        (block_of(("add", C(3), C(4)), 0), D(("mul", C(7), C(1)))),
    ]
    for b, c in pairs:
        assert check(b, c, NO_SOLVER, 0).tier == "verified"
        env = random_vectors(0, 1, 99)
        assert eval_dag(b.dag, ()) == eval_dag(c, ())
