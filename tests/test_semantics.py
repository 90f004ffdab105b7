"""The i32 semantics table against an independent spec (semantics_spec):
the scalar path, the batch path and the SMT-LIB templates. The interpreter
is checked against the same spec in test_variants."""

import inspect

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from crow.equiv import batch_apply, emit_smtlib, eval_dag
from crow.ir import PURE_OPS, SEMANTICS, Dag, DagNode, width_constants

from dagutil import D, IN
from semantics_spec import OPS, corner_values, spec, to_signed
from smt_eval import eval_script, evaluate, parse

WIDTHS = [4, 8, 32]


def test_table_covers_spec_and_arities_agree():
    assert tuple(SEMANTICS) == tuple(PURE_OPS) == OPS
    for op, sem in SEMANTICS.items():
        assert len(inspect.signature(sem.fn).parameters) == 1 + PURE_OPS[op]


@st.composite
def op_operands(draw, rows=None):
    """(op, width, operand tuples), each operand unsigned at the width."""
    op = draw(st.sampled_from(OPS))
    w = draw(st.sampled_from(WIDTHS))
    value = st.one_of(st.sampled_from(corner_values(w)), st.integers(0, (1 << w) - 1))
    operand = st.tuples(*[value] * PURE_OPS[op])
    if rows is None:
        return op, w, draw(operand)
    return op, w, draw(st.lists(operand, min_size=1, max_size=rows))


@settings(max_examples=600, deadline=None)
@given(op_operands())
def test_scalar_path_matches_spec(case):
    op, w, args = case
    expected = spec(op, args, w)
    assert SEMANTICS[op].fn(width_constants(w), *args) == expected
    dag = D((op, *(IN(i) for i in range(len(args)))))
    assert eval_dag(dag, args, w) == to_signed(expected, w)


@settings(max_examples=300, deadline=None)
@given(op_operands(rows=24))
def test_batch_path_matches_spec(case):
    op, w, rows = case
    columns = [np.array(col, dtype=np.uint64) for col in zip(*rows)]
    out = batch_apply(op, columns, w)
    assert out.dtype == np.uint64
    assert out.tolist() == [spec(op, r, w) for r in rows]
    # 0-d operands, as constants enter batch evaluation
    scalar = batch_apply(op, [np.uint64(v) for v in rows[0]], w)
    assert int(scalar) == spec(op, rows[0], w)


def test_smt_templates_match_spec_on_corner_values():
    corners = corner_values(32)
    for op, sem in SEMANTICS.items():
        term = parse(sem.smt.format(a="in0", b="in1", c="in2"))[0]
        arity = PURE_OPS[op]
        for x in corners:
            for y in corners if arity > 1 else [0]:
                for z in corners if arity > 2 else [0]:
                    env = {"in0": x, "in1": y, "in2": z}
                    assert evaluate(term, env) == spec(op, (x, y, z)[:arity], 32), (op, env)


@st.composite
def shared_dags(draw, n_inputs=2):
    """DAGs whose op nodes may reuse any earlier node, several times."""
    nodes = [DagNode("input", input=i) for i in range(n_inputs)]
    nodes.append(DagNode("const", value=draw(st.sampled_from([0, 1, 31, -1, 2**31]))))
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(OPS))
        operands = tuple(draw(st.integers(0, len(nodes) - 1)) for _ in range(PURE_OPS[op]))
        nodes.append(DagNode("op", op=op, operands=operands))
    return Dag(tuple(nodes), draw(st.integers(n_inputs, len(nodes) - 1)))


@settings(max_examples=200, deadline=None)
@given(shared_dags(), shared_dags(), st.tuples(*[st.sampled_from(corner_values(32))] * 2))
def test_smtlib_script_evaluates_to_disagreement(left, right, values):
    script = emit_smtlib(left, right, 2)
    assert eval_script(script, values) == (eval_dag(left, values) != eval_dag(right, values))


def tee_chain(depth: int) -> Dag:
    """`local.tee 0; local.get 0; i32.add` repeated: each sum feeds both
    operands of the next."""
    nodes = [DagNode("input", input=0)]
    for i in range(depth):
        nodes.append(DagNode("op", op="add", operands=(i, i)))
    return Dag(tuple(nodes), depth)


def test_smtlib_script_of_deep_shared_chain_stays_small():
    chain = tee_chain(18)
    script = emit_smtlib(chain, D(("shl", IN(0), ("const", 18))), 1)
    assert len(script) < 4096
    for x in corner_values(32):
        assert eval_script(script, (x,)) is False
    wrong = emit_smtlib(chain, D(("shl", IN(0), ("const", 17))), 1)
    assert eval_script(wrong, (1,)) is True
