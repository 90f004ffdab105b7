"""Compact DAG construction for tests: nested tuples -> Dag."""

from crow.ir import Dag, DagNode, InputOrigin, PureBlock


def IN(k):
    return ("in", k)


def C(v):
    return ("const", v)


def D(tree) -> Dag:
    nodes = []

    def walk(t):
        if t[0] == "in":
            nodes.append(DagNode("input", input=t[1]))
        elif t[0] == "const":
            nodes.append(DagNode("const", value=t[1]))
        else:
            ids = tuple(walk(c) for c in t[1:])
            nodes.append(DagNode("op", op=t[0], operands=ids))
        return len(nodes) - 1

    root = walk(tree)
    return Dag(tuple(nodes), root)


def block_of(tree, n_inputs, block_id="b0") -> PureBlock:
    """Wraps a DAG as a synthetic block with param inputs."""
    return PureBlock(
        id=block_id,
        func=0,
        region_index=0,
        root_site=0,
        dag=D(tree),
        inputs=tuple(InputOrigin("param", index=i) for i in range(n_inputs)),
        interior=frozenset({0}),
        input_rnodes=(),
        root_rnode=0,
    )
