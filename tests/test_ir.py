from hypothesis import given, settings

from crow.equiv import eval_dag
from crow.ir import (
    K_CONST,
    K_OP,
    blocks_overlap,
    build_regions,
    extract_blocks,
    extract_module_blocks,
)
from crow.wat import parse_module, validate

from strategies import modules


def _parse(text):
    m = parse_module(text)
    assert validate(m) == []
    return m


def test_regions_mul_add(mul_add_module):
    regions = build_regions(mul_add_module, 0)
    assert len(regions) == 1
    r = regions[0]
    assert (r.start, r.end, r.entry_arity, r.live) == (0, 5, 0, True)


def test_regions_empty_body():
    m = _parse("(module (func))")
    assert build_regions(m, 0) == []


def test_regions_split_at_loop():
    m = _parse(
        """(module (memory 1)
             (func (local i32)
               i32.const 0
               local.set 0
               loop
                 local.get 0
                 i32.const 1
                 i32.add
                 local.tee 0
                 i32.const 10
                 i32.lt_s
                 br_if 0
               end
               i32.const 0
               local.get 0
               i32.store))"""
    )
    regions = build_regions(m, 0)
    assert len(regions) >= 2
    body = m.functions[0].body
    covered = [i for r in regions for i in range(r.start, r.end)]
    outside = [i for i in range(len(body)) if i not in covered]
    assert all(
        body[i].mnemonic in ("loop", "end", "br_if", "br", "block", "if", "else", "return", "unreachable")
        for i in outside
    )


def test_extract_blocks_mul_add(mul_add_module):
    regions = build_regions(mul_add_module, 0)
    blocks = extract_blocks(regions[0], mul_add_module)
    assert len(blocks) == 2
    a, b = blocks
    # A: mul(x, 2) rooted at the i32.mul site
    assert a.root_site == 3
    assert a.dag.nodes[a.dag.root].op == "mul"
    assert [str(o) for o in a.inputs] == ["param(0)"]
    # B: add(mul(x, 2), x) rooted at the i32.add site
    assert b.root_site == 4
    assert b.dag.nodes[b.dag.root].op == "add"
    assert [str(o) for o in b.inputs] == ["param(0)"]
    assert eval_dag(a.dag, (10,)) == 20
    assert eval_dag(b.dag, (10,)) == 30


def test_const_region_single_block():
    m = _parse("(module (func (result i32) i32.const 7))")
    blocks = extract_module_blocks(m)
    assert len(blocks) == 1
    root = blocks[0].dag.nodes[blocks[0].dag.root]
    assert (root.kind, root.value) == (K_CONST, 7)
    assert blocks[0].inputs == ()


def test_load_becomes_input_leaf():
    m = _parse(
        """(module (memory 1)
             (func (param i32) (result i32)
               local.get 0
               i32.load
               i32.const 1
               i32.add))"""
    )
    blocks = extract_module_blocks(m)
    adds = [b for b in blocks if b.dag.nodes[b.dag.root].kind == K_OP]
    assert len(adds) == 1
    blk = adds[0]
    loads = [o for o in blk.inputs if o.kind == "load"]
    assert len(loads) == 1 and len(blk.inputs) == 1
    assert loads[0].site == 1


def test_overlap_mul_add(mul_add_module):
    regions = build_regions(mul_add_module, 0)
    a, b = extract_blocks(regions[0], mul_add_module)
    assert blocks_overlap(a, b)
    assert blocks_overlap(a, a)


def test_no_overlap_across_functions(mul_add_module):
    blocks = extract_module_blocks(mul_add_module)
    f0 = [b for b in blocks if b.func == 0]
    f1 = [b for b in blocks if b.func == 1]
    assert f1, "main's const 10 feeds an impure call, so it roots a block"
    assert not blocks_overlap(f0[0], f1[0])


def test_disjoint_blocks_do_not_overlap():
    m = _parse(
        """(module
             (func (param i32) (result i32) (local i32)
               local.get 0
               i32.const 1
               i32.add
               local.set 1
               local.get 0
               i32.const 2
               i32.mul
               local.get 1
               i32.sub))"""
    )
    blocks = extract_module_blocks(m)
    add = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "add")
    mul = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "mul")
    assert not blocks_overlap(add, mul)
    sub = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "sub")
    assert blocks_overlap(sub, add) and blocks_overlap(sub, mul)


def _op_block(blocks, op):
    return next(b for b in blocks if b.dag.nodes[b.dag.root].op == op)


def test_reading_one_param_at_two_sites_is_no_overlap():
    m = _parse(
        """(module
             (func (param i32) (result i32)
               local.get 0
               i32.const 1
               i32.add
               drop
               local.get 0
               i32.const 2
               i32.mul))"""
    )
    blocks = extract_module_blocks(m)
    add, mul = _op_block(blocks, "add"), _op_block(blocks, "mul")
    assert add.input_rnodes == mul.input_rnodes  # one shared input leaf
    assert not blocks_overlap(add, mul)


def test_teed_value_overlaps_both_of_its_readers():
    m = _parse(
        """(module
             (func (param i32) (result i32) (local i32)
               local.get 0
               i32.const 3
               i32.mul
               local.tee 1
               i32.const 1
               i32.add
               drop
               local.get 1
               i32.const 2
               i32.sub))"""
    )
    blocks = extract_module_blocks(m)
    mul, add, sub = (_op_block(blocks, op) for op in ("mul", "add", "sub"))
    assert blocks_overlap(mul, add) and blocks_overlap(mul, sub)
    assert blocks_overlap(add, sub) and blocks_overlap(sub, add)


def test_bare_value_blocks_overlap_only_themselves():
    m = _parse(
        """(module
             (func (param i32) (result i32)
               local.get 0
               drop
               i32.const 7
               drop
               i32.const 1
               i32.const 2
               i32.add))"""
    )
    blocks = extract_module_blocks(m)
    assert [b.root_site for b in blocks] == [0, 2, 6]
    for a in blocks:
        for b in blocks:
            assert blocks_overlap(a, b) == (a is b)


def test_blocks_in_two_regions_do_not_overlap():
    m = _parse(
        """(module
             (func (param i32) (result i32)
               local.get 0
               i32.const 1
               i32.add
               drop
               block
               end
               local.get 0
               i32.const 2
               i32.add))"""
    )
    first, second = (b for b in extract_module_blocks(m) if b.dag.nodes[b.dag.root].kind == K_OP)
    assert first.region_index != second.region_index
    assert first.interior == second.interior  # node ids restart in every region
    assert not blocks_overlap(first, second)


def test_local_tracking_gives_zero_input_block():
    m = _parse(
        """(module (func (result i32) (local i32)
             i32.const 2
             local.set 0
             local.get 0
             i32.const 5
             i32.mul))"""
    )
    blocks = extract_module_blocks(m)
    mul = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "mul")
    assert mul.inputs == ()
    assert eval_dag(mul.dag, ()) == 10


def test_entry_stack_input():
    m = _parse(
        """(module (func (param i32) (result i32)
             local.get 0
             block
               nop
             end
             i32.const 1
             i32.add))"""
    )
    blocks = extract_module_blocks(m)
    add = next(b for b in blocks if b.dag.nodes[b.dag.root].kind == K_OP)
    assert [o.kind for o in add.inputs] == ["entry"]


def test_dead_region_not_extracted():
    m = _parse(
        """(module (func (result i32)
             i32.const 1
             return
             i32.const 2
             i32.const 3
             i32.add))"""
    )
    # the add after return is dead code
    blocks = extract_module_blocks(m)
    assert all(b.dag.nodes[b.dag.root].op != "add" for b in blocks if b.dag.nodes[b.dag.root].kind == K_OP)


def test_div_is_boundary_not_node():
    m = _parse(
        """(module (func (param i32 i32) (result i32)
             local.get 0
             local.get 1
             i32.div_u
             i32.const 1
             i32.add))"""
    )
    blocks = extract_module_blocks(m)
    add = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "add")
    assert [o.kind for o in add.inputs] == ["trap-op"]


def test_global_reads_unify_without_writers():
    m = _parse(
        """(module (global (mut i32) (i32.const 3))
             (func (result i32)
               global.get 0
               global.get 0
               i32.add))"""
    )
    blocks = extract_module_blocks(m)
    add = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "add")
    assert len(add.inputs) == 1 and add.inputs[0].kind == "global"
    assert add.inputs[0].site is None


def test_global_reads_pinned_when_region_writes():
    m = _parse(
        """(module (global (mut i32) (i32.const 3))
             (func (result i32)
               global.get 0
               i32.const 5
               global.set 0
               global.get 0
               i32.add))"""
    )
    blocks = extract_module_blocks(m)
    add = next(b for b in blocks if b.dag.nodes[b.dag.root].op == "add")
    # the two reads straddle a write: they must stay distinct inputs
    assert len(add.inputs) == 2
    assert all(o.kind == "global" and o.site is not None for o in add.inputs)


@settings(max_examples=80, deadline=None)
@given(modules())
def test_every_pure_op_roots_exactly_one_block(m):
    for fi, f in enumerate(m.functions):
        regions = build_regions(m, fi)
        roots = []
        for ri, region in enumerate(regions):
            for b in extract_blocks(region, m, ri):
                roots.append(b.root_site)
        assert len(roots) == len(set(roots))
        op_sites = set()
        for region in regions:
            if not region.live:
                continue
            for i in range(region.start, region.end):
                mnem = f.body[i].mnemonic
                if mnem.startswith("i32.") and mnem not in (
                    "i32.const", "i32.load", "i32.store",
                    "i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u",
                ):
                    op_sites.add(i)
                elif mnem == "select":
                    op_sites.add(i)
        assert op_sites <= set(roots)


@settings(max_examples=80, deadline=None)
@given(modules())
def test_purity_double_evaluation(m):
    for b in extract_module_blocks(m):
        env = tuple(((i * 2654435761) ^ 0x5BD1E995) & 0xFFFFFFFF for i in range(len(b.inputs)))
        assert eval_dag(b.dag, env) == eval_dag(b.dag, env)
