import pytest
from hypothesis import given, settings

from crow.wat import (
    FuncDef,
    GlobalDef,
    Instr,
    Module,
    ParseError,
    UnsupportedError,
    analyze_body,
    parse_module,
    print_module,
    validate,
)

from strategies import modules


def test_parse_mul_add(mul_add_module):
    m = mul_add_module
    assert len(m.functions) == 2
    assert m.exports == {"main": 1}
    f = m.functions[0]
    assert (f.params, f.results, f.locals) == (1, 1, 0)
    assert [str(i) for i in f.body] == [
        "local.get 0",
        "local.get 0",
        "i32.const 2",
        "i32.mul",
        "i32.add",
    ]
    assert m.functions[1].body == (Instr("i32.const", 10), Instr("call", 0))


def test_body_shape_matches_control_and_frame_heights():
    m = parse_module("""(module (func (param i32)
      i32.const 7
      local.get 0
      if
        block
          i32.const 1 br 1
          drop
        end
      else
        loop i32.const 2 local.get 0 br_if 0 drop end
      end
      drop))""")
    diags = []
    shape = analyze_body(m.functions[0], m, 0, diags)
    #  0 const  1 get  2 if  3 block  4 const  5 br 1  6 drop  7 end  8 else
    #  9 loop  10 const  11 get  12 br_if 0  13 drop  14 end  15 end  16 drop
    assert diags == []
    assert shape.end_of == {2: 15, 3: 7, 8: 15, 9: 14}
    assert shape.else_of == {2: 8}
    assert shape.target_of == {5: 2, 12: 9}
    assert [shape.base[k + 1] for k in (2, 3, 9)] == [1, 1, 1]
    assert shape.depth[:6] == [0, 1, 2, 1, 1, 2]
    assert shape.live == [True] * 6 + [False] * 2 + [True] * 9  # drop and end follow the br


def test_parse_empty_module():
    m = parse_module("(module)")
    assert m.functions == ()
    assert m.exports == {}
    assert m.memory is None


def test_unsupported_instruction_rejected():
    text = "(module (func f64.add))"
    with pytest.raises(UnsupportedError) as exc:
        parse_module(text)
    assert "f64.add" in str(exc.value)


def test_unsupported_valtype_rejected():
    with pytest.raises(UnsupportedError) as exc:
        parse_module("(module (func (param f64)))")
    assert "f64" in str(exc.value)


def test_multi_result_rejected():
    with pytest.raises(UnsupportedError):
        parse_module("(module (func (result i32 i32) i32.const 1 i32.const 2))")


def test_folded_body_rejected():
    with pytest.raises(UnsupportedError):
        parse_module("(module (func (i32.add (i32.const 1) (i32.const 2))))")


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_module("(module (func\n  i32.const))")
    assert exc.value.line == 2


def test_const_wraps_to_signed():
    m = parse_module("(module (func (result i32) i32.const 4294967295))")
    assert m.functions[0].body[0].immediate == -1


def test_globals_and_memory():
    m = parse_module(
        """(module
             (global (mut i32) (i32.const 7))
             (global i32 (i32.const -3))
             (memory 2))"""
    )
    assert [(g.mutable, g.init) for g in m.globals] == [(True, 7), (False, -3)]
    assert m.memory == 2


def test_memory_page_limit():
    assert parse_module("(module (memory 65536))").memory == 65536  # 4 GiB, the spec's limit
    with pytest.raises(ParseError, match="65537 pages exceed the limit of 65536"):
        parse_module("(module (memory 65537))")


def test_roundtrip_mul_add(mul_add_module):
    assert parse_module(print_module(mul_add_module)) == mul_add_module


def test_print_contains_const():
    m = Module(functions=(FuncDef(0, 1, 0, (Instr("i32.const", 5),)),))
    assert "i32.const 5" in print_module(m)


def test_validate_mul_add(mul_add_module):
    assert validate(mul_add_module) == []


def test_validate_underflow():
    m = Module(functions=(FuncDef(0, 1, 0, (Instr("i32.add"),)),))
    assert any("underflow" in d for d in validate(m))


def test_validate_call_out_of_range():
    m = Module(
        functions=(
            FuncDef(0, 0, 0, (Instr("call", 7),)),
            FuncDef(0, 0, 0, ()),
        )
    )
    assert any("index out of range" in d for d in validate(m))


def test_validate_export_out_of_range():
    m = Module(functions=(FuncDef(0, 0, 0, ()),), exports={"x": 3})
    assert any("out of range" in d for d in validate(m))


def test_validate_memory_access_without_memory():
    m = Module(
        functions=(FuncDef(0, 1, 0, (Instr("i32.const", 0), Instr("i32.load"))),)
    )
    assert any("memory" in d for d in validate(m))


def test_validate_immutable_global_set():
    m = Module(
        functions=(FuncDef(0, 0, 0, (Instr("i32.const", 1), Instr("global.set", 0))),),
        globals=(GlobalDef(False, 0),),
    )
    assert any("immutable" in d for d in validate(m))


def test_validate_unclosed_block():
    m = Module(functions=(FuncDef(0, 0, 0, (Instr("block"),)),))
    assert any("unclosed" in d for d in validate(m))


def test_validate_branch_label_range():
    m = Module(functions=(FuncDef(0, 0, 0, (Instr("br", 0),)),))
    assert any("label out of range" in d for d in validate(m))


def test_validate_structured_ok():
    text = """(module
      (func (param i32) (result i32) (local i32)
        block
          local.get 0
          i32.eqz
          br_if 0
          i32.const 3
          local.set 1
        end
        local.get 1))"""
    assert validate(parse_module(text)) == []


@settings(max_examples=120, deadline=None)
@given(modules())
def test_roundtrip_generated(m):
    assert validate(m) == []
    text = print_module(m)
    again = parse_module(text)
    assert again == m
    assert print_module(again) == text


@settings(max_examples=60, deadline=None)
@given(modules())
def test_printing_is_structural(m):
    # Two structurally equal modules print byte-identically.
    clone = Module(
        functions=tuple(m.functions),
        globals=tuple(m.globals),
        memory=m.memory,
        exports=dict(m.exports),
    )
    assert print_module(clone) == print_module(m)
