import json
from pathlib import Path

import pytest

from crow.cli import main
from crow.interp import read_trace
from crow.wat import parse_module, validate

SMALL = ["--timeout-secs", "2", "--max-size", "2", "--max-variants", "8"]


@pytest.fixture
def module_file(tmp_path, mul_add_text):
    p = tmp_path / "prog.wat"
    p.write_text(mul_add_text)
    return p


def test_explore_writes_store(tmp_path, module_file):
    store = tmp_path / "store.json"
    assert main(["explore", str(module_file), "-o", str(store), *SMALL]) == 0
    data = json.loads(store.read_text())
    assert data["format"] == "crow-replacement-store v1"
    assert data["blocks"]
    assert any(b["replacements"] for b in data["blocks"])


def test_explore_rejects_bad_module(tmp_path):
    bad = tmp_path / "bad.wat"
    bad.write_text("(module (func f64.add))")
    assert main(["explore", str(bad)]) == 2


def test_explore_rejects_bad_config(module_file):
    assert main(["explore", str(module_file), "--max-size", "99"]) == 3


def test_smt_checker_needs_solver(module_file, monkeypatch):
    monkeypatch.delenv("CROW_SOLVER", raising=False)
    assert main(["explore", str(module_file), "--checker", "smt"]) == 3


def test_generate_from_store(tmp_path, module_file):
    store = tmp_path / "store.json"
    outdir = tmp_path / "variants"
    assert main(["explore", str(module_file), "-o", str(store), *SMALL]) == 0
    assert main(["generate", str(module_file), str(store), "-o", str(outdir), *SMALL]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["variants"]
    for entry in manifest["variants"]:
        text = (outdir / entry["file"]).read_text()
        assert validate(parse_module(text)) == []
        assert entry["dt_static"] > 0


def _count_parses_and_extractions(monkeypatch):
    """Wraps the load's parse, any later parse and block extraction at the
    module attribute their callers look up; returns one call list each."""
    import crow.cli
    import crow.pipeline
    import crow.wat

    def counted(module, name):
        calls, real = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return (counted(crow.cli, "parse_module"), counted(crow.wat, "parse_module"),
            counted(crow.pipeline, "extract_module_blocks"))


def test_generate_parses_and_extracts_once(tmp_path, module_file, monkeypatch):
    store = tmp_path / "store.json"
    assert main(["explore", str(module_file), "-o", str(store), *SMALL]) == 0
    loads, parses, extractions = _count_parses_and_extractions(monkeypatch)
    outdir = tmp_path / "variants"
    assert main(["generate", str(module_file), str(store), "-o", str(outdir), *SMALL]) == 0
    assert json.loads((outdir / "manifest.json").read_text())["variants"]
    assert (len(loads), len(parses), len(extractions)) == (1, 0, 1)


def test_diversify_parses_and_extracts_once(tmp_path, module_file, monkeypatch):
    loads, parses, extractions = _count_parses_and_extractions(monkeypatch)
    outdir = tmp_path / "out"
    assert main(["diversify", str(module_file), "-o", str(outdir), *SMALL]) == 0
    traced = json.loads((outdir / "manifest.json").read_text())["variants"]
    assert traced and all("outcome" in entry for entry in traced)
    assert (len(loads), len(parses), len(extractions)) == (1, 0, 1)


def test_generate_digest_mismatch(tmp_path, module_file):
    store = tmp_path / "store.json"
    assert main(["explore", str(module_file), "-o", str(store), *SMALL]) == 0
    other = tmp_path / "other.wat"
    other.write_text("(module (func (result i32) i32.const 3))")
    assert main(["generate", str(other), str(store)]) == 4


def test_trace_command(tmp_path, module_file, capsys):
    out = tmp_path / "t.trace"
    assert main(["trace", str(module_file), "--invoke", "main", "-o", str(out)]) == 0
    with open(out) as f:
        trace, outcome = read_trace(f)
    assert str(outcome) == "result 30"
    assert trace[0].kind == "push"


def test_trace_unknown_export(module_file):
    assert main(["trace", str(module_file), "--invoke", "nope"]) == 2


def test_trace_trap_exit_code(tmp_path):
    p = tmp_path / "trap.wat"
    p.write_text(
        '(module (func (result i32) i32.const 1 i32.const 0 i32.div_u)'
        ' (export "main" (func 0)))'
    )
    assert main(["trace", str(p), "-o", str(tmp_path / "x.trace")]) == 5


def test_trace_fuel_exit_code(tmp_path):
    p = tmp_path / "loop.wat"
    p.write_text(
        """(module (func (local i32)
             loop
               local.get 0
               i32.const 1
               i32.add
               local.set 0
               br 0
             end)
           (export "main" (func 0)))"""
    )
    assert main(["trace", str(p), "--fuel", "10", "-o", str(tmp_path / "x.trace")]) == 6


def test_measure_static_self_is_zero(module_file, capsys):
    assert main(["measure", "static", str(module_file), str(module_file)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split("\t")[2:] == ["static", "0"]


def test_measure_dynamic_normalized(tmp_path, module_file, capsys):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    main(["trace", str(module_file), "-o", str(t1)])
    t2.write_text("# crow-trace v1 entry=main\npush 10\npop 10\nresult 10\n")
    assert main(["measure", "dynamic", str(t1), str(t2), "--normalize"]) == 0
    cols = capsys.readouterr().out.strip().split("\t")
    assert cols[2] == "dynamic"
    assert float(cols[4]) == pytest.approx(int(cols[3]) / 13, abs=1e-6)


def test_measure_directory_pairwise(tmp_path, capsys):
    for i in range(4):
        (tmp_path / f"t{i}.trace").write_text(
            f"# crow-trace v1 entry=main\npush {i}\nresult {i}\n"
        )
    assert main(["measure", "dynamic", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4 * 3 // 2


def test_measure_malformed_trace(tmp_path):
    bad = tmp_path / "bad.trace"
    good = tmp_path / "good.trace"
    good.write_text("# crow-trace v1 entry=main\nresult 1\n")
    header = "# crow-trace v1 entry=main\npush 1\n"
    for text in ("nonsense\n", header + "result abc\n", header + "result 99999999999\n",
                 header + "result 1 2\n", header + "fuel-exhausted now\n"):
        bad.write_text(text)
        assert main(["measure", "dynamic", str(bad), str(good)]) == 2, text


def test_measure_normalize_rejects_empty_left_trace(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("# crow-trace v1 entry=main\nresult 1\n")
    other = tmp_path / "other.trace"
    other.write_text("# crow-trace v1 entry=main\npush 1\nresult 1\n")
    assert main(["measure", "dynamic", str(empty), str(other), "--normalize"]) == 2
    assert "empty trace" in capsys.readouterr().err
    assert main(["measure", "dynamic", str(other), str(empty), "--normalize"]) == 0


def test_diversify_end_to_end(tmp_path, module_file):
    outdir = tmp_path / "out"
    assert main(["diversify", str(module_file), "-o", str(outdir), *SMALL]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["original"]["digest"]
    assert manifest["exploration"]["blocks_found"] >= 2
    assert manifest["variants"], "the doubling program must diversify"
    for entry in manifest["variants"]:
        assert entry["dt_static"] > 0
        assert entry["outcome"] == "result 30"
        assert (outdir / entry["file"]).exists()
        assert (outdir / "traces" / (Path(entry["file"]).stem + ".trace")).exists()
    assert (outdir / "traces" / "original.trace").exists()
    assert (outdir / "replacements.json").exists()


def test_diversify_non_diversifiable_module(tmp_path):
    p = tmp_path / "plain.wat"
    # nothing produces a value: no blocks, no variants, still exit 0
    p.write_text('(module (func nop) (export "main" (func 0)))')
    outdir = tmp_path / "out"
    assert main(["diversify", str(p), "-o", str(outdir), "--timeout-secs", "1"]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["variants"] == []
    assert manifest["exploration"]["blocks_found"] == 0
