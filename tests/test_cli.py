import dataclasses
import json
import runpy
import tracemalloc
from pathlib import Path

import pytest

import crow.cli
import crow.pipeline
from crow import corpus
from crow.cli import main
from crow.equiv import SOLVER_ENV, CheckerConfig
from crow.interp import instantiate, invoke, read_trace
from crow.metrics import dtw, tokenize
from crow.pipeline import RunConfig
from crow.synth import SynthesisConfig
from crow.wat import parse_module, validate

# small-run flags of each subcommand: explore takes the synthesis ones,
# generate the generation ones, diversify both
EXPLORE_SMALL = ["--timeout-secs", "2", "--max-size", "2"]
GENERATE_SMALL = ["--max-variants", "8"]
SMALL = EXPLORE_SMALL + GENERATE_SMALL


@pytest.fixture
def module_file(tmp_path, mul_add_text):
    p = tmp_path / "prog.wat"
    p.write_text(mul_add_text)
    return p


def test_explore_writes_store(tmp_path, module_file):
    store = tmp_path / "store.json"
    assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
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


def test_empty_vocabulary_is_a_config_error(tmp_path, module_file, capsys):
    assert main(["explore", str(module_file), "--vocab", ",", "-o", str(tmp_path / "s")]) == 3
    assert "vocabulary is empty" in capsys.readouterr().err


EVERY_FLAG = [
    "--seed", "7", "--timeout-secs", "2", "--max-size", "2", "--vocab", "add,const",
    "--checker", "smt", "--solver-cmd", "z3 -in", "--jobs", "2",
    "--max-variants", "8", "--rank-by-diff", "--strict",
    "--invoke", "run", "--args", "1,2", "--fuel", "99",
]


def test_every_config_field_is_set_by_a_flag(module_file, monkeypatch):
    """A config field exists only where a flag sets it: `diversify` with
    every flag at a non-default value changes every field of the three
    configs."""
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    args = crow.cli.build_parser().parse_args(["diversify", str(module_file), *EVERY_FLAG])
    cfg = crow.cli._run_config(args)
    for config, default in [(cfg, RunConfig()), (cfg.synthesis, SynthesisConfig()),
                            (cfg.checker, CheckerConfig())]:
        for f in dataclasses.fields(config):
            assert getattr(config, f.name) != getattr(default, f.name), f.name


@pytest.mark.parametrize("argv", [
    ["explore", "M"], ["generate", "M", "S"], ["trace", "M"], ["diversify", "M"],
])
def test_unset_flags_keep_the_config_defaults(monkeypatch, argv):
    """Each default lives in its config dataclass: an unset flag is None,
    except the output path, and leaves every field at its default."""
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    args = crow.cli.build_parser().parse_args(argv)
    flags = {dest: v for dest, v in vars(args).items()
             if dest not in ("command", "fn", "module", "store", "output")}
    assert flags and all(v is None for v in flags.values()), flags
    assert crow.cli._run_config(args) == RunConfig()


def test_generate_from_store(tmp_path, module_file):
    store = tmp_path / "store.json"
    outdir = tmp_path / "variants"
    assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
    assert main(["generate", str(module_file), str(store), "-o", str(outdir), *GENERATE_SMALL]) == 0
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
    assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
    loads, parses, extractions = _count_parses_and_extractions(monkeypatch)
    outdir = tmp_path / "variants"
    assert main(["generate", str(module_file), str(store), "-o", str(outdir), *GENERATE_SMALL]) == 0
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
    assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
    other = tmp_path / "other.wat"
    other.write_text("(module (func (result i32) i32.const 3))")
    assert main(["generate", str(other), str(store)]) == 4


def _edit_first_node(kind, key, value):
    """Store edit: sets `key` of the first replacement node of `kind`."""
    def edit(store):
        for block in store["blocks"]:
            for rep in block["replacements"]:
                for node in rep["dag"]["nodes"]:
                    if node["kind"] == kind:
                        node[key] = value
                        return store
        raise AssertionError(f"no {kind} node in the store")
    return edit


def _list_a_block_twice(store):
    """Store edit: appends a copy, without replacements, of the first block
    that has some."""
    block = next(block for block in store["blocks"] if block["replacements"])
    store["blocks"].append({**block, "replacements": []})
    return store


def _edit_first_replacement(**fields):
    """Store edit: overwrites `fields` of the first stored replacement."""
    def edit(store):
        rep = next(rep for block in store["blocks"] for rep in block["replacements"])
        rep.update(fields)
        return store
    return edit


@pytest.mark.parametrize("edit", [
    lambda store: {k: v for k, v in store.items() if k != "blocks"},
    lambda store: [store],
    _edit_first_node("op", "op", "nope"),
    _edit_first_node("input", "input", 5),  # every mul_add block has one input
    _edit_first_node("const", "value", 2**40),
    _edit_first_replacement(tier=None),
    _edit_first_replacement(tier="rejected", method="exhaustive"),
    _edit_first_replacement(tier="verified", method="sampled"),
    _edit_first_replacement(tier="verified", method="reduced-width"),
    _edit_first_replacement(tier="probable", method="exhaustive"),
    _edit_first_replacement(tier="probable", method="smt"),
    _edit_first_replacement(enum_index="3"),
    _edit_first_replacement(enum_index=True),
    _edit_first_replacement(emitted_len=2.0),
    _edit_first_replacement(emitted_len=None),
    _list_a_block_twice,
], ids=["no-blocks", "top-level-list", "unknown-op", "input-out-of-range", "const-not-i32",
        "tier-null", "tier-rejected", "method-unknown", "verified-reduced-width",
        "probable-exhaustive", "probable-smt", "enum-index-str", "enum-index-bool",
        "emitted-len-float", "emitted-len-null", "block-listed-twice"])
def test_generate_rejects_malformed_store(tmp_path, module_file, capsys, edit):
    store = tmp_path / "store.json"
    assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
    store.write_text(json.dumps(edit(json.loads(store.read_text()))))
    outdir = tmp_path / "variants"
    assert main(["generate", str(module_file), str(store), "-o", str(outdir), *GENERATE_SMALL]) == 4
    assert capsys.readouterr().err.startswith("crow: ")


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


@pytest.mark.parametrize("command", ["trace", "diversify"])
def test_negative_fuel_is_a_config_error(tmp_path, module_file, command):
    out = tmp_path / "out"
    assert main([command, str(module_file), "--fuel", "-1", "-o", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "diversify"])
def test_memory_over_the_page_limit_is_malformed_input(tmp_path, capsys, command):
    """Rejected when parsed, before any page is allocated or -o is claimed."""
    p = tmp_path / "big.wat"
    p.write_text('(module (memory 1000000000000) (func (result i32) i32.const 7)'
                 ' (export "main" (func 0)))')
    out = tmp_path / "out"
    assert main([command, str(p), "-o", str(out)]) == 2
    assert "exceed the limit of 65536" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_timeout_is_a_config_error(tmp_path, module_file, capsys, value):
    out = tmp_path / "store.json"
    assert main(["explore", str(module_file), "--timeout-secs", value, "-o", str(out)]) == 3
    assert "timeout must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


ID_TEXT = '(module (func (param i32) (result i32) local.get 0) (export "id" (func 0)))'


@pytest.mark.parametrize("value", ["4294967296", "-2147483649"])
def test_args_outside_the_i32_const_range_are_config_errors(tmp_path, capsys, value):
    p = tmp_path / "id.wat"
    p.write_text(ID_TEXT)
    assert main(["trace", str(p), "--invoke", "id", "--args", value]) == 3
    assert "bad --args value" in capsys.readouterr().err


def test_args_take_unsigned_i32_values(tmp_path):
    p = tmp_path / "id.wat"
    p.write_text(ID_TEXT)
    out = tmp_path / "id.trace"
    assert main(["trace", str(p), "--invoke", "id", "--args", "4294967295", "-o", str(out)]) == 0
    with open(out) as f:
        _, outcome = read_trace(f)
    assert str(outcome) == "result -1"


@pytest.mark.parametrize("command, under", [
    ("explore", "missing"), ("explore", "file"),
    ("trace", "missing"), ("trace", "file"),
    ("generate", "file"),
    ("diversify", "file"),  # diversify creates missing parent directories
])
def test_unwritable_output_is_a_config_error(tmp_path, module_file, capsys, monkeypatch,
                                             command, under):
    """The output is checked before the work, which is patched to fail."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = (tmp_path / "missing" if under == "missing" else blocker) / "out"
    argv = [command, str(module_file)]
    if command == "generate":
        store = tmp_path / "store.json"
        assert main(["explore", str(module_file), "-o", str(store), *EXPLORE_SMALL]) == 0
        argv.append(str(store))
    work = {"explore": "explore_module", "generate": "report_variants",
            "trace": "trace_module", "diversify": "diversify"}[command]
    monkeypatch.setattr(crow.cli, work, lambda *a, **k: pytest.fail(f"{work} ran before -o"))
    assert main([*argv, "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"crow: {out}: ")


def test_deeply_nested_module_is_malformed_input(tmp_path):
    p = tmp_path / "nest.wat"
    p.write_text("(module " + "(" * 3000 + ")" * 3000 + ")")
    assert main(["explore", str(p), "-o", str(tmp_path / "store.json")]) == 2


def test_deeply_nested_store_is_malformed_input(tmp_path, module_file, capsys):
    store = tmp_path / "deep.json"
    store.write_text("[" * 200_000)
    assert main(["generate", str(module_file), str(store), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"crow: {store}: ")


@pytest.mark.parametrize("argv", [
    ["explore", "--max-variants", "0"],
    ["explore", "--fuel", "-1"],
    ["generate", "STORE", "--checker", "smt"],
    ["generate", "STORE", "--timeout-secs", "0"],
    ["generate", "STORE", "--invoke", "nope"],
])
def test_subcommands_take_only_the_flags_they_read(tmp_path, module_file, capsys, argv):
    """explore never generates or traces and generate never synthesizes or
    traces, so their parsers reject those flags as unknown."""
    command, *rest = argv
    rest = [str(tmp_path / "store.json") if a == "STORE" else a for a in rest]
    with pytest.raises(SystemExit) as exit_:
        main([command, str(module_file), *rest])
    assert exit_.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["trace", "MODULE", "--fuel", "abc"], "invalid int value"),
    (["explore"], "required"),
    (["measure", "sizes", "MODULE", "MODULE"], "invalid choice"),
])
def test_usage_errors_are_config_errors(module_file, capsys, argv, message):
    """Usage errors exit 3 like bad option values; 2 stays for malformed
    input."""
    with pytest.raises(SystemExit) as exit_:
        main([str(module_file) if a == "MODULE" else a for a in argv])
    assert exit_.value.code == 3
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["trace", "--help"])
    assert exit_.value.code == 0
    assert "--fuel" in capsys.readouterr().out


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


def test_measure_static_rejects_normalize(module_file, capsys):
    assert main(["measure", "static", str(module_file), str(module_file), "--normalize"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--normalize is for dynamic traces" in captured.err


@pytest.mark.parametrize("kind,suffix", [("static", ".wat"), ("dynamic", ".trace")])
def test_measure_directory_of_fewer_than_two_files_prints_no_rows(tmp_path, mul_add_text,
                                                                   capsys, kind, suffix):
    assert main(["measure", kind, str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    text = mul_add_text if kind == "static" else "# crow-trace v1 entry=main\nresult 1\n"
    (tmp_path / f"only{suffix}").write_text(text)
    assert main(["measure", kind, str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_measure_directory_pairwise(tmp_path, capsys):
    for i in range(4):
        (tmp_path / f"t{i}.trace").write_text(
            f"# crow-trace v1 entry=main\npush {i}\nresult {i}\n"
        )
    assert main(["measure", "dynamic", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4 * 3 // 2


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_measure_directory_loads_each_file_once(tmp_path, mul_add_text, monkeypatch, capsys,
                                                kind):
    import crow.cli

    for i in range(4):
        (tmp_path / f"m{i}.wat").write_text(mul_add_text.replace("i32.const 10", f"i32.const {i}"))
        (tmp_path / f"t{i}.trace").write_text(f"# crow-trace v1 entry=main\npush {i}\nresult {i}\n")
    name = "_load_module" if kind == "static" else "read_trace"
    calls, real = [], getattr(crow.cli, name)
    monkeypatch.setattr(crow.cli, name, lambda *a: calls.append(a) or real(*a))
    assert main(["measure", kind, str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4 * 3 // 2
    assert len(calls) == 4


def test_measure_static_tokenizes_each_file_once(tmp_path, mul_add_text, monkeypatch, capsys):
    import crow.cli
    import crow.metrics

    for i in range(4):
        (tmp_path / f"m{i}.wat").write_text(mul_add_text.replace("i32.const 10", f"i32.const {i}"))
    calls, real = [], crow.metrics.tokenize
    wrapped = lambda m: calls.append(m) or real(m)
    monkeypatch.setattr(crow.metrics, "tokenize", wrapped)
    monkeypatch.setattr(crow.cli, "tokenize", wrapped, raising=False)
    assert main(["measure", "static", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(calls) == 4
    # each row is the manifest's static distance between the two modules
    modules = [crow.cli._load_module(str(tmp_path / f"m{i}.wat")) for i in range(4)]
    assert [int(r.split("\t")[3]) for r in rows] == [
        dtw(tokenize(modules[i]), tokenize(modules[j])).cost
        for i in range(4) for j in range(i + 1, 4)
    ]


def test_read_trace_holds_only_the_code_buffer(tmp_path):
    """The reader streams its lines: its peak allocation stays within twice
    the 8 bytes per event of the code buffer it returns."""
    n = 100_000
    path = tmp_path / "long.trace"
    with open(path, "w") as f:
        f.write("# crow-trace v1 entry=main\n")
        f.write("".join(f"{('pop', 'push')[i % 2]} {i * 20011 - 2**30}\n" for i in range(n)))
        f.write("result 0\n")
    with open(path) as f:
        tracemalloc.start()
        try:
            trace, outcome = read_trace(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(trace) == n and outcome.kind == "result"
    assert peak <= 2 * 8 * n


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


def _main_results(outdir: Path) -> set[str]:
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["variants"]
    return {str(invoke(instantiate(parse_module((outdir / e["file"]).read_text())), "main", [])[0])
            for e in manifest["variants"]}


def test_variants_of_reused_locals_keep_the_result(tmp_path, reused_local_program, capsys):
    """Generated (strict) and diversified variants of a program whose region
    overwrites a local that held a pending value all return the original's
    result; diversify drops none of them."""
    text, want = reused_local_program
    p = tmp_path / "prog.wat"
    p.write_text(text)
    store, generated, diversified = tmp_path / "store.json", tmp_path / "gen", tmp_path / "div"
    assert main(["explore", str(p), "-o", str(store), *EXPLORE_SMALL]) == 0
    assert main(["generate", str(p), str(store), "-o", str(generated), "--strict",
                 *GENERATE_SMALL]) == 0
    assert _main_results(generated) == {f"result {want}"}
    assert main(["diversify", str(p), "-o", str(diversified), *SMALL]) == 0
    assert "outcome mismatch" not in capsys.readouterr().out
    assert _main_results(diversified) == {f"result {want}"}


def test_diversify_non_diversifiable_module(tmp_path):
    p = tmp_path / "plain.wat"
    # nothing produces a value: no blocks, no variants, still exit 0
    p.write_text('(module (func nop) (export "main" (func 0)))')
    outdir = tmp_path / "out"
    assert main(["diversify", str(p), "-o", str(outdir), "--timeout-secs", "1"]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["variants"] == []
    assert manifest["exploration"]["blocks_found"] == 0


ONE_PARAM_MAIN = ('(module (func (param i32) (result i32) local.get 0 i32.const 1 i32.add)'
                  ' (export "main" (func 0)))')


@pytest.mark.parametrize("argv, message", [
    ([], "'main' takes 1 argument(s), got 0"),
    (["--invoke", "nosuch"], "unknown export 'nosuch'"),
], ids=["missing-args", "unknown-export"])
def test_diversify_rejects_a_bad_entry_before_exploring(tmp_path, monkeypatch, capsys,
                                                         argv, message):
    p = tmp_path / "one.wat"
    p.write_text(ONE_PARAM_MAIN)
    monkeypatch.setattr(crow.pipeline, "explore_module",
                        lambda *a: pytest.fail("explored before the entry was checked"))
    assert main(["diversify", str(p), "-o", str(tmp_path / "out"), *argv]) == 2
    assert message in capsys.readouterr().err


def test_diversify_without_main_runs_untraced(tmp_path, mul_add_text):
    """Without --invoke, a module that exports no main still diversifies,
    and nothing is traced."""
    p = tmp_path / "entry.wat"
    p.write_text(mul_add_text.replace('"main"', '"entry"'))
    outdir = tmp_path / "out"
    assert main(["diversify", str(p), "-o", str(outdir), *SMALL]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["variants"]
    assert not any("outcome" in entry for entry in manifest["variants"])
    assert not (outdir / "traces").exists()


def test_run_corpus_matches_diversify(tmp_path):
    """scripts/run_corpus.py runs the pipeline with one seed, as the CLI does."""
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_corpus.py"))
    flags = ["--timeout-secs", "0.05", "--seed", "5"]
    assert script["main"](["--out", str(tmp_path / "corpus"), "--only", "mul_add", *flags]) == 0
    prog = tmp_path / "mul_add.wat"
    prog.write_text(corpus.load("mul_add"))
    assert main(["diversify", str(prog), "-o", str(tmp_path / "cli"), *flags]) == 0

    def outputs(d: Path):
        return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
                if p.is_file() and p.name != "manifest.json"}

    got, want = outputs(tmp_path / "corpus" / "mul_add"), outputs(tmp_path / "cli")
    assert "traces/variant_0.trace" in want and got == want
    rows = (tmp_path / "corpus" / "summary.tsv").read_text().splitlines()
    assert [r.split("\t")[0] for r in rows] == ["name", "mul_add"]


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_run_corpus_rejects_a_bad_config(tmp_path, capsys, value):
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_corpus.py"))
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exit_:
        script["main"](["--out", str(out), "--only", "mul_add", "--timeout-secs", value])
    assert exit_.value.code == 2
    assert "timeout must be finite and positive" in capsys.readouterr().err
    assert not out.exists()
