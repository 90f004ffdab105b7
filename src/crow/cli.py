"""Command-line front end: explore, generate, trace, measure, diversify.

Exit codes are part of the contract: 0 success, 2 malformed input (parse or
validation failure, unknown export, malformed trace), 3 configuration error,
4 replacement-store/module mismatch, 5 the traced program trapped, 6 it ran
out of fuel.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

from .equiv import CheckerConfig
from .interp import DEFAULT_FUEL, InvokeError, TraceFormatError, read_trace, write_trace
from .metrics import dt_dyn, dt_static
from .pipeline import (
    DiversifyResult,
    RunConfig,
    StoreMismatchError,
    diversify,
    dump_json,
    explore_module,
    manifest_to_json,
    replacements_from_store,
    report_variants,
    store_to_json,
    trace_module,
)
from .synth import ConfigError, SynthesisConfig, Vocabulary
from .wat import Module, ParseError, parse_module, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_STORE = 4
EXIT_TRAP = 5
EXIT_FUEL = 6

SOLVER_ENV = "CROW_SOLVER"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _load_module(path: str) -> Module:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _CliError(EXIT_INPUT, f"{path}: {e}")
    try:
        m = parse_module(text)
    except ParseError as e:
        raise _CliError(EXIT_INPUT, f"{path}: {e}")
    diags = validate(m)
    if diags:
        raise _CliError(EXIT_INPUT, f"{path}: {diags[0]}")
    return m


def _parse_args_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise _CliError(EXIT_CONFIG, f"bad --args value {text!r}")


def _solver_cmd(args) -> tuple[str, ...]:
    raw = args.solver_cmd or os.environ.get(SOLVER_ENV, "")
    return tuple(shlex.split(raw)) if raw else ()


def _run_config(args) -> RunConfig:
    try:
        vocabulary = Vocabulary.parse(args.vocab) if args.vocab else Vocabulary.default()
        synthesis = SynthesisConfig(
            max_size=args.max_size,
            vocabulary=vocabulary,
            seed=args.seed,
        )
        checker = CheckerConfig(
            mode={"exhaustive": "exhaustive-only", "probable": "probable-ok", "smt": "smt"}[
                args.checker
            ],
            seed=args.seed,
            solver_cmd=_solver_cmd(args),
        )
        cfg = RunConfig(
            synthesis=synthesis,
            checker=checker,
            max_variants=args.max_variants,
            rank_by_diff=args.rank_by_diff,
            strict=args.strict,
            jobs=args.jobs,
            timeout_seconds=args.timeout_secs,
            seed=args.seed,
            invoke_name=args.invoke,
            invoke_args=tuple(_parse_args_list(args.args)),
            fuel=args.fuel,
        )
    except (ConfigError, KeyError) as e:
        raise _CliError(EXIT_CONFIG, str(e))
    errs = cfg.validate()
    if errs:
        raise _CliError(EXIT_CONFIG, "; ".join(errs))
    if args.checker == "smt" and not cfg.checker.solver_cmd:
        raise _CliError(
            EXIT_CONFIG, f"--checker smt needs --solver-cmd or ${SOLVER_ENV}"
        )
    return cfg


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--timeout-secs", type=float, default=60.0)
    p.add_argument("--max-size", type=int, default=3, help="max ops per candidate")
    p.add_argument("--vocab", default="", help="comma-separated candidate ops")
    p.add_argument("--max-variants", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checker", choices=["exhaustive", "probable", "smt"], default="probable")
    p.add_argument("--solver-cmd", default="", help=f"SMT solver argv (or ${SOLVER_ENV})")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--invoke", default="main")
    p.add_argument("--args", default="", help="comma-separated i32 arguments")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--rank-by-diff", action="store_true")
    p.add_argument("--strict", action="store_true", help="use only verified replacements")


def _cmd_explore(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    results = explore_module(m, cfg)
    store = store_to_json(m, cfg, results)
    Path(args.output).write_text(dump_json(store))
    found = sum(len(r.replacements) for r in results)
    print(f"explored {len(results)} block(s), {found} replacement(s) -> {args.output}")
    if store["budget_exhausted"]:
        print("budget exhausted on at least one block")
    return EXIT_OK


def write_artifacts(outdir: Path, m: Module, cfg: RunConfig, result: DiversifyResult,
                    original_file: str) -> list[str]:
    """Writes replacements.json (unless the replacements came from a store),
    variant_<k>.wat, traces/ (when the run traced) and manifest.json into
    `outdir`; returns the variant file names."""
    outdir.mkdir(parents=True, exist_ok=True)
    if result.exploration is not None:
        (outdir / "replacements.json").write_text(
            dump_json(store_to_json(m, cfg, result.exploration))
        )
    files = [f"variant_{i}.wat" for i in range(len(result.reports))]
    for name, report in zip(files, result.reports):
        (outdir / name).write_text(report.variant.text)
    if result.original_trace is not None:
        tdir = outdir / "traces"
        tdir.mkdir(exist_ok=True)
        with open(tdir / "original.trace", "w") as f:
            write_trace(result.original_trace, result.original_outcome, f, cfg.invoke_name)
        for name, report in zip(files, result.reports):
            with open(tdir / f"{Path(name).stem}.trace", "w") as f:
                write_trace(report.trace, report.outcome, f, cfg.invoke_name)
    manifest = manifest_to_json(m, cfg, result, original_file, files)
    (outdir / "manifest.json").write_text(dump_json(manifest))
    return files


def _cmd_generate(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    try:
        store = json.loads(Path(args.store).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise _CliError(EXIT_INPUT, f"{args.store}: {e}")
    try:
        blocks, replacements = replacements_from_store(m, store)
    except StoreMismatchError as e:
        raise _CliError(EXIT_STORE, str(e))
    outdir = Path(args.output)
    result = report_variants(m, blocks, replacements, cfg)
    files = write_artifacts(outdir, m, cfg, result, args.module)
    print(f"{len(files)} unique variant(s) -> {outdir}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    m = _load_module(args.module)
    try:
        outcome, trace = trace_module(m, args.invoke, _parse_args_list(args.args), args.fuel)
    except InvokeError as e:
        raise _CliError(EXIT_INPUT, str(e))
    sink = open(args.output, "w") if args.output else sys.stdout
    try:
        write_trace(trace, outcome, sink, entry=args.invoke)
    finally:
        if args.output:
            sink.close()
    if outcome.kind == "trap":
        return EXIT_TRAP
    if outcome.kind == "fuel-exhausted":
        return EXIT_FUEL
    return EXIT_OK


def _read_trace_file(path: str):
    try:
        with open(path) as f:
            return read_trace(f)
    except (OSError, TraceFormatError) as e:
        raise _CliError(EXIT_INPUT, f"{path}: {e}")


def _measure_pair(kind: str, left: str, right: str, normalize: bool) -> str:
    if kind == "static":
        cost = dt_static(_load_module(left), _load_module(right))
        return f"{left}\t{right}\tstatic\t{cost}"
    ltrace, _ = _read_trace_file(left)
    rtrace, _ = _read_trace_file(right)
    cost = dt_dyn(ltrace, rtrace)
    row = f"{left}\t{right}\tdynamic\t{cost}"
    if normalize:
        if not ltrace:
            raise _CliError(EXIT_INPUT, f"{left}: empty trace cannot normalize")
        row += f"\t{cost / len(ltrace):.6f}"
    return row


def _cmd_measure(args) -> int:
    rows = []
    if args.right is None:
        root = Path(args.left)
        if not root.is_dir():
            raise _CliError(EXIT_INPUT, f"{args.left}: directory expected when RIGHT is omitted")
        suffix = ".wat" if args.kind == "static" else ".trace"
        files = sorted(str(p) for p in root.iterdir() if p.suffix == suffix)
        for i in range(len(files)):
            for j in range(i + 1, len(files)):
                rows.append(_measure_pair(args.kind, files[i], files[j], args.normalize))
    else:
        rows.append(_measure_pair(args.kind, args.left, args.right, args.normalize))
    print("\n".join(rows))
    return EXIT_OK


def _cmd_diversify(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    try:
        result = diversify(m, cfg, do_trace=cfg.invoke_name in m.exports)
    except InvokeError as e:
        raise _CliError(EXIT_INPUT, str(e))
    outdir = Path(args.output)
    files = write_artifacts(outdir, m, cfg, result, args.module)
    dyn = sum(1 for r in result.reports if r.dt_dyn not in (None, 0))
    print(
        f"{len(files)} unique variant(s), {dyn} with dt_dyn > 0 -> {outdir}"
    )
    if result.outcome_mismatches:
        print(f"dropped {result.outcome_mismatches} variant(s) on outcome mismatch")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crow", description="Diversify WebAssembly text modules."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="synthesize replacements for all pure blocks")
    p.add_argument("module")
    p.add_argument("-o", "--output", default="replacements.json")
    _add_common(p)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("generate", help="emit unique variants from a replacement store")
    p.add_argument("module")
    p.add_argument("store")
    p.add_argument("-o", "--output", default="variants")
    _add_common(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("trace", help="execute an export and record its stack trace")
    p.add_argument("module")
    p.add_argument("-o", "--output", default="")
    p.add_argument("--invoke", default="main")
    p.add_argument("--args", default="")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("measure", help="DTW distance between modules or traces")
    p.add_argument("kind", choices=["static", "dynamic"])
    p.add_argument("left")
    p.add_argument("right", nargs="?")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("diversify", help="explore, generate, trace, and measure")
    p.add_argument("module")
    p.add_argument("-o", "--output", default="diversified")
    _add_common(p)
    p.set_defaults(fn=_cmd_diversify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as e:
        print(f"crow: {e.message}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
