"""Command-line front end: explore, generate, trace, measure, diversify.

Exit codes are part of the contract: 0 success, 2 malformed input (parse or
validation failure, unknown export, malformed trace), 3 configuration error
(a bad option value, such as an output path that cannot be written, or a
usage error such as an unknown or missing argument), 4 replacement-store/
module mismatch or malformed store, 5 the traced program trapped, 6 it ran
out of fuel.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path

from .equiv import SOLVER_ENV, CheckerConfig, ConfigError
from .interp import InvokeError, TraceFormatError, read_trace, write_trace
from .metrics import dtw, tokenize, trace_tokens
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
from .synth import SynthesisConfig, Vocabulary
from .wat import INT32_MIN, UINT32_MAX, Module, ParseError, parse_module, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_STORE = 4
EXIT_TRAP = 5
EXIT_FUEL = 6


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


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


@contextmanager
def _writing(path):
    """An output that cannot be written is a bad option value."""
    try:
        yield
    except OSError as e:
        raise _CliError(EXIT_CONFIG, f"{path}: {e}")


def _claim_output(path, directory: bool = False):
    """Fails on an output that cannot be written before any work is done:
    creates the output directory, or opens the output file for appending,
    so that an existing file is not truncated yet."""
    with _writing(path):
        if directory:
            Path(path).mkdir(parents=True, exist_ok=True)
        else:
            open(path, "a").close()


def _parse_args_list(text: str) -> list[int]:
    """Integers in the range i32.const takes, [-2**31, 2**32 - 1]."""
    try:
        values = [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        values = None
    if values is None or not all(INT32_MIN <= v <= UINT32_MAX for v in values):
        raise _CliError(EXIT_CONFIG, f"bad --args value {text!r}")
    return values


# flag dest -> the RunConfig field it sets as it is
_FIELDS = {
    "seed": "seed", "jobs": "jobs", "timeout_secs": "timeout_seconds",
    "max_variants": "max_variants", "rank_by_diff": "rank_by_diff", "strict": "strict",
    "invoke": "invoke_name", "fuel": "fuel",
}

_CHECKER_MODES = {"exhaustive": "exhaustive-only", "probable": "probable-ok", "smt": "smt"}


def _run_config(args) -> RunConfig:
    """The run configuration from the flags that were given. Every flag
    defaults to None, so a field whose flag is unset, or that the
    subcommand takes no flag for, keeps its dataclass default."""
    given = {dest: v for dest, v in vars(args).items() if v is not None}
    fields = {field: given[dest] for dest, field in _FIELDS.items() if dest in given}
    try:
        if "max_size" in vars(args):  # the synthesis flags
            synthesis = {"max_size": given["max_size"]} if "max_size" in given else {}
            if args.vocab:  # an empty --vocab keeps the default vocabulary
                synthesis["vocabulary"] = Vocabulary.parse(args.vocab)
            checker = {"mode": _CHECKER_MODES[given["checker"]]} if "checker" in given else {}
            solver_cmd = args.solver_cmd or os.environ.get(SOLVER_ENV)
            if solver_cmd:
                checker["solver_cmd"] = tuple(shlex.split(solver_cmd))
            fields["synthesis"] = SynthesisConfig(**synthesis)
            fields["checker"] = CheckerConfig(**checker)
        if "args" in given:
            fields["invoke_args"] = tuple(_parse_args_list(given["args"]))
        return RunConfig(**fields)
    except ConfigError as e:
        raise _CliError(EXIT_CONFIG, str(e))


def _add_synthesis(p: argparse.ArgumentParser):
    p.add_argument("--timeout-secs", type=float)
    p.add_argument("--max-size", type=int, help="max ops per candidate")
    p.add_argument("--vocab", help="comma-separated candidate ops")
    p.add_argument("--checker", choices=list(_CHECKER_MODES))
    p.add_argument("--solver-cmd", help=f"SMT solver argv (or ${SOLVER_ENV})")
    p.add_argument("--jobs", type=int)


def _add_generation(p: argparse.ArgumentParser):
    p.add_argument("--max-variants", type=int)
    p.add_argument("--rank-by-diff", action="store_true", default=None)
    p.add_argument("--strict", action="store_true", default=None,
                   help="use only verified replacements")


def _add_run(p: argparse.ArgumentParser):
    p.add_argument("--invoke", help="export to run (default: main)")
    p.add_argument("--args", help="comma-separated i32 arguments")
    p.add_argument("--fuel", type=int)


def _cmd_explore(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    _claim_output(args.output)
    results = explore_module(m, cfg)
    store = store_to_json(m, cfg, results)
    with _writing(args.output):
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
    except (OSError, json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise _CliError(EXIT_INPUT, f"{args.store}: {e}")
    try:
        blocks, replacements = replacements_from_store(m, store)
    except StoreMismatchError as e:
        raise _CliError(EXIT_STORE, str(e))
    outdir = Path(args.output)
    _claim_output(outdir, directory=True)
    result = report_variants(m, blocks, replacements, cfg)
    with _writing(outdir):
        files = write_artifacts(outdir, m, cfg, result, args.module)
    print(f"{len(files)} unique variant(s) -> {outdir}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    if args.output:
        _claim_output(args.output)
    try:
        outcome, trace = trace_module(m, cfg)
    except InvokeError as e:
        raise _CliError(EXIT_INPUT, str(e))
    if args.output:
        with _writing(args.output), open(args.output, "w") as sink:
            write_trace(trace, outcome, sink, entry=cfg.invoke_name)
    else:
        write_trace(trace, outcome, sys.stdout, entry=cfg.invoke_name)
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


def _measure_pair(kind: str, left: str, right: str, a, b, normalize: bool) -> str:
    """One row for the files `left` and `right`, loaded as the code arrays
    `a` and `b`."""
    cost = dtw(a, b).cost
    row = f"{left}\t{right}\t{kind}\t{cost}"
    if normalize:
        if len(a) == 0:
            raise _CliError(EXIT_INPUT, f"{left}: empty trace cannot normalize")
        row += f"\t{cost / len(a):.6f}"
    return row


def _cmd_measure(args) -> int:
    if args.normalize and args.kind == "static":
        raise _CliError(EXIT_CONFIG, "--normalize is for dynamic traces")
    if args.right is None:
        root = Path(args.left)
        if not root.is_dir():
            raise _CliError(EXIT_INPUT, f"{args.left}: directory expected when RIGHT is omitted")
        suffix = ".wat" if args.kind == "static" else ".trace"
        files = sorted(str(p) for p in root.iterdir() if p.suffix == suffix)
    else:
        files = [args.left, args.right]
    if args.kind == "static":
        loaded = [tokenize(_load_module(path)) for path in files]
    else:
        loaded = [trace_tokens(_read_trace_file(path)[0]) for path in files]
    rows = [
        _measure_pair(args.kind, files[i], files[j], loaded[i], loaded[j], args.normalize)
        for i in range(len(files)) for j in range(i + 1, len(files))
    ]
    for row in rows:
        print(row)
    return EXIT_OK


def _cmd_diversify(args) -> int:
    m = _load_module(args.module)
    cfg = _run_config(args)
    # without --invoke, a module that exports no main diversifies untraced
    if args.invoke is not None and args.invoke not in m.exports:
        raise _CliError(EXIT_INPUT, f"unknown export {args.invoke!r}")
    outdir = Path(args.output)
    _claim_output(outdir, directory=True)
    try:
        result = diversify(m, cfg)
    except InvokeError as e:
        raise _CliError(EXIT_INPUT, str(e))
    with _writing(outdir):
        files = write_artifacts(outdir, m, cfg, result, args.module)
    dyn = sum(1 for r in result.reports if r.dt_dyn not in (None, 0))
    print(
        f"{len(files)} unique variant(s), {dyn} with dt_dyn > 0 -> {outdir}"
    )
    if result.outcome_mismatches:
        print(f"dropped {result.outcome_mismatches} variant(s) on outcome mismatch")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crow", description="Diversify WebAssembly text modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="synthesize replacements for all pure blocks")
    p.add_argument("module")
    p.add_argument("-o", "--output", default="replacements.json")
    p.add_argument("--seed", type=int)
    _add_synthesis(p)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("generate", help="emit unique variants from a replacement store")
    p.add_argument("module")
    p.add_argument("store")
    p.add_argument("-o", "--output", default="variants")
    p.add_argument("--seed", type=int)
    _add_generation(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("trace", help="execute an export and record its stack trace")
    p.add_argument("module")
    p.add_argument("-o", "--output", default="")
    _add_run(p)
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
    p.add_argument("--seed", type=int)
    _add_synthesis(p)
    _add_generation(p)
    _add_run(p)
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
