"""The benchmark's workloads: which programs each one diversifies or traces,
with which crow options, and how every operation's outputs are checked.

An operation is one or more in-process `crow.cli.main([...])` calls on one
input. Its outputs are checked against a reference that does not come from
crow: `corpus.MAIN_RESULTS` for bundled programs, the generator's Python
reference for generated ones.

The seed reaches crow as `--seed` (prefilter and sample vectors, plan
sampling) and the generator (the immediates of plain blocks and the initial
constant). The `dyn-loop` and `trace-long` programs have neither, so for them
the seed changes which variants are sampled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from programs import Shape, generate


@dataclass(frozen=True)
class Op:
    name: str
    module: str  # path of the input, relative to the checkout root
    args: tuple[str, ...]  # crow diversify options
    expected: int  # the result the traced entry point must return
    # `crow trace` of the first variant: (trip count for `run`, expected result)
    long_trace: tuple[int, int] | None = None


@dataclass
class OpResult:
    ok: bool = True
    wrong: bool = False  # an output differed from its reference
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    replacements: int = 0
    variants: int = 0
    verified: int = 0
    dyn_diverse: int = 0
    mismatches: int = 0
    events: int = 0  # trace events written
    bytes_written: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    spans: tuple[int, int] = (0, 0)  # the operation's span range in a traced run

    def fail(self, msg: str, wrong: bool = True):
        self.ok = False
        self.wrong = self.wrong or wrong
        self.errors.append(msg)

    def digest(self) -> str:
        return _sha(
            "".join(f"{k} {v}\n" for k, v in sorted(self.digests.items())).encode()
        )

    def groups(self) -> dict[str, str]:
        """One digest per artifact kind: the store, the variants, the traces
        and the manifest."""
        return {
            group: _sha("".join(f"{k} {v}\n" for k, v in sorted(self.digests.items())
                                if k.endswith(suffix)).encode())
            for group, suffix in (("replacements", "replacements.json"), ("variants", ".wat"),
                                  ("traces", ".trace"), ("manifest", "manifest.json"))
        }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _terminator(data: bytes) -> str:
    return data.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()


def _collect(res: OpResult, outdir: Path):
    """Digests every output file and counts trace events (one per line
    between the header and the terminator)."""
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            res.digests[str(path.relative_to(outdir))] = _sha(data)
            res.bytes_written += len(data)
            if path.suffix == ".trace":
                res.events += data.count(b"\n") - 2


def _check_diversify(res: OpResult, outdir: Path, op: Op, manifest: dict):
    want = f"result {op.expected}"
    original = outdir / "traces" / "original.trace"
    if not original.is_file():
        res.fail("no trace of the original")
    elif _terminator(original.read_bytes()) != want:
        res.fail(f"original: {_terminator(original.read_bytes())!r} != {want!r}")
    entries = manifest["variants"]
    for entry in entries:
        if entry.get("outcome") != want:
            res.fail(f"{entry['file']}: outcome {entry.get('outcome')!r} != {want!r}")
        trace = outdir / "traces" / (Path(entry["file"]).stem + ".trace")
        if not trace.is_file() or _terminator(trace.read_bytes()) != want:
            res.fail(f"{entry['file']}: trace does not end in {want!r}")
        if not (outdir / entry["file"]).is_file():
            res.fail(f"{entry['file']} missing")
    gen = manifest["generation"]
    if gen["emitted"] != len(entries):
        res.fail("manifest emitted count disagrees with its entries")
    res.variants = len(entries)
    res.verified = sum(1 for e in entries if e["verified"])
    res.dyn_diverse = sum(1 for e in entries if (e.get("dt_dyn") or 0) > 0)
    res.mismatches = gen["outcome_mismatches"]
    res.replacements = sum(b["count"] for b in manifest["exploration"]["replacements"].values())


def execute(op: Op, outdir: Path, seed: int, jobs: int, tracer=None, op_id: str = "") -> OpResult:
    """Runs one operation into a fresh `outdir` and checks its outputs. With
    a tracer, only the crow calls run inside the operation span."""
    from crow.cli import main as crow_main

    if outdir.exists():
        shutil.rmtree(outdir)
    res = OpResult()
    div = outdir / "div"

    def crow_calls() -> int:
        rc = crow_main(["diversify", op.module, "-o", str(div), "--seed", str(seed),
                        "--jobs", str(jobs), *op.args])
        if rc == 0 and op.long_trace is not None:
            rc = crow_main(["trace", str(div / "variant_0.wat"), "--invoke", "run",
                            "--args", str(op.long_trace[0]), "-o", str(outdir / "long.trace")])
        return rc

    t0 = time.perf_counter()
    if tracer is None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = crow_calls()
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            rc, res.spans = tracer.trace_op(op_id, crow_calls)
    res.wall_s = time.perf_counter() - t0
    if rc != 0:
        res.fail(f"crow exited with {rc}", wrong=False)
        return res
    _check_diversify(res, div, op, json.loads((div / "manifest.json").read_text()))
    if op.long_trace is not None:
        data = (outdir / "long.trace").read_bytes()
        want = f"result {op.long_trace[1]}"
        if _terminator(data) != want:
            res.fail(f"long trace: {_terminator(data)!r} != {want!r}")
    _collect(res, outdir)
    return res


# --- workload definitions ----------------------------------------------------


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # known-defect probe: (op, exception type expected while the defect stands)
    probe: tuple[Op, type] | None = None


@dataclass(frozen=True)
class Sizes:
    """Knobs that differ between a measured run and a smoke run."""

    corpus_budget: str
    wide_blocks: int
    wide_variants: int
    tee_depth: int
    dyn_trips: tuple[int, int]
    long_trips: tuple[int, int]


FULL = Sizes("1", 12, 128, 19, (48, 100), (28000, 50000))
SMOKE = Sizes("0.05", 6, 16, 8, (10, 20), (200, 300))

CORPUS = ("popcount_loop", "sum_loop", "constant_fold")


def _write(inputs: Path, name: str, text: str) -> str:
    path = inputs / f"{name}.wat"
    path.write_text(text)
    return str(path)


def corpus_explore(inputs: Path, seed: int, sz: Sizes) -> Workload:
    from crow import corpus

    ops = [
        Op(name, _write(inputs, name, corpus.load(name)),
           ("--timeout-secs", sz.corpus_budget, "--max-variants", "16"),
           corpus.MAIN_RESULTS[name])
        for name in CORPUS
    ]
    return Workload("corpus-explore", ops)


def scale_generate(inputs: Path, seed: int, sz: Sizes) -> Workload:
    # no zero-input block in `wide`, and only verified replacements in
    # `tee-chain`, so the verified share does not depend on plan sampling
    wide = generate(Shape(sz.wide_blocks, init="param", main_trips=None), seed)
    tee = generate(Shape(0, init="tee", tee_depth=sz.tee_depth), seed)
    overflow = generate(Shape(48), seed)
    ops = [
        Op("wide", _write(inputs, "wide", wide.wat()),
           ("--invoke", "run", "--args", "4", "--timeout-secs", "0.3",
            "--max-variants", str(sz.wide_variants)), wide.run(4)),
        Op("tee-chain", _write(inputs, "tee-chain", tee.wat()),
           ("--strict", "--timeout-secs", "0.1", "--max-variants", "16"), tee.main()),
    ]
    probe = Op("plan-overflow", _write(inputs, "plan-overflow", overflow.wat()),
               ("--timeout-secs", "4", "--max-size", "1", "--vocab", "add,sub,xor,const",
                "--max-variants", "16"), overflow.main())
    return Workload("scale-generate", ops, (probe, OverflowError))


def dyn_loop(inputs: Path, seed: int, sz: Sizes) -> Workload:
    ops = []
    for name, shape, trips in (
        ("in-loop", Shape(2, placement="loop", init="param", mix_consts=True,
                          main_trips=None), sz.dyn_trips[0]),
        ("before-loop", Shape(8, placement="before", init="param", mix_consts=True,
                              main_trips=None), sz.dyn_trips[1]),
    ):
        prog = generate(shape, seed)
        ops.append(Op(name, _write(inputs, name, prog.wat()),
                      ("--invoke", "run", "--args", str(trips), "--strict",
                       "--timeout-secs", "0.1", "--max-variants", "16"),
                      prog.run(trips)))
    return Workload("dyn-loop", ops)


def trace_long(inputs: Path, seed: int, sz: Sizes) -> Workload:
    ops = []
    for name, shape, trips in (
        ("in-loop", Shape(1, placement="loop", init="param", mix_consts=True,
                          main_trips=None), sz.long_trips[0]),
        ("before-loop", Shape(4, placement="before", init="param", mix_consts=True,
                              main_trips=None), sz.long_trips[1]),
    ):
        prog = generate(shape, seed)
        ops.append(Op(name, _write(inputs, name, prog.wat()),
                      ("--invoke", "run", "--args", "5", "--strict",
                       "--timeout-secs", "0.05", "--max-variants", "1"),
                      prog.run(5), (trips, prog.run(trips))))
    return Workload("trace-long", ops)


WORKLOADS = {
    "corpus-explore": corpus_explore,
    "scale-generate": scale_generate,
    "dyn-loop": dyn_loop,
    "trace-long": trace_long,
}
