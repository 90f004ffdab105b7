"""crow's benchmark: one workload per process, each operation an in-process
`crow.cli.main([...])` call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--jobs J]

Run it from the root of a checkout: it imports crow from `./src`, reads
`BENCHMARK.json` for the metric names and units, and writes only under
`perfbench/.work/`. Set-up is timed as a fresh interpreter starting and
importing crow, plus generating and writing the workload's inputs from the
seed and one warm-up diversify; each part runs five times. Then the
operations run round-robin until S seconds have passed, with at least one
pass over all of them. Repeated timings count by their upper quartile (see
`upper_quartile`). Every output is
checked against a reference that does not come from crow, and every repeat
of an operation must produce byte-identical files.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones. With
`--trace 1` every operation also runs once more with span tracing on, the
metrics are the per-layer ones, and the spans and a per-layer summary go to
`perfbench/.work/<workload>/trace/`.

`--smoke` runs every workload once, at small sizes and traced, in well under
a minute; the benchmark's own tests use it, with `--jobs 2` as well.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# what the traced run should show for each workload; reported, not enforced
PREDICTIONS = {
    "corpus-explore": ("synth + equiv take at least 90% of operation time",
                       lambda sh, top: sh["synth"] + sh["equiv"] >= 0.9),
    "scale-generate": ("synth + equiv take a minority of operation time",
                       lambda sh, top: sh["synth"] + sh["equiv"] < 0.5),
    "dyn-loop": ("metrics.dtw has the largest self time",
                 lambda sh, top: top == "metrics.dtw"),
    "trace-long": ("interp (invoke + write_trace) is the largest layer",
                   lambda sh, top: max(sh, key=sh.get) == "interp"),
}


def upper_quartile(times: list[float]) -> float:
    """The timing statistic for repeated measurements. On a shared host,
    intermittent fast periods (up to 2x) pull the median around from run to
    run, while the common, contended speed sets the upper quartile; across
    runs it spread less than the median, or as little."""
    return statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0]


def _import_crow() -> float:
    """Imports crow from `./src`, never an installed copy. Returns the
    seconds from this script's start until crow and numpy are loaded."""
    src = Path("src").resolve()
    if not (src / "crow" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no crow sources under {src}; run from a checkout root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import crow
    import crow.cli  # noqa: F401  (loads every layer and numpy)

    if Path(crow.__file__).resolve().parent != src / "crow":
        raise SystemExit(f"perfbench: imported crow from {crow.__file__}, not {src}")
    return time.perf_counter() - _T0


def _cold_import_s() -> float:
    """Seconds for a fresh interpreter to start, import crow (and numpy)
    from `./src` and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import crow.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return upper_quartile(times)


def _set_up(name: str, seed: int, sizes, workdir: Path):
    """Generates and writes the workload's inputs, then warms crow's code
    paths with one tiny diversify."""
    from programs import Shape, generate
    from workloads import WORKLOADS, Op, execute

    inputs = workdir / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    wl = WORKLOADS[name](inputs, seed, sizes)
    tiny = generate(Shape(2), seed)
    warm = inputs / "warm-up.wat"
    warm.write_text(tiny.wat())
    res = execute(Op("warm-up", str(warm), ("--timeout-secs", "0.01", "--max-variants", "2"),
                     tiny.main()), workdir / "warm-up", seed, 1)
    if not res.ok:
        raise SystemExit(f"perfbench: warm-up failed: {res.errors}")
    return wl


class Run:
    """Executions of one workload's operations, and what they found."""

    def __init__(self, wl, workdir: Path, seed: int, jobs: int, tracer):
        self.wl, self.workdir, self.seed, self.jobs = wl, workdir, seed, jobs
        self.tracer = tracer
        self.untraced: dict[str, list] = defaultdict(list)
        self.traced: dict[str, list] = defaultdict(list)
        self.attempted = self.failed = 0
        self.wrong = False
        self.errors: list[str] = []
        self.probe_raised = 0

    def attempt(self, op, traced: bool):
        import workloads

        self.attempted += 1
        gc.collect()
        runs = self.traced if traced else self.untraced
        kw = {"tracer": self.tracer, "op_id": f"{op.name}#{len(runs[op.name])}"} if traced else {}
        try:
            res = workloads.execute(op, self.workdir / "out" / op.name, self.seed, self.jobs, **kw)
        except Exception as e:  # a crash fails the operation, not the run
            res = workloads.OpResult()
            res.fail(f"{type(e).__name__}: {e}", wrong=False)
        if not res.ok:
            self.failed += 1
            self.wrong = self.wrong or res.wrong
            self.errors.extend(f"{op.name}: {msg}" for msg in res.errors[:5])
        runs[op.name].append(res)

    def measure(self, seconds: float):
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for op in self.wl.ops:
                if passes and time.perf_counter() >= deadline:
                    break
                self.attempt(op, traced=False)
                if self.tracer is not None:
                    self.attempt(op, traced=True)
            passes += 1

    def probe(self):
        """Runs the known-defect probe once, outside the measured operations.
        While the defect stands it raises the expected exception, which is
        recorded; once fixed, its outputs are checked like any other."""
        from workloads import execute

        op, exc_type = self.wl.probe
        t0 = time.perf_counter()
        try:
            res = execute(op, self.workdir / "out" / op.name, self.seed, self.jobs)
        except exc_type as e:
            self.probe_raised = 1
            print(f"probe {op.name}: known defect, {type(e).__name__}: {e} "
                  f"after {time.perf_counter() - t0:.3f} s")
            return
        except Exception as e:
            self.wrong = True
            self.errors.append(f"probe {op.name}: {type(e).__name__}: {e}")
            return
        print(f"probe {op.name}: completed, ok={res.ok} variants={res.variants}")
        if not res.ok:
            self.wrong = True
            self.errors.extend(f"probe {op.name}: {msg}" for msg in res.errors[:5])

    def ok_runs(self, op_name: str, traced: bool = False) -> list:
        return [r for r in (self.traced if traced else self.untraced)[op_name] if r.ok]

    def check_repeats(self):
        """Every repeat of an operation, traced or not, must give
        byte-identical outputs."""
        for op in self.wl.ops:
            runs = self.ok_runs(op.name) + self.ok_runs(op.name, traced=True)
            if len({r.digest() for r in runs}) > 1:
                self.wrong = True
                self.errors.append(f"{op.name}: outputs differ between repeats")
            if not self.ok_runs(op.name):
                self.wrong = True
                self.errors.append(f"{op.name}: no successful execution")

    def pass_total(self, attr: str) -> float:
        """Sum over operations of one successful execution's `attr`; these
        counts repeat exactly for a fixed seed."""
        return sum(getattr(self.ok_runs(op.name)[0], attr) for op in self.wl.ops)

    def pass_wall(self, traced: bool = False) -> float:
        """Seconds of one pass over every operation, each timed by the upper
        quartile of its executions."""
        return sum(upper_quartile([r.wall_s for r in self.ok_runs(op.name, traced)])
                   for op in self.wl.ops)

    def report(self) -> dict:
        ops = {}
        for op in self.wl.ops:
            runs = self.untraced[op.name]
            ok = self.ok_runs(op.name)
            first = ok[0] if ok else None
            ops[op.name] = {
                "walls_s": [r.wall_s for r in runs],
                "replacements": first and first.replacements,
                "variants": first and first.variants,
                "events": first and first.events,
                "digest": first and first.digest(),
                "groups": first and first.groups(),
                "files": first and first.digests,
            }
            line = f"op {op.name}: runs={len(runs)} walls_s={[round(r.wall_s, 3) for r in runs]}"
            if first:
                line += (f" replacements={first.replacements} variants={first.variants}"
                         f" events={first.events} digest={first.digest()} "
                         + " ".join(f"{k}={v[:16]}" for k, v in first.groups().items()))
            print(line)
        for msg in self.errors:
            print(f"error: {msg}")
        return {"workload": self.wl.name, "seed": self.seed, "jobs": self.jobs, "ops": ops,
                "errors": self.errors, "probe_raised": self.probe_raised}


def _end_to_end(run: Run, setup_s: float) -> dict:
    variants = run.pass_total("variants")
    wall = run.pass_wall()

    def share(attr):
        return run.pass_total(attr) / variants if variants else 0.0

    return {
        "variants_per_s": variants / wall,
        "trace_events_per_s": run.pass_total("events") / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
        "replacements": run.pass_total("replacements"),
        "variants": variants,
        "verified_frac": share("verified"),
        "dyn_diverse_frac": share("dyn_diverse"),
        "outcome_ok_frac": variants / (variants + run.pass_total("mismatches")) if variants else 0.0,
    }


def _per_layer(run: Run, report: dict) -> dict:
    import crow.synth
    import tracing

    per_op = {
        op.name: tracing.median_profile(
            [tracing.op_profile(run.tracer.spans, r.spans) for r in run.ok_runs(op.name, True)])
        for op in run.wl.ops
    }
    one_pass = tracing.sum_profiles(list(per_op.values()))
    nominal = crow.synth.WORK_UNITS_PER_SECOND
    values = tracing.layer_metrics(one_pass, nominal)
    shares = tracing.layer_shares(one_pass)
    values.update({f"share.{k}": v for k, v in shares.items()})
    values["trace.overhead_frac"] = run.pass_wall(traced=True) / run.pass_wall() - 1
    values["pipeline.bytes_written"] = run.pass_total("bytes_written")
    values["defect.plan_overflow"] = run.probe_raised

    layers = {k: v for k, v in shares.items() if k != "unaccounted"}
    top = max((n for n in one_pass["self_s"] if n != tracing.OP_SPAN), key=one_pass["self_s"].get)
    claim, holds = PREDICTIONS[run.wl.name]
    summary = {
        "workload": run.wl.name,
        "layer_shares": shares,
        "unaccounted_share": shares["unaccounted"],
        "largest_self_time": top,
        "prediction": {"claim": claim, "holds": bool(holds(layers, top))},
        "work_units_per_s": {"observed": values["synth.work_units_per_s"], "nominal": nominal},
        "per_op": {n: {"wall_s": p["wall_s"], "layer_shares": tracing.layer_shares(p),
                       "self_s": p["self_s"], "total_s": p["total_s"], "calls": p["calls"],
                       "counts": p["counts"]}
                   for n, p in per_op.items()},
        "metrics": values,
    }
    tdir = run.workdir / "trace"
    tdir.mkdir(exist_ok=True)
    run.tracer.write(tdir / "spans.jsonl")
    (tdir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    report["trace_summary"] = str(tdir / "summary.json")
    print("layer shares: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    print(f"work units: {values['synth.work_units_per_s']:.0f}/s observed, {nominal}/s nominal")
    print(f"prediction ({claim}): {'holds' if summary['prediction']['holds'] else 'FAILS'}")
    return values


def _with_units(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(name: str, seed: int, seconds: float, trace: bool, jobs: int,
                 smoke: bool = False) -> dict:
    import tracing
    import workloads

    spec = json.loads(Path("BENCHMARK.json").read_text())
    import_s = _import_crow()
    cold_import_s = _cold_import_s()
    sizes = workloads.SMOKE if smoke else workloads.FULL
    workdir = Path(os.path.relpath(HERE / ".work" / (name + ("-smoke" if smoke else ""))))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = _set_up(name, seed, sizes, workdir)
        setup_times.append(time.perf_counter() - t0)
    # set-up as a fresh process pays it: start and import, then inputs
    setup_s = cold_import_s + upper_quartile(setup_times)
    print(f"setup: import_s={import_s:.4f} cold_import_s={cold_import_s:.4f}"
          f" runs_s={[round(t, 4) for t in setup_times]}")

    run = Run(wl, workdir, seed, jobs, tracing.Tracer() if trace else None)
    run.measure(seconds)
    if wl.probe is not None:
        run.probe()
    run.check_repeats()
    report = run.report()
    metrics = {}
    if all(run.ok_runs(op.name) and (not trace or run.ok_runs(op.name, traced=True))
           for op in wl.ops):
        if trace:
            metrics = _with_units(_per_layer(run, report), spec["per_layer"])
        else:
            metrics = _with_units(_end_to_end(run, setup_s), spec["end_to_end"])
    (workdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return {"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=1, help="crow --jobs; 1 when measuring")
    p.add_argument("--smoke", action="store_true", help="every workload once, small and traced")
    args = p.parse_args(argv)
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            out = run_workload(name, args.seed, 0.0, True, args.jobs, smoke=True)
            print(f"smoke {name}: " + json.dumps(out))
            ok = ok and out["correct"] and out["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
