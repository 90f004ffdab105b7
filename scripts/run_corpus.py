#!/usr/bin/env python3
"""Diversify the bundled corpus and summarize static/dynamic diversity.

For every bundled program this runs the full pipeline, then reports the
number of unique variants, the replacement totals, and the distribution of
dt_dyn between the original trace and each variant trace (min / max / median,
and the share of pairs with zero and non-zero distance). Artifacts land under
--out, one directory per program (replacements, variants, traces and the
manifest, as `crow diversify` writes them) for later auditing.
"""

import argparse
import statistics
import sys
from pathlib import Path

from crow import corpus
from crow.cli import write_artifacts
from crow.equiv import ConfigError
from crow.pipeline import RunConfig, diversify
from crow.wat import parse_module


def summarize(name, result):
    reports = result.reports
    dyn = [r.dt_dyn for r in reports if r.dt_dyn is not None]
    replacements = sum(len(b.replacements) for b in result.exploration)
    row = {
        "name": name,
        "variants": len(reports),
        "replacements": replacements,
        "dyn_min": min(dyn) if dyn else "-",
        "dyn_max": max(dyn) if dyn else "-",
        "dyn_median": int(statistics.median(dyn)) if dyn else "-",
        "zero_pct": 100.0 * sum(1 for d in dyn if d == 0) / len(dyn) if dyn else 0.0,
        "nonzero_pct": 100.0 * sum(1 for d in dyn if d > 0) / len(dyn) if dyn else 0.0,
    }
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="corpus-results")
    parser.add_argument("--timeout-secs", type=float)
    parser.add_argument("--max-variants", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--only", default="", help="comma-separated program names")
    args = parser.parse_args(argv)
    # unset flags keep RunConfig's defaults, the ones `crow diversify` uses
    flags = {"timeout_seconds": args.timeout_secs, "max_variants": args.max_variants,
             "seed": args.seed, "jobs": args.jobs}
    try:
        cfg = RunConfig(**{field: v for field, v in flags.items() if v is not None})
    except ConfigError as e:
        parser.error(str(e))

    names = [n for n in args.only.split(",") if n] or corpus.names()
    outroot = Path(args.out)
    outroot.mkdir(parents=True, exist_ok=True)

    rows = []
    for name in names:
        module = parse_module(corpus.load(name))
        result = diversify(module, cfg)
        write_artifacts(outroot / name, module, cfg, result, f"{name}.wat")
        rows.append(summarize(name, result))
        r = rows[-1]
        print(
            f"{name:20s} vars={r['variants']:<4} reps={r['replacements']:<4} "
            f"dt_dyn[min/med/max]={r['dyn_min']}/{r['dyn_median']}/{r['dyn_max']} "
            f">0: {r['nonzero_pct']:.1f}%"
        )

    diversified = sum(1 for r in rows if r["variants"] > 0)
    print(f"\ndiversified {diversified}/{len(rows)} programs "
          f"({100.0 * diversified / len(rows):.0f}%)")
    tsv = outroot / "summary.tsv"
    with open(tsv, "w") as f:
        cols = ["name", "variants", "replacements", "dyn_min", "dyn_median",
                "dyn_max", "zero_pct", "nonzero_pct"]
        f.write("\t".join(cols) + "\n")
        for r in rows:
            f.write("\t".join(str(r[c]) for c in cols) + "\n")
    print(f"summary -> {tsv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
