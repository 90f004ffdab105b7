"""The benchmark's own tests; not part of the repository's test suite.

    python -m pytest perfbench/selftest.py -q

The file name matches none of pytest's test-file patterns, so a pytest run
over the whole repository never collects these slow, subprocess-spawning
tests; they run only when the file is named on the command line.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from programs import Shape, generate  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke_digests(jobs: int) -> dict[str, str]:
    out = _run("--smoke", "--jobs", str(jobs))
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    digests, pending = {}, {}
    for line in out.stdout.splitlines():
        m = re.match(r"op (\S+): .* digest=([0-9a-f]{64})", line)
        if m:
            pending[m.group(1)] = m.group(2)
        m = re.match(r"smoke (\S+): (.*)", line)
        if m:
            assert json.loads(m.group(2))["correct"], line
            digests.update({f"{m.group(1)}/{k}": v for k, v in pending.items()})
            pending = {}
    return digests


def test_smoke_is_fast_and_identical_across_jobs():
    t0 = time.perf_counter()
    one = _smoke_digests(1)
    assert time.perf_counter() - t0 < 60
    two = _smoke_digests(2)
    assert len(one) == 9  # every operation of every workload
    assert one == two


@pytest.mark.parametrize("shape", [
    Shape(5),
    Shape(3, placement="loop", init="param", mix_consts=True),
    Shape(2, placement="before", init="param", mix_consts=True, main_trips=None),
    Shape(0, init="tee", tee_depth=7),
])
def test_reference_matches_interpreter(shape):
    from crow.interp import instantiate, invoke
    from crow.wat import parse_module, validate

    for seed in range(4):
        prog = generate(shape, seed)
        m = parse_module(prog.wat())
        assert validate(m) == []
        for trips in (0, 1, 2, random.Random(seed).randint(3, 60)):
            outcome, _ = invoke(instantiate(m), "run", [trips])
            assert outcome.value == prog.run(trips)
        if shape.main_trips is not None:
            assert invoke(instantiate(m), "main", [])[0].value == prog.main()


def test_generator_is_seeded():
    shape = Shape(6, mix_consts=True)
    assert generate(shape, 7).wat() == generate(shape, 7).wat()
    assert generate(shape, 7).wat() != generate(shape, 8).wat()


def test_blocks_are_independent():
    from crow.ir import extract_module_blocks
    from crow.wat import parse_module

    m = parse_module(generate(Shape(6), 0).wat())
    blocks = extract_module_blocks(m)
    sizes = [b.node_count for b in blocks if b.func == 0 and len(b.inputs) == 1]
    assert sizes.count(3) >= 6  # local.get; i32.const; op -- never chained


def test_fails_without_the_program():
    bare = HERE / ".work" / "bare-checkout"
    if bare.exists():
        shutil.rmtree(bare)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    out = _run("--workload", "dyn-loop", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
