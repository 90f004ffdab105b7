import time
from dataclasses import dataclass

import pytest

# The doubling example: f(x) = 2*x + x, main() = f(10) = 30.
MUL_ADD_TEXT = """\
(module
  (type (;0;) (func (param i32) (result i32)))
  (type (;1;) (func (result i32)))
  (func (;0;) (type 0) (param i32) (result i32)
    local.get 0
    local.get 0
    i32.const 2
    i32.mul
    i32.add)
  (func (;1;) (type 1) (result i32)
    i32.const 10
    call 0)
  (export "main" (func 1)))
"""


@pytest.fixture
def mul_add_text():
    return MUL_ADD_TEXT


@pytest.fixture
def mul_add_module():
    from crow.wat import parse_module

    return parse_module(MUL_ADD_TEXT)


# Functions that keep a value pending on the stack while a local that also
# held it is overwritten, as (text, result of main). A re-emitted region must
# fetch the value from a local that still holds it: `param` overwrites both
# the copy in local 1 and the param itself, `load` the tee'd copy of a load.
REUSED_LOCALS = {
    "param": ("(module (func (param i32) (result i32) (local i32)"
              " local.get 0 i32.const 1 i32.add local.get 0 local.set 1"
              " i32.const 2 i32.const 3 i32.mul local.set 1 i32.const 7 local.set 0)"
              ' (func (result i32) i32.const 100 call 0) (export "main" (func 1)))', 101),
    "load": ("(module (memory 1) (func (param i32) (result i32) (local i32)"
             " local.get 0 i32.load local.tee 1 i32.const 1 i32.add i32.const 5 local.set 1)"
             " (func (result i32) i32.const 0 i32.const 41 i32.store i32.const 0 call 0)"
             ' (export "main" (func 1)))', 42),
}


@pytest.fixture(params=sorted(REUSED_LOCALS))
def reused_local_program(request):
    """(module text, result of main) of one REUSED_LOCALS program."""
    return REUSED_LOCALS[request.param]


@dataclass
class CorpusRun:
    name: str
    module: object
    result: object  # pipeline.DiversifyResult


@dataclass
class CorpusRuns:
    runs: dict
    wall_seconds: float


@pytest.fixture(scope="session")
def corpus_runs():
    """Full `diversify` over every bundled program under the default
    configuration; shared by the corpus-level acceptance criteria."""
    from crow import corpus
    from crow.pipeline import RunConfig, diversify
    from crow.wat import parse_module

    t0 = time.perf_counter()
    runs = {}
    for name in corpus.names():
        module = parse_module(corpus.load(name))
        runs[name] = CorpusRun(name, module, diversify(module, RunConfig()))
    return CorpusRuns(runs=runs, wall_seconds=time.perf_counter() - t0)
