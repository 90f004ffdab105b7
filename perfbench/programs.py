"""Seeded generator of scale programs for the benchmark, with a plain-Python
reference for each program's `run(T)` result.

A generated module exports `run(T)` (function 0) and, unless the shape
turns it off, `main` (function 1, which calls `run` with a fixed small trip
count). `run` keeps an accumulator
in local 1 and a loop counter in param 0:

    acc = <init>                      # param, constant or tee chain
    acc = f_i(acc)  for each "before" block
    while T != 0:                     # skipped when T == 0
        acc = f_i(acc)  for each "loop" block
        acc = acc + T
        T = T - 1
    return acc

Every block is followed by an empty `block`/`end` pair, which ends the
straight-line region, so crow sees each block as an independent pure block
whose input is the accumulator's value on entry. The knobs are:

* `n_blocks` (N): independent accumulator blocks;
* `tee_depth` (D): the `init="tee"` block doubles a constant D times through a
  `local.tee 2; local.get 2; i32.add` chain, a DAG whose tree expansion has
  2**D leaves;
* `placement`: whether the N blocks sit before the loop or in its body;
* `mix_consts`: each block folds a two-constant subexpression `a <op> b`
  (a zero-input block, which crow verifies exhaustively) into the
  accumulator instead of a single immediate;
* the trip count T, passed to `run` by the caller.

Operators, layout and the ordering of each block's constant pool are fixed
by the shape; the seed draws the immediates of plain blocks and the initial
constant. The two constants of a mixing subexpression are fixed per block
index instead: how many replacements crow finds for a zero-input block
depends on coincidences of its value (from 4 to the cap of 24 for
different constants), which would make output counts swing from seed to
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BLOCK_OPS = ("add", "xor", "sub")  # accumulator operators, cycled by index
MIX_OPS = ("add", "xor", "or")  # two-constant subexpression operators


def wrap(v: int) -> int:
    """Signed 32-bit wraparound."""
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >> 31 else v


def apply_op(op: str, a: int, b: int) -> int:
    if op == "add":
        return wrap(a + b)
    if op == "sub":
        return wrap(a - b)
    if op == "xor":
        return wrap(a ^ b)
    if op == "or":
        return wrap(a | b)
    raise ValueError(op)


@dataclass(frozen=True)
class Shape:
    n_blocks: int
    placement: str = "before"  # 'before' | 'loop'
    init: str = "const"  # 'param' | 'const' | 'tee'
    tee_depth: int = 0
    mix_consts: bool = False
    main_trips: int | None = 4  # T that `main` passes to `run`; None: no `main`


@dataclass(frozen=True)
class Block:
    op: str
    k: int  # the immediate, or `a` when mixing constants
    mix_op: str | None = None
    b: int = 0

    def operand(self) -> int:
        return self.k if self.mix_op is None else apply_op(self.mix_op, self.k, self.b)

    def wat(self) -> list[str]:
        lines = ["local.get 1", f"i32.const {self.k}"]
        if self.mix_op is not None:
            lines += [f"i32.const {self.b}", f"i32.{self.mix_op}"]
        return lines + [f"i32.{self.op}", "local.set 1", "block", "end"]


@dataclass(frozen=True)
class Program:
    shape: Shape
    init_a: int
    init_b: int
    blocks: tuple[Block, ...]

    def init_value(self, trips: int) -> int:
        s = self.shape
        if s.init == "param":
            return wrap(trips)
        if s.init == "tee":
            return wrap(self.init_a << s.tee_depth)
        return apply_op("add", self.init_a, self.init_b)

    def run(self, trips: int) -> int:
        """Reference result of `run(trips)`; independent of crow."""
        acc = self.init_value(trips)
        before = self.shape.placement == "before"
        if before:
            for blk in self.blocks:
                acc = apply_op(blk.op, acc, blk.operand())
        t = wrap(trips)
        while t != 0:
            if not before:
                for blk in self.blocks:
                    acc = apply_op(blk.op, acc, blk.operand())
            acc = wrap(acc + t)
            t = wrap(t - 1)
        return acc

    def main(self) -> int | None:
        trips = self.shape.main_trips
        return None if trips is None else self.run(trips)

    def wat(self) -> str:
        s = self.shape
        if s.init == "param":
            init = ["local.get 0"]
        elif s.init == "tee":
            init = [f"i32.const {self.init_a}"]
            init += ["local.tee 2", "local.get 2", "i32.add"] * s.tee_depth
        else:
            init = [f"i32.const {self.init_a}", f"i32.const {self.init_b}", "i32.add"]
        blocks = [line for blk in self.blocks for line in blk.wat()]
        before = blocks if s.placement == "before" else []
        inside = blocks if s.placement == "loop" else []
        body = (
            init + ["local.set 1", "block", "end"] + before
            + ["block", "local.get 0", "i32.eqz", "br_if 0", "loop"]
            + inside
            + ["local.get 1", "local.get 0", "i32.add", "local.set 1",
               "local.get 0", "i32.const 1", "i32.sub", "local.tee 0", "br_if 0",
               "end", "end", "local.get 1"]
        )
        main = [] if s.main_trips is None else [
            "  (func (;1;) (result i32)",
            f"    i32.const {s.main_trips}",
            "    call 0)",
            '  (export "main" (func 1))',
        ]
        return "\n".join(
            ["(module", "  (func (;0;) (param i32) (result i32) (local i32 i32)"]
            + ["    " + line for line in body]
            + ["  )"] + main + ['  (export "run" (func 0)))', ""]
        )


def generate(shape: Shape, seed: int) -> Program:
    """Draws the immediates of plain blocks and the initial constants from
    `seed`; mixing constants are fixed per block index. First constants lie
    in [10, 99] and second ones in [110, 999], so each block's constant pool
    (its constants, their neighbours and negations) sorts the same way for
    every seed."""
    rng = random.Random(seed)
    blocks = []
    for i in range(shape.n_blocks):
        if shape.mix_consts:
            blocks.append(Block(BLOCK_OPS[i % 3], 10 + 17 * i % 90, MIX_OPS[i % 3],
                                110 + 131 * i % 890))
        else:
            blocks.append(Block(BLOCK_OPS[i % 3], rng.randint(10, 99)))
    return Program(shape, rng.randint(10, 99), rng.randint(110, 999), tuple(blocks))
