"""Dynamic time warping distances over instruction streams and stack traces.

Token distance is 0/1 on exact equality, so costs count mismatched
alignment steps and 0 means the two sequences are indistinguishable up to
run-length stretching. The recurrence is the classic
D(i,j) = d(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)) with D(0,0) = 0 and
infinite borders; one empty sequence costs the other's length.

Instruction tokens are strings, encoded to integer ids per call. A trace
event is the integer code 2*value + (kind == "push"), so two codes are equal
exactly when kind and value are; `dtw` takes such code arrays as they are.

The implementation vectorizes each DP row: with prefix sums S of the row's
costs, D(i,j) = S(j) + min_{k<=j} (min(D(i-1,k), D(i-1,k-1)) - S(k-1)),
a running minimum. Rows run over the shorter sequence, so there are
min(n, m) of them, each a fixed series of numpy passes into buffers
allocated once per call. Costs are integers: every cell is at most
max(n, m) < n + m, so n + m stands in for the infinite border, no value in
a row leaves [-(n + m), n + m], and int32 is exact while n + m < 2**31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interp import Trace
from .wat import Module

TokenSeq = list[str]
Codes = np.ndarray  # int64, one per trace event


@dataclass(frozen=True)
class DtwResult:
    cost: int
    len_a: int
    len_b: int


def tokenize(m: Module) -> TokenSeq:
    """Instruction tokens (`mnemonic[ immediate]`) over functions in index
    order, including structure tokens."""
    return [str(ins) for f in m.functions for ins in f.body]


def trace_tokens(trace: Trace) -> Codes:
    """One code per event, 2*value + (kind == "push"): equal codes mean equal
    events."""
    return np.array([2 * v + (k == "push") for k, v in trace], dtype=np.int64)


def _encode(a: TokenSeq | Codes, b: TokenSeq | Codes) -> tuple[Codes, Codes]:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a, b
    ids: dict[str, int] = {}
    enc = lambda seq: np.array([ids.setdefault(t, len(ids)) for t in seq], dtype=np.int64)
    return enc(a), enc(b)


def cell_dtype(n: int, m: int) -> type:
    """The narrowest integer type that holds every DP value of an n x m DTW."""
    return np.int32 if n + m < 2**31 else np.int64


def dtw(a: TokenSeq | Codes, b: TokenSeq | Codes) -> DtwResult:
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return DtwResult(cost=max(n, m), len_a=n, len_b=m)
    rows, cols = _encode(a, b)
    if len(rows) > len(cols):  # fewer, longer rows; cost is symmetric
        rows, cols = cols, rows
    width, inf = len(cols), n + m
    dt = cell_dtype(n, m)
    prev = np.full(width + 1, inf, dtype=dt)  # D(i-1, 0..width)
    prev[0] = 0
    s = np.zeros(width + 1, dtype=dt)  # S(0..width) of row i
    t = np.empty(width, dtype=dt)
    up, diag, s_j, s_before = prev[1:], prev[:-1], s[1:], s[:-1]
    for x in rows:
        np.not_equal(cols, x, out=t)
        np.add.accumulate(t, dtype=dt, out=s_j)  # cumsum, minus its wrapper
        np.minimum(up, diag, out=t)
        np.subtract(t, s_before, out=t)
        np.minimum.accumulate(t, out=t)
        np.add(s_j, t, out=up)
        prev[0] = inf  # D(i, 0) for i >= 1
    return DtwResult(cost=int(prev[width]), len_a=n, len_b=m)


def dt_static(m1: Module, m2: Module) -> int:
    """DTW cost between the instruction streams of two modules; 0 iff the
    streams are identical up to run collapsing."""
    return dtw(tokenize(m1), tokenize(m2)).cost


def dt_dyn(t1: Trace, t2: Trace) -> int:
    """DTW cost between two stack-operation traces, over event codes."""
    return dtw(trace_tokens(t1), trace_tokens(t2)).cost
