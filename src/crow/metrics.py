"""Dynamic time warping distances over instruction streams and stack traces.

Token distance is 0/1 on exact equality, so costs count mismatched
alignment steps and 0 means the two sequences are indistinguishable up to
run-length stretching. The recurrence is the classic
D(i,j) = d(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)) with D(0,0) = 0 and
infinite borders; one empty sequence costs the other's length.

Both sequences are int64 code arrays, equal exactly where the items are. An
instruction's code is immediate * len(INSTRUCTIONS) + the position of its
mnemonic in INSTRUCTIONS (no immediate counts as 0); a trace event's is
2*value + (kind == "push").

One kernel vectorizes each DP row: with prefix sums S of the row's costs,
D(i,j) = S(j) + min_{k<=j} (min(D(i-1,k), D(i-1,k-1)) - S(k-1)), a running
minimum. It runs on from any given row, a fixed series of numpy passes per
row into buffers allocated once per call. `dtw` runs it from row 0 over the
shorter sequence, so there are min(n, m) rows. Costs are integers: every
cell is at most max(n, m) < n + m, so n + m stands in for the infinite
border, no value in a row leaves [-(n + m), n + m], and int32 is exact while
n + m < 2**31.

`dt_dyn` measures every variant V (m events) against one original O (n
events), sharing O's rows across the variants. Say V's first p events and
last s events equal O's, with p + s <= min(n, m). Row i of V against O
depends only on V's first i events, so rows 0..p equal rows 0..p of O
against itself; one forward sweep of O against O, run to the largest p,
gives every variant its row p. Backwards, with R(i, j) the cost of the
cheapest path from cell (i, j) to (m, n), the cell included, rows q+1..m
(q = m - s) equal the rows of the reversed O against itself, read backwards;
one sweep over the reversed sequences, run to the largest s, gives every
variant its row q + 1. The variant then runs only its rows p+1..q from row
p. Every monotone path crosses from row q to row q+1 once, from (q, j) to
(q+1, j) or (q+1, j+1), so the cost is exactly
min_j D(q, j) + min(R(q+1, j), R(q+1, j+1)) (with s = 0 it is D(m, n)). An
identical trace costs 0 and runs no rows. A variant takes this path only
where its m - p - s rows plus an equal share of the two sweeps are fewer
than the min(n, m) rows of a plain `dtw`, which the others call. Every cell
is at most the longer length, so inf = n + the longest such m serves as the
border; a join adds two values of at most inf, so the cell type is
cell_dtype(inf, inf). Beyond the kernel's buffers, the batch holds one row
per variant: its join row, from the backward sweep until the forward sweep
reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interp import Trace
from .wat import INSTRUCTIONS, Module

Codes = np.ndarray  # int64, one per instruction or trace event

_POSITION = {mnemonic: i for i, mnemonic in enumerate(INSTRUCTIONS)}


@dataclass(frozen=True)
class DtwResult:
    cost: int
    len_a: int
    len_b: int


def tokenize(m: Module) -> Codes:
    """The instruction codes over functions in index order, structure
    instructions included. The mnemonic fixes whether there is an immediate
    and the position is below the radix, so equal codes mean equal `str(ins)`;
    a code outside int64 raises OverflowError rather than collide."""
    radix = len(INSTRUCTIONS)
    return np.array(
        [(ins.immediate or 0) * radix + _POSITION[ins.mnemonic]
         for f in m.functions for ins in f.body],
        dtype=np.int64,
    )


def trace_tokens(trace: Trace) -> Codes:
    """The trace's event codes, 2*value + (kind == "push"), as an int64 array
    over the trace's own buffer (no copy): equal codes mean equal events."""
    return np.frombuffer(trace.codes, dtype=np.int64)


def cell_dtype(n: int, m: int) -> type:
    """The narrowest integer type that holds every DP value of an n x m DTW."""
    return np.int32 if n + m < 2**31 else np.int64


def _first_row(width: int, inf: int, dt: type) -> np.ndarray:
    """D(0, 0..width): 0, then the infinite border."""
    row = np.full(width + 1, inf, dtype=dt)
    row[0] = 0
    return row


def _advance(prev: np.ndarray, rows: Codes, cols: Codes, inf: int) -> None:
    """Runs the DP on from `prev`, a row D(i, 0..len(cols)) for some i >= 0,
    one row per code of `rows`, in place: `prev` ends as the last row. `inf`
    stands in for the border D(i, 0), i >= 1, and is at least every cell."""
    width, dt = len(cols), prev.dtype
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


def dtw(a: Codes, b: Codes) -> DtwResult:
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return DtwResult(cost=max(n, m), len_a=n, len_b=m)
    rows, cols = (a, b) if n <= m else (b, a)  # fewer, longer rows; cost is symmetric
    row = _first_row(len(cols), n + m, cell_dtype(n, m))
    _advance(row, rows, cols, n + m)
    return DtwResult(cost=int(row[-1]), len_a=n, len_b=m)


def _common_prefix(x: Codes, y: Codes) -> int:
    """The length of the common prefix of two equally long arrays."""
    differ = np.flatnonzero(x != y)
    return int(differ[0]) if len(differ) else len(x)


@dataclass(frozen=True)
class _Ends:
    """A variant of m events whose first p and last s equal the original's,
    p + s <= min(n, m)."""
    m: int
    p: int
    s: int


def _shared(n: int, ends: dict[int, _Ends]) -> dict[int, _Ends]:
    """The variants that compute fewer rows on the shared path than the
    min(n, m) of a plain `dtw`, each counting m - p - s rows of its own and
    an equal share of the two sweeps. Dropping a variant can shorten the
    sweeps or raise the others' share, so the rule runs to a fixed point."""
    chosen = ends
    while chosen:
        sweeps = max(e.p for e in chosen.values()) + max(e.s for e in chosen.values())
        share = sweeps / len(chosen)
        keep = {i: e for i, e in chosen.items() if e.m - e.p - e.s + share < min(n, e.m)}
        if len(keep) == len(chosen):
            break
        chosen = keep
    return chosen


def _suffix_joins(o: Codes, shared: dict[int, _Ends], inf: int, dt: type
                  ) -> dict[int, np.ndarray]:
    """For each variant with s > 0, the row J(j) = min(R(q+1, j), R(q+1, j+1)),
    j = 0..n, with q = m - s and R the backward DP (cost of the cheapest
    path from a cell to the end, the cell included; infinite outside the
    matrix). One sweep of the reversed original against itself gives every
    such R row: its row s, read backwards."""
    n = len(o)
    back = np.ascontiguousarray(o[::-1])
    row = _first_row(n, inf, dt)
    done, joins = 0, {}
    for i in sorted((i for i in shared if shared[i].s), key=lambda i: shared[i].s):
        s = shared[i].s
        _advance(row, back[done:s], back, inf)
        done = s
        r = row[::-1]  # r[k] = R(q+1, k+1), and r[n] is the border R(q+1, n+1)
        join = r.copy()  # J(0) = R(q+1, 1): there is no column 0
        np.minimum(r[1:], r[:-1], out=join[1:])
        joins[i] = join
    return joins


def dt_dyn(original: Trace, traces: list[Trace]) -> list[int]:
    """The DTW cost between the original's trace and each of `traces`, over
    event codes. A variant whose ends match the original's long enough
    computes only its middle rows and joins the two shared sweeps (see the
    module docstring); the others, and only they, call `dtw`."""
    o = trace_tokens(original)
    n = len(o)
    costs: list[int | None] = [None] * len(traces)
    ends = {}
    for i, t in enumerate(traces):
        v = trace_tokens(t)
        m = len(v)
        k = min(n, m)
        if k == 0:
            costs[i] = max(n, m)
            continue
        p = _common_prefix(o[:k], v[:k])
        if p == n == m:
            costs[i] = 0
            continue
        s = _common_prefix(o[n - k :][::-1], v[m - k :][::-1])
        ends[i] = _Ends(m, p, min(s, k - p))
    shared = _shared(n, ends)
    for i in ends:
        if i not in shared:
            # the module attribute, looked up per call, so wrappers of `dtw` see it
            costs[i] = dtw(o, trace_tokens(traces[i])).cost
    if shared:
        inf = n + max(e.m for e in shared.values())  # at least every cell
        dt = cell_dtype(inf, inf)  # a join sums two values of at most inf
        joins = _suffix_joins(o, shared, inf, dt)
        row = _first_row(n, inf, dt)
        done = 0
        for i in sorted(shared, key=lambda i: shared[i].p):
            e = shared[i]
            _advance(row, o[done : e.p], o, inf)
            done = e.p
            mid = row.copy()
            _advance(mid, trace_tokens(traces[i])[e.p : e.m - e.s], o, inf)
            if e.s == 0:
                costs[i] = int(mid[n])
            else:
                costs[i] = int(np.add(mid, joins.pop(i), out=mid).min())
    return costs
