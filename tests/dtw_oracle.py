"""Independent DTW references the production implementation is checked against.

`dtw_reference` is the textbook full-matrix DP in pure Python. `dtw_diagonal`
is a separately-derived anti-diagonal vectorization kept for pairs too large
for the pure-Python oracle; both compute the same recurrence:
D(i,j) = [a_i != b_j] + min(D(i-1,j), D(i,j-1), D(i-1,j-1)), D(0,0) = 0,
infinite borders, empty-vs-x = len(x).

`codes` turns a character sequence into the int64 code array `dtw` reads.
"""

import numpy as np


def codes(seq) -> np.ndarray:
    """One int64 code per character, equal exactly where the characters are."""
    return np.array([ord(c) for c in seq], dtype=np.int64)


def dtw_reference(a, b) -> int:
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return max(n, m)
    inf = float("inf")
    D = [[inf] * (m + 1) for _ in range(n + 1)]
    D[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d = 0 if a[i - 1] == b[j - 1] else 1
            D[i][j] = d + min(D[i - 1][j], D[i][j - 1], D[i - 1][j - 1])
    return int(D[n][m])


def dtw_diagonal(a, b) -> int:
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return max(n, m)
    ids = {}
    enc = lambda s: np.array([ids.setdefault(t, len(ids)) for t in s], dtype=np.int64)
    ea, eb = enc(a), enc(b)
    inf = np.inf
    prev2 = np.full(n + 1, inf)  # diagonal d-2, indexed by i
    prev1 = np.full(n + 1, inf)  # diagonal d-1
    prev1[0] = 0.0  # D(0,0) sits on diagonal 0
    for d in range(1, n + m + 1):
        cur = np.full(n + 1, inf)
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo <= hi:
            ai = ea[lo - 1 : hi]
            bj = eb[d - hi - 1 : d - lo][::-1]
            cost = (ai != bj).astype(np.float64)
            best = np.minimum(
                prev1[lo : hi + 1],
                np.minimum(prev1[lo - 1 : hi], prev2[lo - 1 : hi]),
            )
            cur[lo : hi + 1] = cost + best
        prev2, prev1 = prev1, cur
    return int(prev1[n])
