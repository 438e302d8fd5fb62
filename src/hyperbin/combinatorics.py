"""Log-space combinatorial primitives.

Binomial and multiset coefficients through log-gamma, with one Stirling
series (log_rising) for the differences of two large log-gammas, which
cancel when taken plainly; the effective-columns estimate of the number of
non-negative integer matrices with fixed row and column margins; and the
exact count of such matrices by column fills, which synth's exact-uniform
sampler walks.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

LN2 = math.log(2.0)

# The envelope of synth's exact-uniform sampler, which counts matrices exactly.
EXACT_MAX_TOTAL = 40
EXACT_MAX_MIN_DIM = 6

# the smallest x that log_rising takes
SERIES_MIN = 5000


def log_rising(x: float, m: int) -> float:
    """lgamma(x + m) - lgamma(x) in nats, the log of x (x + 1) ... (x + m - 1),
    at x >= SERIES_MIN and any real m > -1: Stirling's series for the
    difference, written with log1p, which omits less than 1e-21 nats there.
    The plain difference of two lgammas of that size cancels."""
    t, top = float(x), float(x + m)
    return (
        (t - 0.5) * math.log1p(m / t) + m * math.log(top) - m
        + 1 / (12 * top) - 1 / (12 * t) - 1 / (360 * top**3) + 1 / (360 * t**3)
    )


def log2_binomial(n: int, k: int) -> float:
    """Base-2 log of C(n, k), via log-gamma, or via log_rising once
    n - min(k, n - k) + 1 reaches SERIES_MIN."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"log2_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    j = min(k, n - k)
    if n - j + 1 >= SERIES_MIN:
        return (log_rising(n - j + 1, j) - math.lgamma(j + 1)) / LN2
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def log2_multiset(y: float, x: int) -> float:
    """Base-2 log of the multiset coefficient ((y multichoose x)) = C(x+y-1, y-1).

    `y` (the number of bins) may be any positive real: the effective-columns
    estimator plugs in non-integer bin counts. `x` is the number of items.
    Once x + 1 reaches max(y, SERIES_MIN), lgamma(x + y) - lgamma(x + 1)
    comes from log_rising; otherwise, from y = SERIES_MIN on,
    lgamma(x + y) - lgamma(y) does. Either way the plain difference, which
    cancels, is never taken between two large lgammas.
    """
    if y <= 0:
        raise ValueError(f"log2_multiset needs y > 0, got y={y}")
    if x < 0:
        raise ValueError(f"log2_multiset needs x >= 0, got x={x}")
    if x == 0:
        return 0.0
    if x + 1 >= max(y, SERIES_MIN):
        return (log_rising(x + 1, y - 1) - math.lgamma(y)) / LN2
    if y >= SERIES_MIN:
        return (log_rising(y, x) - math.lgamma(x + 1)) / LN2
    return (math.lgamma(x + y) - math.lgamma(y) - math.lgamma(x + 1)) / LN2


def _column_fills(rows: Sequence[int], budget: int) -> Iterator[tuple[int, ...]]:
    """The row sums left by each way of putting `budget` into one column
    with at most rows[i] in row i, the fills in lexicographic order (first
    row slowest)."""
    n = len(rows)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + rows[i]

    def fill(i: int, b: int, head: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == n - 1:
            if b <= rows[i]:
                yield head + (rows[i] - b,)
            return
        for v in range(max(0, b - suffix[i + 1]), min(rows[i], b) + 1):
            yield from fill(i + 1, b - v, head + (rows[i] - v,))

    return fill(0, budget, ())


def _count_tables(rows: tuple[int, ...], cols: tuple[int, ...], j: int, memo: dict) -> int:
    # rows: residual row sums sorted descending; cols[j:]: columns still to fill.
    if j == len(cols) - 1:
        return 1  # last column forced to the residual row sums
    key = (rows, j)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = sum(
            _count_tables(tuple(sorted(left, reverse=True)), cols, j + 1, memo)
            for left in _column_fills(rows, cols[j])
        )
    return hit


def ec_bits(rows: Sequence[int], cols: Sequence[int]) -> float:
    """Effective-columns estimate of log2 of the number of matrices with row
    sums `rows` and column sums `cols`, both stripped of zeros.

    Orientation is fixed: rows and columns play asymmetric roles. Single
    row/column margins and all-ones margins take their closed forms;
    otherwise the column count is replaced by a real-valued effective count
    matched to the column-sum heterogeneity.
    """
    n = sum(rows)
    if n != sum(cols):
        raise ValueError(f"infeasible margins: row sum {n} != col sum {sum(cols)}")
    nr, nc = len(rows), len(cols)
    if n == 0 or nr <= 1 or nc <= 1:
        return 0.0
    if nc == n:  # all column entries are 1: multinomial closed form
        return (math.lgamma(n + 1) - sum(math.lgamma(r + 1) for r in rows)) / LN2
    if nr == n:  # all row entries are 1
        return (math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in cols)) / LN2
    sc2 = sum(c * c for c in cols)
    ctilde = (n * n - n + (n * n - sc2) / nr) / (sc2 - n)
    if not math.isfinite(ctilde) or ctilde <= 0:
        raise ArithmeticError(
            f"degenerate margins escaped the closed forms (c~={ctilde})"
        )
    bits = sum(log2_multiset(ctilde, r) for r in rows)
    bits += sum(log2_multiset(nr, c) for c in cols)
    bits -= log2_multiset(nr * ctilde, n)
    return bits
