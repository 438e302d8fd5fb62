"""Log-space combinatorial primitives.

Binomial and multiset coefficients through log-gamma, plus the number of
non-negative integer matrices with fixed row/column margins: an exact count
for small instances (test oracle) and the effective-columns estimate used
by the description-length objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

LN2 = math.log(2.0)

# The envelope of exact matrix counting, and of synth's exact-uniform sampler.
EXACT_MAX_TOTAL = 40
EXACT_MAX_MIN_DIM = 6


def log2_binomial(n: int, k: int) -> float:
    """Base-2 log of C(n, k), via log-gamma."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"log2_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def log2_multiset(y: float, x: int) -> float:
    """Base-2 log of the multiset coefficient ((y multichoose x)) = C(x+y-1, y-1).

    `y` (the number of bins) may be any positive real: the effective-columns
    estimator plugs in non-integer bin counts. `x` is the number of items.
    """
    if y <= 0:
        raise ValueError(f"log2_multiset needs y > 0, got y={y}")
    if x < 0:
        raise ValueError(f"log2_multiset needs x >= 0, got x={x}")
    if x == 0:
        return 0.0
    return (math.lgamma(x + y) - math.lgamma(y) - math.lgamma(x + 1)) / LN2


@dataclass(frozen=True)
class Margins:
    """Row and column sums of a non-negative integer matrix."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        cols = tuple(int(c) for c in self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if not rows or not cols:
            raise ValueError("margins need at least one row and one column")
        if min(rows) < 0 or min(cols) < 0:
            raise ValueError("margins must be non-negative")
        if sum(rows) != sum(cols):
            raise ValueError(
                f"infeasible margins: row sum {sum(rows)} != col sum {sum(cols)}"
            )


def count_margin_matrices(rows: Sequence[int], cols: Sequence[int]) -> int:
    """Exact number of non-negative integer matrices with the given margins.

    Column-by-column dynamic programming over residual row sums, exact
    integer arithmetic. Zero entries are stripped first (they do not change
    the count). Intended for small instances; callers wanting a guard should
    go through log2_omega_exact.
    """
    r = tuple(sorted((int(x) for x in rows if x > 0), reverse=True))
    c = tuple(sorted((int(x) for x in cols if x > 0), reverse=True))
    if sum(r) != sum(c):
        raise ValueError("infeasible margins: row and column sums differ")
    if not r:
        return 1
    if len(r) > len(c):
        r, c = c, r
    return _count_tables(r, c, 0, {})


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


def log2_omega_exact(m: Margins) -> float:
    """Exact base-2 log of the number of matrices with margins `m`.

    Guarded: after stripping zero entries the instance must satisfy
    min(#rows, #cols) <= 6 and total <= 40, otherwise it is refused.
    """
    rows = tuple(x for x in m.rows if x > 0)
    cols = tuple(x for x in m.cols if x > 0)
    total = sum(rows)
    if total == 0:
        return 0.0
    if min(len(rows), len(cols)) > EXACT_MAX_MIN_DIM or total > EXACT_MAX_TOTAL:
        raise ValueError(
            "instance too large for exact counting: need min(#rows, #cols) <= "
            f"{EXACT_MAX_MIN_DIM} and total <= {EXACT_MAX_TOTAL}, got "
            f"{len(rows)}x{len(cols)} with total {total}"
        )
    return math.log2(count_margin_matrices(rows, cols))


def log2_omega_ec(m: Margins) -> float:
    """Effective-columns estimate of log2 of the matrix count for margins `m`.

    Orientation is fixed: the first margin is always treated as the rows.
    Zero entries are stripped. Single-row/column margins and all-ones margins
    are handled by their closed forms; otherwise the column count is replaced
    by a real-valued effective count matched to the column-sum heterogeneity.
    """
    rows = tuple(x for x in m.rows if x > 0)
    cols = tuple(x for x in m.cols if x > 0)
    return ec_bits(rows, cols)


def ec_bits(rows: Sequence[int], cols: Sequence[int]) -> float:
    """Effective-columns estimate on margins already stripped of zeros."""
    n = sum(rows)
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
