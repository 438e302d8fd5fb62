"""Synthetic event data with planted binnings.

Clusters get sizes and widths from uniform positive compositions, per-step
counts from uniform weak compositions, source/destination degree sequences
from a symmetric Dirichlet-Multinomial with concentration gamma (small gamma
localizes each cluster onto few nodes), and an incidence matrix drawn with
those margins. Events are assembled by shuffling the edge multiset against
the sorted step multiset.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import EXACT_MAX_MIN_DIM, EXACT_MAX_TOTAL, _column_fills, _count_tables
from .events import Binning, DiscretizedEvents, EventPartition, EventSet, discretize_on_grid


def as_generator(rng) -> np.random.Generator:
    """Coerce None / int seed / Generator into a numpy Generator."""
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class SynthParams:
    """Parameters of one synthetic instance."""

    N: int
    T: int
    K: int
    S: int
    D: int
    gamma: float
    seed: int

    def __post_init__(self):
        if min(self.N, self.T, self.K, self.S, self.D) < 1:
            raise ValueError("N, T, K, S, D must all be >= 1")
        if self.K > min(self.N, self.T):
            raise ValueError(f"need K <= min(N, T), got K={self.K}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"need a finite gamma > 0, got {self.gamma}")


@dataclass(frozen=True)
class SynthResult:
    """A generated event set together with its planted ground truth."""

    events: EventSet
    binning: Binning
    partition: EventPartition
    discretized: DiscretizedEvents
    params: SynthParams


def sample_positive_composition(total: int, parts: int, rng) -> np.ndarray:
    """Uniform draw over the C(total-1, parts-1) compositions of `total`
    into `parts` positive integers (distinct cut points)."""
    if not 1 <= parts <= total:
        raise ValueError(f"need 1 <= parts <= total, got parts={parts}, total={total}")
    rng = as_generator(rng)
    if parts == 1:
        return np.array([total], dtype=np.int64)
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False)) + 1
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(np.int64)


def sample_weak_composition(total: int, parts: int, rng) -> np.ndarray:
    """Uniform draw over the weak compositions of `total` into `parts`
    non-negative integers (stars and bars)."""
    if parts < 1:
        raise ValueError(f"need parts >= 1, got {parts}")
    if total < 0:
        raise ValueError(f"need total >= 0, got {total}")
    if total == 0:
        return np.zeros(parts, dtype=np.int64)
    # one taken from each part of a positive composition of total + parts
    return sample_positive_composition(total + parts, parts, rng) - 1


def sample_dirichlet_multinomial(m: int, dim: int, gamma: float, rng) -> np.ndarray:
    """Counts from a symmetric Dirichlet-Multinomial: a probability vector
    from Dirichlet(gamma * 1) followed by m multinomial trials."""
    if m < 0 or dim < 1 or not 0 < gamma < math.inf:
        raise ValueError(f"bad Dirichlet-Multinomial parameters m={m}, dim={dim}, gamma={gamma}")
    rng = as_generator(rng)
    p = rng.dirichlet(np.full(dim, float(gamma)))
    if m == 0:
        return np.zeros(dim, dtype=np.int64)
    return rng.multinomial(m, p).astype(np.int64)


# ---------------------------------------------------------------------------
# Contingency tables with fixed margins

_TWO_LINE_MAX_DIM = 64


def _randbelow(rng: np.random.Generator, n: int) -> int:
    # exact uniform integer in [0, n); n may exceed 64 bits
    if n <= 0:
        raise ValueError("empty range")
    if n <= (1 << 63):
        return int(rng.integers(0, n))
    chunks = (n.bit_length() + 31) // 32 + 1
    space = 1 << (32 * chunks)
    limit = space - (space % n)
    while True:
        u = 0
        for c in rng.integers(0, 1 << 32, size=chunks, dtype=np.uint64):
            u = (u << 32) | int(c)
        if u < limit:
            return u % n


def _weighted_choice(rng: np.random.Generator, weights: list[int]) -> int:
    cum = list(itertools.accumulate(weights))
    return bisect.bisect_right(cum, _randbelow(rng, cum[-1]))


def _sample_uniform_two_line(r1: int, cols: list[int], rng) -> list[int]:
    # uniform bounded composition of r1 with bounds cols; the second row of
    # the table is the complement
    C = len(cols)
    ways = [None] * C + [[1] + [0] * r1]  # ways[j][b]: fills of columns j.. summing to b
    for j in range(C - 1, -1, -1):
        pref = list(itertools.accumulate(ways[j + 1], initial=0))
        ways[j] = [pref[b + 1] - pref[max(b - cols[j], 0)] for b in range(r1 + 1)]
    y = []
    b = r1
    for j in range(C):
        nxt = ways[j + 1]
        vmax = min(b, cols[j])
        weights = [nxt[b - v] for v in range(vmax + 1)]
        v = _weighted_choice(rng, weights)
        y.append(v)
        b -= v
    return y


def _sample_uniform_small(rows: list[int], cols: list[int], rng) -> list[list[int]]:
    # exact uniform via conditional column filling; the count of completions
    # weights every candidate column fill. Columns ascending so the largest
    # (the forced last one) is never enumerated.
    order = sorted(range(len(cols)), key=cols.__getitem__)
    csorted = tuple(cols[j] for j in order)
    table = [[0] * len(cols) for _ in rows]
    residual = tuple(rows)
    memo: dict = {}
    for jj, col in enumerate(order[:-1]):
        lefts = list(_column_fills(residual, csorted[jj]))
        weights = [
            _count_tables(tuple(sorted(left, reverse=True)), csorted, jj + 1, memo)
            for left in lefts
        ]
        left = lefts[_weighted_choice(rng, weights)]
        for i, (r, rest) in enumerate(zip(residual, left)):
            table[i][col] = r - rest
        residual = left
    for i, r in enumerate(residual):
        table[i][order[-1]] = r
    return table


def _sample_fisher(rows: list[int], cols: list[int], rng: np.random.Generator) -> np.ndarray:
    # sequential hypergeometric fills: the classic conditional two-way table
    # scheme (each row drawn as a multivariate hypergeometric over the
    # remaining column capacities)
    R, C = len(rows), len(cols)
    table = np.zeros((R, C), dtype=np.int64)
    col_rem = np.asarray(cols, dtype=np.int64).copy()
    for i in range(R - 1):
        row_rem = int(rows[i])
        pool = int(col_rem.sum())
        for j in range(C - 1):
            if row_rem == 0:
                break
            good = int(col_rem[j])
            x = int(rng.hypergeometric(good, pool - good, row_rem))
            table[i, j] = x
            col_rem[j] -= x
            row_rem -= x
            pool -= good
        table[i, C - 1] = row_rem
        col_rem[C - 1] -= row_rem
    table[R - 1, :] = col_rem
    return table


def sample_contingency_table(rows, cols, rng) -> np.ndarray:
    """Random non-negative integer matrix with the given margins.

    With `short` and `long` the numbers of nonzero entries of the shorter
    and the longer margin, a table is drawn exactly uniformly over all
    matrices with those margins when short == 1, when short == 2 and
    long <= _TWO_LINE_MAX_DIM (64), or when total <= EXACT_MAX_TOTAL and
    short <= EXACT_MAX_MIN_DIM, by conditional column filling with exact
    completion counts. Every other table (a 2 x 65 one with a total above
    40, say) falls back to sequential hypergeometric filling (the
    conditional-independence table law).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.ndim != 1 or cols.ndim != 1 or len(rows) == 0 or len(cols) == 0:
        raise ValueError("margins must be non-empty 1-D sequences")
    if rows.min() < 0 or cols.min() < 0:
        raise ValueError("margins must be non-negative")
    if int(rows.sum()) != int(cols.sum()):
        raise ValueError("infeasible margins: row and column sums differ")
    rng = as_generator(rng)

    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    nzr = np.flatnonzero(rows)
    nzc = np.flatnonzero(cols)
    total = int(rows.sum())
    if total == 0:
        return out
    r = [int(x) for x in rows[nzr]]
    c = [int(x) for x in cols[nzc]]
    short, long = sorted((len(r), len(c)))

    if (short == 1 or (short == 2 and long <= _TWO_LINE_MAX_DIM)
            or (total <= EXACT_MAX_TOTAL and short <= EXACT_MAX_MIN_DIM)):
        # exact draws take the shorter margin as rows and transpose back
        flip = len(r) > len(c)
        if flip:
            r, c = c, r
        if short == 1:
            sub = [c]
        elif short == 2:  # the test above bounds the long margin here
            y = _sample_uniform_two_line(r[0], c, rng)
            sub = [y, [cv - yv for cv, yv in zip(c, y)]]
        else:
            sub = _sample_uniform_small(r, c, rng)
        sub = np.asarray(sub, dtype=np.int64)
        if flip:
            sub = sub.T
    else:
        # never flipped: the Fisher stream depends on which margin is the rows
        sub = _sample_fisher(r, c, rng)

    out[np.ix_(nzr, nzc)] = sub
    return out


def generate_synthetic(p: SynthParams) -> SynthResult:
    """Generate one synthetic event set with a planted binning.

    Event times sit at the midpoints of unit-width timesteps on a grid
    anchored at 0 (delta_t = 1); `discretized` carries that grid so the
    planted snapshots can be rebuilt exactly.
    """
    rng = np.random.default_rng(p.seed)
    m = sample_positive_composition(p.N, p.K, rng)
    tau = sample_positive_composition(p.T, p.K, rng)

    clusters = []  # each cluster's sources, destinations and per-step counts
    for k in range(p.K):
        mk, tk = int(m[k]), int(tau[k])
        n_k = sample_weak_composition(mk, tk, rng)
        s_k = sample_dirichlet_multinomial(mk, p.S, p.gamma, rng)
        d_k = sample_dirichlet_multinomial(mk, p.D, p.gamma, rng)
        table = sample_contingency_table(s_k, d_k, rng)
        src_ix, dst_ix = np.nonzero(table)
        reps = table[src_ix, dst_ix]
        perm = rng.permutation(mk)
        clusters.append((np.repeat(src_ix, reps)[perm], np.repeat(dst_ix, reps)[perm], n_k))
    # the clusters tile the grid in order, so their joined counts cover all T steps
    sources, dests, counts = map(np.concatenate, zip(*clusters))
    steps = np.repeat(np.arange(p.T), counts)

    ev = EventSet(
        sources=sources,
        dests=dests,
        times=steps + 0.5,
        source_labels=tuple(f"s{i}" for i in range(p.S)),
        dest_labels=tuple(f"d{i}" for i in range(p.D)),
    )
    return SynthResult(
        events=ev,
        binning=Binning(tuple(int(w) for w in tau)),
        partition=EventPartition(m),
        discretized=discretize_on_grid(ev, p.T, 0.0, 1.0),
        params=p,
    )
