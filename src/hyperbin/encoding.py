"""Description lengths for binned event data.

The three-stage code: stage 1 sends the bin widths and cluster sizes as
compositions, stage 2 sends per-cluster source/destination/timestep counts
as multisets, stage 3 sends the weighted incidence matrix and the events
given the margins (two matrix-count terms). The decoupled form replaces the
stage-1 compositions with a per-cluster constant so the objective becomes a
sum of independent cluster costs, which is what the optimizers minimize.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .combinatorics import LN2, ec_bits, log2_binomial, log2_multiset
from .events import (
    Binning,
    DiscretizedEvents,
    induce_partition,
    build_snapshot,
)

INF = math.inf

# the engine's lgamma table covers widths of up to this many steps, whatever
# T is, so a grid of at most this many steps (`--T auto` caps T here) takes
# every width from a table lookup. A table sized by counts alone measured ~8%
# slower on the dp_sparse benchmark (median 11.8 -> 12.7 ms, 12 pairs of runs
# on a 2-core machine)
TABLE_STEPS = 5000


def decoupled_constant(N: int, T: int) -> float:
    """Per-cluster constant of the decoupled objective, log2((N-1)(T-1)).

    Clamped to 0 for the degenerate N=1 or T=1 grids, where only K=1 is
    feasible and the constant cannot affect any comparison.
    """
    return math.log2(max(1, (N - 1) * (T - 1)))


def naive_dl(N: int, S: int, D: int, T: int) -> float:
    """One-level code length: N events, each over S*D*T possibilities."""
    if min(N, S, D, T) < 1:
        raise ValueError("naive_dl needs N, S, D, T >= 1")
    return N * math.log2(S * D * T)


def stage1_dl(N: int, T: int, K: int) -> float:
    """Bits to send the bin widths and cluster sizes as K-compositions."""
    if not 1 <= K <= min(N, T):
        raise ValueError(f"need 1 <= K <= min(N, T), got K={K}, N={N}, T={T}")
    return log2_binomial(T - 1, K - 1) + log2_binomial(N - 1, K - 1)


@dataclass(frozen=True)
class DLBreakdown:
    """Bits per encoding stage plus the decoupled per-cluster costs."""

    L0_naive: float
    L1: float
    L2: float
    L3: float
    total: float
    decoupled_total: float
    per_cluster: tuple[float, ...]


def total_dl_exact(d: DiscretizedEvents, b: Binning) -> DLBreakdown:
    """Exact three-stage description length of (d, b), with the decoupled form.

    Raises EmptyClusterError for binnings that leave a cluster without
    events (the stage-1 code sends cluster sizes as positive integers).
    """
    part = induce_partition(d, b)  # validates the binning
    N, T = d.base.N, d.T
    S, D = d.base.S, d.base.D
    const = decoupled_constant(N, T)
    l2_terms, l3_terms = [], []
    for k in range(b.K):
        snap = build_snapshot(d, b, k)
        m = snap.m_k
        l2_terms.append(log2_multiset(S, m) + log2_multiset(D, m) + log2_multiset(snap.tau_k, m))
        s_pos = tuple(int(v) for v in snap.source_margin if v > 0)
        d_pos = tuple(int(v) for v in snap.dest_margin if v > 0)
        g_pos = tuple(snap.edges.values())
        l3_terms.append(ec_bits(s_pos, d_pos) + ec_bits(g_pos, snap.step_counts.tolist()))
    L1 = stage1_dl(N, T, part.K)
    L2 = sum(l2_terms)
    L3 = sum(l3_terms)
    per_cluster = tuple(const + l2 + l3 for l2, l3 in zip(l2_terms, l3_terms))
    return DLBreakdown(
        L0_naive=naive_dl(N, S, D, T),
        L1=L1,
        L2=L2,
        L3=L3,
        total=L1 + L2 + L3,
        decoupled_total=sum(per_cluster),
        per_cluster=per_cluster,
    )


def _add_weighted(cnt: dict, hist: dict, pairs, lgt, lg1: float) -> float:
    """Add (key, count) pairs to the counts `cnt` and to `hist`, their
    weight histogram; returns `lg1`, a sum of lgamma(count + 1) over the
    keys, updated in the order of `pairs`."""
    for key, c in pairs:
        c0 = cnt.get(key, 0)
        c1 = cnt[key] = c0 + c
        if c0:
            n = hist[c0]
            if n == 1:
                del hist[c0]
            else:
                hist[c0] = n - 1
        hist[c1] = hist.get(c1, 0) + 1
        lg1 += lgt[c1 + 1] - lgt[c0 + 1]
    return lg1


class MarginState:
    """Accumulating margins of one timestep interval (or cluster).

    Events are only ever added, one timestep at a time. Keeps the per-source
    / per-destination / per-edge count dictionaries, weight histograms of the
    source and edge counts (count -> number of sources or edges holding it,
    never with a zero key or a zero multiplicity), plus the running aggregate
    sums the effective-columns terms need, updated in O(1) per distinct value
    added. It holds no step range, and its sums round by the order steps go
    in: the engine fills every range downward, `merged` in its own order.
    """

    __slots__ = (
        "m", "s_cnt", "d_cnt", "g_cnt", "s_hist", "g_hist",
        "sum_d2", "lg_s1", "lg_d1", "lg_g1",
    )

    def __init__(self):
        self.m = 0
        self.s_cnt: dict[int, int] = {}
        self.d_cnt: dict[int, int] = {}
        self.g_cnt: dict[int, int] = {}
        self.s_hist: dict[int, int] = {}  # source count -> number of sources
        self.g_hist: dict[int, int] = {}  # edge weight -> number of edges
        self.sum_d2 = 0  # sum of squared destination counts
        self.lg_s1 = 0.0  # sum of lgamma(count + 1) over sources
        self.lg_d1 = 0.0
        self.lg_g1 = 0.0  # ... over edge weights

    def add_counts(self, s_pairs, d_pairs, g_pairs, lgt) -> None:
        """Add one timestep's events, pre-grouped into (value, count) pairs.

        `lgt` is an integer lgamma lookup table covering counts up to the
        total event count.
        """
        self.lg_s1 = _add_weighted(self.s_cnt, self.s_hist, s_pairs, lgt, self.lg_s1)
        d_cnt = self.d_cnt
        for t, c in d_pairs:  # every event has one destination
            c0 = d_cnt.get(t, 0)
            d_cnt[t] = c0 + c
            self.lg_d1 += lgt[c0 + c + 1] - lgt[c0 + 1]
            self.sum_d2 += (2 * c0 + c) * c
            self.m += c
        self.lg_g1 = _add_weighted(self.g_cnt, self.g_hist, g_pairs, lgt, self.lg_g1)

    @classmethod
    def merged(cls, a: "MarginState", b: "MarginState", lgt) -> "MarginState":
        """State of the union of two disjoint intervals: a copy of the larger
        state with the smaller one's counts added."""
        small, big = (a, b) if a.m <= b.m else (b, a)
        out = cls()
        out.m, out.sum_d2 = big.m, big.sum_d2
        out.lg_s1, out.lg_d1, out.lg_g1 = big.lg_s1, big.lg_d1, big.lg_g1
        out.s_cnt, out.d_cnt, out.g_cnt = dict(big.s_cnt), dict(big.d_cnt), dict(big.g_cnt)
        out.s_hist, out.g_hist = dict(big.s_hist), dict(big.g_hist)
        out.add_counts(small.s_cnt.items(), small.d_cnt.items(), small.g_cnt.items(), lgt)
        return out


class IntervalCostEngine:
    """Fast decoupled cluster costs over contiguous timestep intervals.

    Same objective as total_dl_exact(d, b).per_cluster, organized for the
    optimizers: fixed per-timestep counts live in prefix tables over the
    occupied steps so the time-margin side of the cost is O(1), and
    source/destination/edge margins come from an incrementally maintained
    MarginState. The width enters the cost only through `width_bits`, so the
    cost of one range of occupied steps at any other width is an O(1)
    correction: the dynamic program scores each range once, at its tightest
    width, through range_costs. Past TABLE_STEPS nothing grows with T:
    set-up is O(N + P) for P occupied steps.
    """

    def __init__(self, d: DiscretizedEvents):
        base = d.base
        self.T = d.T
        self.N = base.N
        self.S = base.S
        self.D = base.D
        self.const = decoupled_constant(self.N, self.T)

        self.occupied = d.occupied_steps.tolist()
        self._step_counts = step_counts = d.step_counts
        P = len(step_counts)

        # integer lgamma table: index i holds lgamma(i), i >= 1. Arguments
        # reach a count (<= N) plus the number of sources, destinations or
        # distinct edges, and m + tau <= N + T; only width_bits' m + tau can
        # pass the table, and it falls back to math.lgamma there.
        n_edges_max = min(self.S * self.D, self.N)
        size = self.N + max(min(self.T, TABLE_STEPS), self.S, self.D, n_edges_max) + 3
        lgt_np = np.concatenate([[0.0, 0.0], np.cumsum(np.log(np.arange(1, size - 1)))])
        self.lgt = lgt_np.tolist()
        self._lgt_np = lgt_np

        zero = np.zeros(1)
        self.pref_lg1 = np.concatenate([zero, np.cumsum(lgt_np[step_counts + 1])]).tolist()
        self.pref_sq = np.concatenate([zero, np.cumsum(step_counts * step_counts)]).tolist()

        # nr -> prefix sums of lgamma(step count + nr) over occupied steps,
        # built on first use by the edge x step term (numpy rows: a list row
        # costs about four times the memory)
        self._step_rows: dict[int, np.ndarray] = {}

        # per occupied step: events grouped into (value, count) pairs, so a
        # state update costs O(distinct values), not O(events)
        rank = np.searchsorted(d.occupied_steps, d.step_of_event)
        ev_key = base.sources * base.D + base.dests
        grouped = [
            self._group_by_rank(rank, field, P)
            for field in (base.sources, base.dests, ev_key)
        ]
        self.step_pairs: list[tuple[list, list, list]] = list(zip(*grouped))

        # stage-2 multiset terms as functions of m alone
        self.msS = self._ms_table(self.S)
        self.msD = self._ms_table(self.D)

    @staticmethod
    def _group_by_rank(rank: np.ndarray, values: np.ndarray, n_occupied: int) -> list[list]:
        # one (value, count) list per occupied step, in step order; `rank`
        # holds each event's occupied-step rank
        width = int(values.max()) + 1 if len(values) else 1
        uniq, cnt = np.unique(rank * width + values, return_counts=True)
        vals, cnts = (uniq % width).tolist(), cnt.tolist()
        boundaries = np.searchsorted(uniq // width, np.arange(n_occupied + 1)).tolist()
        return [
            list(zip(vals[b0:b1], cnts[b0:b1]))
            for b0, b1 in zip(boundaries, boundaries[1:])
        ]

    def _ms_table(self, y: int) -> list[float]:
        lgt = self._lgt_np
        ms = (lgt[y : y + self.N + 1] - lgt[y] - lgt[1 : self.N + 2]) / LN2
        return ms.tolist()

    def state_for_interval(self, a: int, z: int) -> MarginState:
        """Margin state for the events of steps [a, z), filled downward from
        `step_pairs` as range_costs fills it, so both price a range alike."""
        state = MarginState()
        occ = self.occupied
        for p in range(bisect_left(occ, z) - 1, bisect_left(occ, a) - 1, -1):
            state.add_counts(*self.step_pairs[p], self.lgt)
        return state

    def range_costs(self, starts: list[int], z: int) -> tuple[np.ndarray, np.ndarray]:
        """Cost and event count of every cluster [starts[p0], z) holding the
        occupied ranks [p0, len(starts)), indexed by p0: one MarginState
        grows down from the last rank, with one interval_cost call per range."""
        state, costs, counts = MarginState(), [], []
        for p0 in range(len(starts) - 1, -1, -1):
            state.add_counts(*self.step_pairs[p0], self.lgt)
            costs.append(self.interval_cost(starts[p0], z, state))
            counts.append(state.m)
        return np.array(costs[::-1]), np.array(counts[::-1])

    def width_bits(self, m, tau):
        """The width-dependent part of a cluster's cost: the timestep
        multiset term of m events on tau steps without its lgamma(m + 1),
        log2 of tau (tau + 1) ... (tau + m - 1). Concave in tau, which is
        why an optimal cut sits at one end of its eventless gap. Takes ints
        or integer arrays; past the table, which T does not size, a pair
        falls back to math.lgamma."""
        top = m + tau
        if isinstance(top, np.ndarray):
            if (top < len(self.lgt)).all():
                return (self._lgt_np[top] - self._lgt_np[tau]) / LN2
            return np.vectorize(self.width_bits, otypes=[float])(m, tau)  # pair by pair
        if top < len(self.lgt):
            return (self.lgt[top] - self.lgt[tau]) / LN2
        return (math.lgamma(top) - math.lgamma(tau)) / LN2

    def _ec(self, m, nr, nc, row_hist, lg_r1, lg_c1, sc2, lg_cols_shift) -> float:
        """Effective-columns bits (combinatorics.ec_bits) of the nr x nc
        matrices with m events, from aggregates of the margins: `row_hist`
        the (row sum, number of rows with it) pairs, lg_r1 / lg_c1 the sums
        of lgamma(sum + 1) over rows / columns, sc2 the sum of squared column
        sums and lg_cols_shift the sum of lgamma(column sum + nr)."""
        if nr <= 1 or nc <= 1:
            return 0.0
        lgt = self.lgt
        if nc == m:  # every column sum is 1
            return (lgt[m + 1] - lg_r1) / LN2
        if nr == m:  # every row sum is 1
            return (lgt[m + 1] - lg_c1) / LN2
        ctilde = (m * m - m + (m * m - sc2) / nr) / (sc2 - m)
        lg = math.lgamma
        bits = -nr * lg(ctilde) - lg_r1
        for r, n in row_hist:
            bits += n * lg(r + ctilde)
        bits += lg_cols_shift - nc * lgt[nr] - lg_c1
        bits -= lg(m + nr * ctilde) - lg(nr * ctilde) - lgt[m + 1]
        return bits / LN2

    def interval_cost(self, a: int, z: int, state: MarginState) -> float:
        """Decoupled cost of the cluster covering steps [a, z).

        `state` must hold the margins of exactly those steps' events, filled
        downward from `step_pairs` as range_costs and state_for_interval fill
        it (merged's other order can move the cost by a few ulps); the
        occupied ranks come from [a, z) itself. Returns +inf for eventless
        intervals (inadmissible clusters). Both effective-columns terms go
        through `_ec`, with the rows given as the state's weight histogram;
        the edge x step term's sum of lgamma(step count + nr) is one lookup
        in the step row of nr, which is built on first use.
        """
        m = state.m
        if m == 0:
            return INF
        lgt = self.lgt
        bits = (
            self.const
            + self.msS[m]
            + self.msD[m]
            + self.width_bits(m, z - a)
            - lgt[m + 1] / LN2
        )
        # sources x destinations
        nr = len(state.s_cnt)
        lg_shift = 0.0
        for c in state.d_cnt.values():
            lg_shift += lgt[c + nr]
        bits += self._ec(
            m, nr, len(state.d_cnt), state.s_hist.items(),
            state.lg_s1, state.lg_d1, state.sum_d2, lg_shift,
        )
        # edges x occupied steps; the step margins come from the prefix
        # tables, Σ lgamma(step count + nr) from the step row of nr
        p0, p1 = bisect_left(self.occupied, a), bisect_left(self.occupied, z)
        nr = len(state.g_cnt)
        row = self._step_rows.get(nr)
        if row is None:
            row = self._step_rows[nr] = np.concatenate(
                [[0.0], np.cumsum(self._lgt_np[self._step_counts + nr])]
            )
        bits += self._ec(
            m, nr, p1 - p0, state.g_hist.items(), state.lg_g1,
            self.pref_lg1[p1] - self.pref_lg1[p0], self.pref_sq[p1] - self.pref_sq[p0],
            float(row[p1] - row[p0]),
        )
        return bits
