"""Description lengths for binned event data.

The three-stage code: stage 1 sends the bin widths and cluster sizes as
compositions, stage 2 sends per-cluster source/destination/timestep counts
as multisets, stage 3 sends the weighted incidence matrix and the events
given the margins (two matrix-count terms). The decoupled form replaces the
stage-1 compositions with a per-cluster constant so the objective becomes a
sum of independent cluster costs, which is what the optimizers minimize.

Every cluster cost is priced from a MarginState, and every state starts
from one grouping of consecutive events into value -> count dicts
(_block_states): the engine groups them by occupied step, total_dl_exact
by cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# nothing here calls ec_bits or build_snapshot: they stay for perfbench/tracing.py,
# which wraps them by name, and tests/test_perfbench_hooks.py checks that they resolve
from .combinatorics import LN2, ec_bits, log2_binomial  # noqa: F401
from .events import Binning, DiscretizedEvents, build_snapshot, induce_partition  # noqa: F401

INF = math.inf

# the engine's lgamma table covers widths of up to this many steps, whatever
# T is, so a grid of at most this many steps (`--T auto` caps T here) takes
# every width from a table lookup. A table sized by counts alone measured ~8%
# slower on the dp_sparse benchmark (median 11.8 -> 12.7 ms, 12 pairs of runs
# on a 2-core machine)
TABLE_STEPS = 5000


def lgamma_table(N: int, S: int, D: int, T: int) -> np.ndarray:
    """lgamma(i) at each index i >= 1 up to a count (<= N) plus the number of sources,
    destinations or distinct edges; only a width's m + tau can pass it (see _width_bits)."""
    size = N + max(min(T, TABLE_STEPS), S, D, min(S * D, N)) + 3
    return np.concatenate([[0.0, 0.0], np.cumsum(np.log(np.arange(1, size - 1)))])


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

    cluster_bits prices each cluster from a MarginState built by _block_states,
    as the engine builds its single-step states. Raises EmptyClusterError for
    binnings that leave a cluster without events (the stage-1 code sends
    cluster sizes as positive integers).
    """
    part = induce_partition(d, b)  # validates the binning
    N, T = d.base.N, d.T
    S, D = d.base.S, d.base.D
    const = decoupled_constant(N, T)
    lgt = lgamma_table(N, S, D, T).tolist()
    # each cluster's occupied-step counts, cut where the next cluster starts
    cuts = np.searchsorted(d.occupied_steps, b.starts()[1:])
    step_counts = [c.tolist() for c in np.split(d.step_counts, cuts)]
    states = _block_states(d, part.cluster_of_event, step_counts, lgt)
    stages = [cluster_bits(state, w, S, D, lgt) for state, w in zip(states, b.widths)]
    L1 = stage1_dl(N, T, part.K)
    L2 = sum(l2 for l2, _ in stages)
    L3 = sum(l3 for _, l3 in stages)
    per_cluster = tuple(const + l2 + l3 for l2, l3 in stages)
    return DLBreakdown(
        L0_naive=naive_dl(N, S, D, T),
        L1=L1,
        L2=L2,
        L3=L3,
        total=L1 + L2 + L3,
        decoupled_total=sum(per_cluster),
        per_cluster=per_cluster,
    )


def _group_counts(block: np.ndarray, values: np.ndarray, n_blocks: int) -> list[dict]:
    """One value -> count dict per block, in block order and with ascending
    keys; `block` holds each value's block index, below `n_blocks`."""
    width = int(values.max()) + 1
    labels = None
    if n_blocks * width >= 2**63:  # block * width + values would wrap in int64
        labels, values = np.unique(values, return_inverse=True)
        width = len(labels)
    uniq, cnt = np.unique(block * width + values, return_counts=True)
    vals = uniq % width
    if labels is not None:
        vals = labels[vals]
    vals, cnts = vals.tolist(), cnt.tolist()
    bounds = np.searchsorted(uniq // width, np.arange(n_blocks + 1)).tolist()
    return [dict(zip(vals[b0:b1], cnts[b0:b1])) for b0, b1 in zip(bounds, bounds[1:])]


def _block_states(d: DiscretizedEvents, block: np.ndarray, step_counts: list, lgt) -> list:
    """MarginStates of the blocks of consecutive events that `block` numbers
    (each event's block index); `step_counts[i]` lists the event counts of
    block i's occupied steps, in step order. Sources, destinations and edges
    are grouped into value -> count dicts with ascending keys."""
    base = d.base
    grouped = [
        _group_counts(block, field, len(step_counts))
        for field in (base.sources, base.dests, base.sources * base.D + base.dests)
    ]
    return [
        MarginState.of_counts(s_cnt, d_cnt, g_cnt, counts, lgt)
        for s_cnt, d_cnt, g_cnt, counts in zip(*grouped, step_counts)
    ]


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

    Events are only ever added, a disjoint set of steps at a time. Keeps the
    per-source / per-destination / per-edge count dictionaries, weight
    histograms (count -> number of sources, edges or occupied steps holding
    it, never with a zero key or a zero multiplicity) of the source, edge
    and step counts, plus the running aggregate sums the effective-columns
    terms need, updated in O(1) per distinct value added. It holds no step
    range, and its sums round by the order values go in: the engine fills
    every range downward, `merged` and `of_counts` in their own orders.
    """

    __slots__ = (
        "m", "s_cnt", "d_cnt", "g_cnt", "s_hist", "g_hist", "t_hist",
        "sum_d2", "lg_s1", "lg_d1", "lg_g1", "n_steps", "sum_t2", "lg_t1",
    )

    def __init__(self):
        self.m = 0
        self.s_cnt: dict[int, int] = {}
        self.d_cnt: dict[int, int] = {}
        self.g_cnt: dict[int, int] = {}
        self.s_hist: dict[int, int] = {}  # source count -> number of sources
        self.g_hist: dict[int, int] = {}  # edge weight -> number of edges
        self.t_hist: dict[int, int] = {}  # step count -> number of occupied steps
        self.sum_d2 = 0  # sum of squared destination counts
        self.lg_s1 = 0.0  # sum of lgamma(count + 1) over sources
        self.lg_d1 = 0.0
        self.lg_g1 = 0.0  # ... over edge weights
        self.n_steps = 0  # occupied steps
        self.sum_t2 = 0  # sum of squared step counts
        self.lg_t1 = 0.0  # sum of lgamma(count + 1) over occupied steps

    @classmethod
    def of_counts(cls, s_cnt: dict, d_cnt: dict, g_cnt: dict, step_counts: list, lgt) -> "MarginState":
        """State of events with these margins, summed in the order given: it
        adopts the value -> count dicts of their sources, destinations and
        edges; `step_counts` holds each occupied step's event count."""
        out = cls()
        out.lg_s1 = _add_weighted({}, out.s_hist, s_cnt.items(), lgt, 0.0)
        out.lg_d1 = _add_weighted({}, {}, d_cnt.items(), lgt, 0.0)
        out.lg_g1 = _add_weighted({}, out.g_hist, g_cnt.items(), lgt, 0.0)
        out.lg_t1 = _add_weighted({}, out.t_hist, enumerate(step_counts), lgt, 0.0)
        out.s_cnt, out.d_cnt, out.g_cnt = s_cnt, d_cnt, g_cnt
        out.m, out.n_steps = sum(step_counts), len(step_counts)
        out.sum_d2 = sum(c * c for c in d_cnt.values())
        out.sum_t2 = sum(c * c for c in step_counts)
        return out

    def add_counts(self, other: "MarginState", lgt) -> None:
        """Add the events of `other`, whose steps are disjoint from this
        state's, such as one of the engine's single-step states; `other` is
        left unchanged. `lgt` is an integer lgamma lookup table covering
        counts up to the total event count."""
        self.lg_s1 = _add_weighted(self.s_cnt, self.s_hist, other.s_cnt.items(), lgt, self.lg_s1)
        d_cnt = self.d_cnt
        for t, c in other.d_cnt.items():  # every event has one destination
            c0 = d_cnt.get(t, 0)
            d_cnt[t] = c0 + c
            self.lg_d1 += lgt[c0 + c + 1] - lgt[c0 + 1]
            self.sum_d2 += (2 * c0 + c) * c
        self.m += other.m
        self.lg_g1 = _add_weighted(self.g_cnt, self.g_hist, other.g_cnt.items(), lgt, self.lg_g1)
        # the steps are disjoint, so their time margins just add up
        for c, n in other.t_hist.items():
            self.t_hist[c] = self.t_hist.get(c, 0) + n
        self.n_steps += other.n_steps
        self.sum_t2 += other.sum_t2
        self.lg_t1 += other.lg_t1

    @classmethod
    def merged(cls, a: "MarginState", b: "MarginState", lgt) -> "MarginState":
        """State of the union of two disjoint intervals: a copy of the larger
        state with the smaller one's counts added. Neither input changes."""
        small, big = (a, b) if a.m <= b.m else (b, a)
        out = cls()
        out.m, out.sum_d2, out.n_steps, out.sum_t2 = big.m, big.sum_d2, big.n_steps, big.sum_t2
        out.lg_s1, out.lg_d1, out.lg_g1, out.lg_t1 = big.lg_s1, big.lg_d1, big.lg_g1, big.lg_t1
        out.s_cnt, out.d_cnt, out.g_cnt = dict(big.s_cnt), dict(big.d_cnt), dict(big.g_cnt)
        out.s_hist, out.g_hist, out.t_hist = dict(big.s_hist), dict(big.g_hist), dict(big.t_hist)
        out.add_counts(small, lgt)
        return out


def _width_bits(m: int, tau: int, lgt: list) -> float:
    """IntervalCostEngine.width_bits of one pair: log2 of tau (tau + 1) ...
    (tau + m - 1), from the table when m + tau is in it. A width past the
    table is at least TABLE_STEPS + 3 (m is at most N, and the table holds
    N + min(T, TABLE_STEPS) + 3 entries), where Stirling's series for
    lgamma(tau + m) - lgamma(tau), written with log1p, omits less than
    1e-21 nats; the plain difference of two lgammas cancels (42 events on
    1e18 steps read 0 bits, not 2511)."""
    top = m + tau
    if top < len(lgt):
        return (lgt[top] - lgt[tau]) / LN2
    t, x = float(tau), float(top)
    nats = (
        (t - 0.5) * math.log1p(m / t) + m * math.log(x) - m
        + 1 / (12 * x) - 1 / (12 * t) - 1 / (360 * x**3) + 1 / (360 * t**3)
    )
    return nats / LN2


def _ec(m, nr, nc, row_hist, lg_r1, lg_c1, sc2, lg_cols_shift, lgt) -> float:
    """Effective-columns bits (combinatorics.ec_bits) of the nr x nc
    matrices with m events, from aggregates of the margins: `row_hist`
    the (row sum, number of rows with it) pairs, lg_r1 / lg_c1 the sums
    of lgamma(sum + 1) over rows / columns, sc2 the sum of squared column
    sums and lg_cols_shift the sum of lgamma(column sum + nr)."""
    if nr <= 1 or nc <= 1:
        return 0.0
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


def cluster_bits(state: MarginState, tau: int, S: int, D: int, lgt: list) -> tuple[float, float]:
    """Stage-2 and stage-3 bits of a cluster of `tau` steps holding the events of
    `state` (at least one) over S sources and D destinations, `lgt` their lgamma_table
    as a list: the one coding of a cluster's cost, for interval_cost and total_dl_exact."""
    m = state.m
    l2 = (
        (lgt[S + m] - lgt[S] - lgt[m + 1]) / LN2
        + (lgt[D + m] - lgt[D] - lgt[m + 1]) / LN2
        + _width_bits(m, tau, lgt)
        - lgt[m + 1] / LN2
    )
    # sources x destinations
    nr = len(state.s_cnt)
    lg_shift = 0.0
    for c in state.d_cnt.values():
        lg_shift += lgt[c + nr]
    l3 = _ec(
        m, nr, len(state.d_cnt), state.s_hist.items(),
        state.lg_s1, state.lg_d1, state.sum_d2, lg_shift, lgt,
    )
    # edges x occupied steps
    nr = len(state.g_cnt)
    lg_shift = 0.0
    for c, n in state.t_hist.items():
        lg_shift += n * lgt[c + nr]
    l3 += _ec(
        m, nr, state.n_steps, state.g_hist.items(),
        state.lg_g1, state.lg_t1, state.sum_t2, lg_shift, lgt,
    )
    return l2, l3


class IntervalCostEngine:
    """Fast decoupled cluster costs over contiguous timestep intervals.

    The coding of total_dl_exact(d, b).per_cluster (both call cluster_bits),
    organized for the optimizers: a MarginState holds every margin a
    cluster's cost needs, its time margin included, so interval_cost prices
    a cluster from its state and takes from [a, z) only the width. The width
    enters the cost only through `width_bits`, so the cost of one range of
    occupied steps at any other width is an O(1) correction: the dynamic
    program scores each range once, at its tightest width, through
    range_costs. Past TABLE_STEPS nothing grows with T: set-up is O(N + P)
    for P occupied steps.

    Per event the engine keeps only the integer lgamma table, a list of
    floats and its numpy twin (about 40 bytes an event); the stage-2
    multiset terms are computed from it on demand. Per occupied step it
    keeps `steps`: a single-step MarginState whose source, destination and
    edge counts are value -> count dicts in ascending value order.
    """

    def __init__(self, d: DiscretizedEvents):
        base = d.base
        self.T = d.T
        self.S = base.S
        self.D = base.D
        self.const = decoupled_constant(base.N, d.T)
        self.occupied = d.occupied_steps.tolist()
        self._lgt_np = lgamma_table(base.N, base.S, base.D, d.T)
        self.lgt = self._lgt_np.tolist()

        # per occupied step: events grouped into value -> count dicts, so a
        # state update costs O(distinct values), not O(events)
        rank = np.searchsorted(d.occupied_steps, d.step_of_event)
        self.steps = _block_states(d, rank, [[m] for m in d.step_counts.tolist()], self.lgt)

    def range_costs(self, starts: list[int], z: int) -> tuple[np.ndarray, np.ndarray]:
        """Cost and event count of every cluster [starts[p0], z) holding the
        occupied ranks [p0, len(starts)), indexed by p0: one MarginState
        grows down from the last rank, with one interval_cost call per range."""
        state, costs, counts = MarginState(), [], []
        for p0 in range(len(starts) - 1, -1, -1):
            state.add_counts(self.steps[p0], self.lgt)
            costs.append(self.interval_cost(starts[p0], z, state))
            counts.append(state.m)
        return np.array(costs[::-1]), np.array(counts[::-1])

    def width_bits(self, m: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """The width-dependent part of a cluster's cost, over integer arrays
        of event counts m and widths tau: the timestep multiset term of m
        events on tau steps without its lgamma(m + 1), log2 of tau (tau + 1)
        ... (tau + m - 1). Concave in tau, which is why an optimal cut sits
        at one end of its eventless gap. Past the table, which T does not
        size, it maps _width_bits over the pairs."""
        top = m + tau
        if (top < len(self.lgt)).all():
            return (self._lgt_np[top] - self._lgt_np[tau]) / LN2
        return np.vectorize(_width_bits, otypes=[float], excluded={2})(m, tau, self.lgt)

    def interval_cost(self, a: int, z: int, state: MarginState) -> float:
        """Decoupled cost of the cluster covering steps [a, z).

        `state` must hold the margins of exactly those steps' events, filled
        downward from `steps` as range_costs fills it (merged's other order
        can move the cost by a few ulps); [a, z) gives only the width, and
        must hold at least one event (a cluster without events is not
        admissible, and no optimizer forms one). Returns the decoupled
        constant plus cluster_bits' two stages.
        """
        l2, l3 = cluster_bits(state, z - a, self.S, self.D, self.lgt)
        return self.const + l2 + l3
