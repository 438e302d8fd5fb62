"""Binning optimizers for the decoupled description-length objective.

solve_dp finds the global optimum with the classic one-dimensional
segmentation recursion; solve_greedy agglomerates adjacent clusters, always
merging the pair with the best change; two naive baselines bin by equal
duration or equal event counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .encoding import (
    INF,
    DLBreakdown,
    IntervalCostEngine,
    MarginState,
    total_dl_exact,
)
from .events import (
    Binning,
    DiscretizedEvents,
    EmptyClusterError,
    EventPartition,
    canonical_binning,
    induce_partition,
)
from .metrics import eta_ratio

Method = Literal["exact_dp", "greedy", "uniform_duration", "uniform_count"]

# two costs within this many bits are a tie, settled by a rule rather than by
# float rounding (criterion 1's tolerance)
TIE_BITS = 1e-9


@dataclass(frozen=True)
class BinningResult:
    """Outcome of one binning method on one discretized event set.

    `binning` is the binning the method actually selected and the one `dl`
    and `eta` are computed from. `binning_canonical` is the deterministic
    representative of its equivalence class (every cluster starting at its
    first event's timestep), used for boundary reporting; it induces the
    same partition but generally not the same widths. `runtime_seconds`
    covers the search itself, not the assembly of this result object.
    """

    binning: Binning
    binning_canonical: Binning
    partition: EventPartition
    dl: DLBreakdown
    eta: float
    method: Method
    runtime_seconds: float
    K: int


def _finish(
    d: DiscretizedEvents,
    binning: Binning,
    method: Method,
    runtime: float,
    cap_at_single: bool = False,
) -> BinningResult:
    """The result of `binning`: its exact description length, and its eta
    against the single cluster, priced here too. With `cap_at_single` the
    single cluster replaces a binning that reports more bits than it."""
    dl = total_dl_exact(d, binning)
    single = Binning((d.T,))
    single_dl = total_dl_exact(d, single)
    ref = single_dl.decoupled_total
    if cap_at_single and dl.decoupled_total > ref:
        # The optimizer examined the single-cluster solution, so it must never
        # report anything worse; this can only trigger when its search-time
        # cost and the reported one disagree at float-noise level.
        binning, dl = single, single_dl
    return BinningResult(
        binning=binning,
        binning_canonical=canonical_binning(d, binning),
        partition=induce_partition(d, binning),
        dl=dl,
        eta=eta_ratio(dl.decoupled_total, ref),
        method=method,
        runtime_seconds=runtime,
        K=binning.K,
    )


def _dp_table(eng: IntervalCostEngine) -> tuple[dict[int, float], dict[int, int]]:
    """Run the segmentation recursion over the candidate cut positions: 0, T
    and both ends of every eventless gap between occupied steps. A cut inside
    a gap only moves the two width terms next to it, both concave in its
    position, so an optimal cut sits at a gap end. best[j] is the optimal
    decoupled cost of the first j timesteps and parent[j] the start of its
    final cluster, for every candidate j.

    Each row of ends scores its ranges at their tightest widths in one
    range_costs call, P(P+1)/2 ranges in all; other gap-end widths differ only
    in width_bits, added in a numpy min-plus. Ties pick the smallest start:
    a gap's right end stays a candidate only when it is more than TIE_BITS
    below its left end, so a tied gap joins the later cluster whatever the
    rounding, and exact ties among the rest go to the first minimum. Past
    a DL of about 4.5e6 bits (TIE_BITS over the float64 epsilon) rounding
    alone can exceed TIE_BITS, and the rule no longer sees every tie.
    """
    occ, P = eng.occupied, len(eng.occupied)
    # candidate cuts before each occupied rank (one when its gap is empty)
    cuts = [[0]] + [[a + 1, z] if a + 1 < z else [z] for a, z in zip(occ, occ[1:])] + [[eng.T]]
    pos, rank = np.concatenate(cuts), np.repeat(np.arange(P + 1), [len(cs) for cs in cuts])
    bounds = np.searchsorted(rank, np.arange(P + 2)).tolist()  # rank p: [bounds[p], bounds[p + 1])
    tight = [0] + occ[1:]  # tightest start of each rank: its first event step
    tight_np = np.array(tight)
    right_ends = np.flatnonzero(rank[1:] == rank[:-1]) + 1  # each gap's right end
    best, parent = np.zeros(len(pos)), np.zeros(len(pos), dtype=np.int64)
    for p1 in range(1, P + 1):
        n, n1 = bounds[p1], bounds[p1 + 1]  # row p1's ends
        z = int(pos[n])  # tightest end: just past the last event step
        c, m = eng.range_costs(tight[:p1], z)
        w = eng.width_bits(m, z - tight_np[:p1])
        r, s = rank[:n], pos[:n]
        v = best[:n] + (c[r] + (eng.width_bits(m[r], pos[n:n1, None] - s) - w[r]))
        g = right_ends[right_ends < n]
        v[:, g] = np.where(v[:, g] < v[:, g - 1] - TIE_BITS, v[:, g], INF)
        # argmin takes the first minimum: the smallest start
        best[n:n1], parent[n:n1] = v.min(axis=1), s[v.argmin(axis=1)]
    return dict(zip(pos.tolist(), best.tolist())), dict(zip(pos.tolist(), parent.tolist()))


def solve_dp(d: DiscretizedEvents) -> BinningResult:
    """Globally optimal binning by dynamic programming.

    Minimizes the decoupled description length over all binnings with no
    eventless cluster, selecting the number of bins automatically. Costs
    P(P+1)/2 interval evaluations (P range_costs rows) for P occupied
    timesteps, whatever the step count T.
    """
    t0 = time.perf_counter()
    _, parent = _dp_table(IntervalCostEngine(d))  # the engine goes before _finish
    bounds = [d.T]
    while bounds[-1] > 0:
        bounds.append(parent[bounds[-1]])
    bounds.reverse()
    widths = tuple(z - a for a, z in zip(bounds, bounds[1:]))
    return _finish(d, Binning(widths), "exact_dp", time.perf_counter() - t0, cap_at_single=True)


def solve_greedy(d: DiscretizedEvents) -> BinningResult:
    """Agglomerative heuristic: repeatedly merge the adjacent cluster pair
    with the best description-length change until one cluster remains, then
    return the best configuration seen.

    Eventless timesteps are pre-attached to the nearest event-bearing step
    on their right (trailing ones to the last cluster) so every scored
    cluster holds at least one event. Merges continue even when the best
    change is an increase. The configuration with the lowest search-time
    total wins; a later one within TIE_BITS of the lowest total seen so far
    replaces it, so a tie keeps the fewer clusters.
    """
    t0 = time.perf_counter()
    widths = _greedy_widths(IntervalCostEngine(d))  # the search states go before _finish
    return _finish(d, Binning(widths), "greedy", time.perf_counter() - t0, cap_at_single=True)


def _greedy_widths(eng: IntervalCostEngine) -> tuple[int, ...]:
    """The widths solve_greedy picks. The search starts from the engine's
    single-step states, which `MarginState.merged` never changes. Pair
    changes live in a flat array scanned for its first minimum, so equal
    changes merge the leftmost pair; after a merge only the two pair changes
    touching the new cluster are recomputed, and their merged states are
    kept in case the next merge picks one of them. Each merge logs the bound
    it removes, and the best configuration is rebuilt once at the end.
    """
    # cluster k covers steps [bounds[k], bounds[k + 1]); the last bound is T
    bounds = [0] + [e + 1 for e in eng.occupied[:-1]] + [eng.T]
    initial_bounds = list(bounds)
    states = list(eng.steps)
    costs = [eng.interval_cost(a, z, st) for a, z, st in zip(bounds, bounds[1:], states)]

    def merge(k: int) -> tuple[MarginState, float]:
        """State and cost of clusters k and k + 1 as one cluster."""
        state = MarginState.merged(states[k], states[k + 1], eng.lgt)
        return state, eng.interval_cost(bounds[k], bounds[k + 2], state)

    deltas = np.array(
        [merge(k)[1] - costs[k] - costs[k + 1] for k in range(len(costs) - 1)], dtype=float
    )
    # the merged states of the (at most two) pairs rescored since the last
    # merge; their clusters are unchanged, so a reused cost is bit-identical
    rescored: dict[int, tuple[MarginState, float]] = {}
    total = best_total = sum(costs)
    merge_log: list[int] = []  # the bound each merge removed, in order
    n_best = 0
    while len(costs) > 1:
        k = int(np.argmin(deltas))  # first minimum: the leftmost pair
        state, cost = rescored[k] if k in rescored else merge(k)
        rescored.clear()
        total += cost - costs[k] - costs[k + 1]
        states[k], costs[k] = state, cost
        del states[k + 1], costs[k + 1]
        merge_log.append(bounds.pop(k + 1))
        deltas[k:-1] = deltas[k + 1:]  # drop entry k in place
        deltas = deltas[:-1]
        for j in (k - 1, k):
            if 0 <= j < len(costs) - 1:
                rescored[j] = merge(j)
                deltas[j] = rescored[j][1] - costs[j] - costs[j + 1]
        if total <= best_total + TIE_BITS:  # a tie keeps the fewer clusters
            best_total, n_best = min(best_total, total), len(merge_log)

    merged_away = set(merge_log[:n_best])
    return tuple(np.diff([a for a in initial_bounds if a not in merged_away]).tolist())


def baseline_uniform_duration(d: DiscretizedEvents, K: int) -> BinningResult:
    """Binning into K windows of (near-)equal duration.

    Widths differ by at most one, the remainder spread left to right.
    Raises EmptyClusterError when some window holds no events.
    """
    t0 = time.perf_counter()
    if not 1 <= K <= d.T:
        raise ValueError(f"need 1 <= K <= T={d.T}, got K={K}")
    base, rem = divmod(d.T, K)
    widths = tuple([base + 1] * rem + [base] * (K - rem))
    return _finish(d, Binning(widths), "uniform_duration", time.perf_counter() - t0)


def baseline_uniform_count(d: DiscretizedEvents, K: int) -> BinningResult:
    """Binning into K windows holding (near-)equal numbers of events.

    Boundaries fall after event ranks ceil(j*N/K); each window ends at the
    timestep of its last event. When events straddle a boundary timestep the
    boundary moves right until a timestep change permits a cut.
    """
    t0 = time.perf_counter()
    N = d.base.N
    distinct = len(d.occupied_steps)
    if not 1 <= K <= distinct:
        raise EmptyClusterError(
            f"need 1 <= K <= number of event-bearing timesteps ({distinct}), got K={K}"
        )
    offsets = np.cumsum(d.step_counts)[:-1]  # occupied step r + 1's first event
    bounds, r = [0], -1
    for j in range(1, K):
        # the first cut at or past event rank ceil(j*N/K), right of cut j - 1
        r = max(int(np.searchsorted(offsets, -(-j * N // K))), r + 1)
        if r == len(offsets):
            raise EmptyClusterError(
                f"cannot place boundary {j}: remaining events share one timestep"
            )
        bounds.append(int(d.occupied_steps[r]) + 1)
    widths = tuple(np.diff(bounds + [d.T]).tolist())
    return _finish(d, Binning(widths), "uniform_count", time.perf_counter() - t0)
