"""Shared fixtures-in-code for the test suite."""

import itertools
import math
import time
from bisect import bisect_left
from datetime import datetime, timezone
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from hyperbin import (
    Binning,
    EmptyClusterError,
    EventDataError,
    EventSet,
    IntervalCostEngine,
    discretize_on_grid,
    parse_events,
)
from hyperbin.combinatorics import EXACT_MAX_MIN_DIM, EXACT_MAX_TOTAL, _count_tables
from hyperbin.encoding import INF, MarginState, _width_bits
from hyperbin.optimize import TIE_BITS, BinningResult, _finish

BRUTEFORCE_MAX_T = 14

# 10 events over 4 sources and 3 destinations, placed on a 12-step grid so
# that the first 6 events land in steps 0-5 and the last 4 in steps 7-11.
# Times sit at step midpoints, so discretize(ev, 12) reproduces the steps.
SAMPLE_ROWS = [
    ("3", "A", 0.5),
    ("3", "A", 1.5),
    ("3", "C", 2.5),
    ("4", "A", 3.5),
    ("3", "A", 4.5),
    ("4", "C", 5.5),
    ("1", "B", 7.5),
    ("2", "B", 8.5),
    ("2", "B", 9.5),
    ("4", "B", 11.5),
]


def sample_events():
    return parse_events(SAMPLE_ROWS)


def random_event_set(rng, n, s, d, span=100.0) -> EventSet:
    """Random event set with times drawn uniformly over [0, span)."""
    return EventSet(
        sources=rng.integers(0, s, n),
        dests=rng.integers(0, d, n),
        times=np.sort(rng.random(n) * span),
        source_labels=tuple(f"s{i}" for i in range(s)),
        dest_labels=tuple(f"d{i}" for i in range(d)),
    )


def reference_parse_timestamp(value: str, row: int) -> float:
    """Reading of a text timestamp as float() first, ISO-8601 second (a
    trailing Z and naive stamps read as UTC), with the parser's messages."""
    text = value.strip()
    try:
        stamp = float(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise EventDataError(f"row {row}: cannot parse timestamp {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        stamp = dt.timestamp()
    if not math.isfinite(stamp):
        raise EventDataError(f"row {row}: timestamp {value!r} is not finite")
    return stamp


def reference_greedy(d) -> tuple[tuple[int, ...], float]:
    """Naive agglomerative greedy: the widths and the search-time cost of the
    best configuration seen (see reference_greedy_run)."""
    return reference_greedy_run(d)[:2]


def reference_greedy_run(d) -> tuple[tuple[int, ...], float, list[int]]:
    """Naive agglomerative greedy: the widths and the search-time cost of the
    chosen configuration, and the index of the pair each round merged.

    Starts from one cluster per event-bearing step (eventless steps attached
    to the step on their right, trailing ones to the last cluster). Each round
    rescores every adjacent pair from scratch and merges the leftmost pair
    with the smallest change, down to one cluster. The chosen configuration
    is the last one within TIE_BITS of the lowest total seen before it.
    """
    eng = IntervalCostEngine(d)
    bounds = [0] + [e + 1 for e in eng.occupied[:-1]] + [d.T]

    def cost(a, z):
        return eng.interval_cost(a, z, state_for_interval(eng, a, z))

    total = lowest = sum(cost(a, z) for a, z in zip(bounds, bounds[1:]))
    best = (total, list(bounds))
    merges = []
    while len(bounds) > 2:
        deltas = [
            cost(a, z) - cost(a, b) - cost(b, z)
            for a, b, z in zip(bounds, bounds[1:], bounds[2:])
        ]
        k = deltas.index(min(deltas))
        merges.append(k)
        total += deltas[k]
        del bounds[k + 1]
        if total <= lowest + TIE_BITS:
            lowest = min(lowest, total)
            best = (total, list(bounds))
    total, bounds = best
    return tuple(z - a for a, z in zip(bounds, bounds[1:])), total, merges


def reference_uniform_count(d, K: int) -> tuple[int, ...]:
    """The widths of baseline_uniform_count by a per-event scan: each
    boundary starts at event rank ceil(j*N/K) (past the previous one) and
    walks right one event at a time until the timestep changes."""
    steps = d.step_of_event
    N = d.base.N
    distinct = len(d.occupied_steps)
    if not 1 <= K <= distinct:
        raise EmptyClusterError(
            f"need 1 <= K <= number of event-bearing timesteps ({distinct}), got K={K}"
        )
    cut_idx = []
    prev = 0
    for j in range(1, K):
        idx = max(-(-j * N // K), prev + 1)  # ceil(j*N/K)
        while idx < N and steps[idx] == steps[idx - 1]:
            idx += 1
        if idx >= N:
            raise EmptyClusterError(
                f"cannot place boundary {j}: remaining events share one timestep"
            )
        cut_idx.append(idx)
        prev = idx
    ends = [int(steps[i - 1]) for i in cut_idx] + [d.T - 1]
    starts = [0] + [e + 1 for e in ends[:-1]]
    return tuple(e - s + 1 for s, e in zip(starts, ends))


def reference_dp_table(eng) -> tuple[dict[int, float], dict[int, int]]:
    """The gap-end segmentation recursion as plain Python loops: best[j] and
    parent[j] for every candidate cut j (0, T and both ends of every
    eventless gap), scoring each range of occupied steps once at its
    tightest width and every (start, end) pair with the scalar _width_bits.
    A gap's right end is dropped unless it beats its left end by more than
    TIE_BITS; starts are then scanned downward and ties taken, so the
    smallest start wins.
    """
    occ = eng.occupied
    cuts = [(0,)] + [(a + 1, z) if a + 1 < z else (z,) for a, z in zip(occ, occ[1:])]
    cuts.append((eng.T,))

    def width(m, tau):
        return _width_bits(m, tau, eng.lgt)

    best = {0: 0.0}
    parent = {0: 0}
    for p1 in range(1, len(cuts)):
        ends = cuts[p1]
        z = ends[0]
        row = [math.inf] * len(ends)
        arg = [0] * len(ends)
        state = MarginState()
        for p0 in range(p1 - 1, -1, -1):
            state.add_counts(eng.steps[p0], eng.lgt)
            starts = cuts[p0]
            a = starts[-1]
            c = eng.interval_cost(a, z, state)
            m = state.m
            w = width(m, z - a)
            for k, e in enumerate(ends):
                vals = [best[s] + (c + (width(m, e - s) - w)) for s in starts]
                if len(vals) == 2 and not vals[1] < vals[0] - TIE_BITS:
                    vals[1] = math.inf
                for s, v in reversed(list(zip(starts, vals))):
                    if v <= row[k]:
                        row[k] = v
                        arg[k] = s
        for e, v, s in zip(ends, row, arg):
            best[e] = v
            parent[e] = s
    return best, parent


def state_for_interval(eng: IntervalCostEngine, a: int, z: int) -> MarginState:
    """Margin state for the events of steps [a, z), filled downward from
    `eng.steps` as range_costs fills it, so both price a range alike."""
    state = MarginState()
    occ = eng.occupied
    for p in range(bisect_left(occ, z) - 1, bisect_left(occ, a) - 1, -1):
        state.add_counts(eng.steps[p], eng.lgt)
    return state


def solve_bruteforce(d) -> BinningResult:
    """Exhaustive minimum over all compositions of T (test oracle).

    A composition with an eventless cluster is infeasible: interval_cost
    prices only clusters that hold events. Ties prefer fewer clusters, then
    lexicographically smallest widths (which is the enumeration order, so
    the first strict minimum wins).
    """
    t0 = time.perf_counter()
    T = d.T
    if T > BRUTEFORCE_MAX_T:
        raise ValueError(f"brute force supports T <= {BRUTEFORCE_MAX_T}, got {T}")
    eng = IntervalCostEngine(d)

    best_dl = INF
    best_widths: tuple[int, ...] | None = None
    for K in range(1, T + 1):
        for cuts in itertools.combinations(range(1, T), K - 1):
            bounds = (0,) + cuts + (T,)
            dl = 0.0
            for k in range(K):
                a, z = bounds[k], bounds[k + 1]
                state = state_for_interval(eng, a, z)
                if state.m == 0:  # an eventless cluster: infeasible
                    dl = INF
                    break
                dl += eng.interval_cost(a, z, state)
            if dl < best_dl:
                best_dl = dl
                best_widths = tuple(bounds[k + 1] - bounds[k] for k in range(K))
    assert best_widths is not None  # K=1 is always feasible (N >= 1)
    return _finish(d, Binning(best_widths), "brute_force", time.perf_counter() - t0, cap_at_single=True)


def nonzero(margin) -> tuple[int, ...]:
    """A margin with its zero entries stripped, as combinatorics.ec_bits takes it."""
    return tuple(int(x) for x in margin if x > 0)


def count_margin_matrices(rows: Sequence[int], cols: Sequence[int]) -> int:
    """Exact number of non-negative integer matrices with the given margins.

    Column-by-column dynamic programming over residual row sums, exact
    integer arithmetic. Zero entries are stripped first (they do not change
    the count). Guarded: after stripping, the instance must satisfy
    min(#rows, #cols) <= EXACT_MAX_MIN_DIM and total <= EXACT_MAX_TOTAL,
    the bounds within which synth samples tables exactly.
    """
    if min(rows, default=0) < 0 or min(cols, default=0) < 0:
        raise ValueError("margins must be non-negative")
    r = tuple(sorted((int(x) for x in rows if x > 0), reverse=True))
    c = tuple(sorted((int(x) for x in cols if x > 0), reverse=True))
    if sum(r) != sum(c):
        raise ValueError("infeasible margins: row and column sums differ")
    if min(len(r), len(c)) > EXACT_MAX_MIN_DIM or sum(r) > EXACT_MAX_TOTAL:
        raise ValueError(
            "instance too large for exact counting: need min(#rows, #cols) <= "
            f"{EXACT_MAX_MIN_DIM} and total <= {EXACT_MAX_TOTAL}, got "
            f"{len(r)}x{len(c)} with total {sum(r)}"
        )
    if not r:
        return 1
    if len(r) > len(c):
        r, c = c, r
    return _count_tables(r, c, 0, {})


@st.composite
def small_grids(draw, max_T=10):
    """Random events on a unit grid of at most max_T steps; sometimes all on
    at most 3 distinct steps, which leaves wide eventless gaps between them."""
    T = draw(st.integers(1, max_T))
    S, D, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 30))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=m, max_size=m)
    pool = draw(st.none() | st.lists(st.integers(0, T - 1), min_size=1, max_size=3, unique=True))
    step = st.integers(0, T - 1) if pool is None else st.sampled_from(pool)
    ev = EventSet(
        sources=draw(ints(S - 1)),
        dests=draw(ints(D - 1)),
        times=[t + 0.5 for t in sorted(draw(st.lists(step, min_size=m, max_size=m)))],
        source_labels=tuple(f"s{i}" for i in range(S)),
        dest_labels=tuple(f"d{i}" for i in range(D)),
    )
    return discretize_on_grid(ev, T, 0.0, 1.0)


@st.composite
def valid_binnings(draw, d) -> Binning:
    """A binning of d's grid in which every cluster holds an event: a cut
    anywhere in (a, b] for some of the pairs of adjacent occupied steps a < b."""
    occ = d.occupied_steps.tolist()
    cuts = [
        draw(st.integers(a + 1, b))
        for a, b in zip(occ, occ[1:])
        if draw(st.booleans())
    ]
    bounds = [0] + cuts + [d.T]
    return Binning(tuple(z - a for a, z in zip(bounds, bounds[1:])))
