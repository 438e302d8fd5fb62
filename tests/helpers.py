"""Shared fixtures-in-code for the test suite."""

import math
from datetime import datetime, timezone

import numpy as np
from hypothesis import strategies as st

from hyperbin import (
    Binning,
    EventDataError,
    EventSet,
    IntervalCostEngine,
    discretize_on_grid,
    parse_events,
)
from hyperbin.encoding import MarginState
from hyperbin.optimize import TIE_BITS

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
        return eng.interval_cost(a, z, eng.state_for_interval(a, z))

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


def reference_dp_table(eng) -> tuple[dict[int, float], dict[int, int]]:
    """The gap-end segmentation recursion as plain Python loops: best[j] and
    parent[j] for every candidate cut j (0, T and both ends of every
    eventless gap), scoring each range of occupied steps once at its
    tightest width and every (start, end) pair with a scalar width_bits.
    A gap's right end is dropped unless it beats its left end by more than
    TIE_BITS; starts are then scanned downward and ties taken, so the
    smallest start wins.
    """
    occ = eng.occupied
    cuts = [(0,)] + [(a + 1, z) if a + 1 < z else (z,) for a, z in zip(occ, occ[1:])]
    cuts.append((eng.T,))
    width = eng.width_bits
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
