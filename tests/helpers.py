"""Shared fixtures-in-code for the test suite."""

import numpy as np

from hyperbin import EventSet, IntervalCostEngine, parse_events

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


def reference_greedy(d) -> tuple[tuple[int, ...], float]:
    """Naive agglomerative greedy: the widths and the search-time cost of the
    best configuration seen.

    Starts from one cluster per event-bearing step (eventless steps attached
    to the step on their right, trailing ones to the last cluster). Each round
    rescores every adjacent pair from scratch and merges the leftmost pair
    with the smallest change, down to one cluster.
    """
    eng = IntervalCostEngine(d)
    bounds = [0] + [e + 1 for e in eng.occupied[:-1]] + [d.T]

    def cost(a, z):
        return eng.interval_cost(a, z, eng.state_for_interval(a, z))

    total = sum(cost(a, z) for a, z in zip(bounds, bounds[1:]))
    best = (total, list(bounds))
    while len(bounds) > 2:
        deltas = [
            cost(a, z) - cost(a, b) - cost(b, z)
            for a, b, z in zip(bounds, bounds[1:], bounds[2:])
        ]
        k = deltas.index(min(deltas))
        total += deltas[k]
        del bounds[k + 1]
        if total < best[0]:
            best = (total, list(bounds))
    total, bounds = best
    return tuple(z - a for a, z in zip(bounds, bounds[1:])), total
