"""Temporal bipartite event data.

Parsing and validation of (source, destination, time) interaction events,
discretization onto a uniform timestep grid, binnings of the grid, the
event partitions they induce (stored as cluster sizes), and per-bin
hypergraph snapshots (a bin's weighted edges and its event count).
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np


class EventDataError(ValueError):
    """Raised for malformed event input (bad rows, empty data, ...)."""


class EmptyClusterError(ValueError):
    """Raised when a binning would leave some cluster without any event."""


@dataclass(frozen=True, eq=False)
class EventSet:
    """Time-ordered bipartite interaction events with dense integer ids.

    `sources[i]`, `dests[i]`, `times[i]` describe event i; ids index into
    `source_labels` / `dest_labels` and must have an integer dtype. Events
    are sorted by time, ties keeping input order. Immutable after
    construction; instances compare and hash by identity, since their
    ndarray fields cannot compare by value.
    """

    sources: np.ndarray
    dests: np.ndarray
    times: np.ndarray
    source_labels: tuple[str, ...]
    dest_labels: tuple[str, ...]

    def __post_init__(self):
        sources, dests = np.asarray(self.sources), np.asarray(self.dests)
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        if sources.ndim != 1 or len(sources) == 0:
            raise EventDataError("event set needs at least one event")
        if not (len(sources) == len(dests) == len(self.times)):
            raise EventDataError("sources, dests and times must have equal length")
        if sources.dtype.kind not in "iu" or dests.dtype.kind not in "iu":  # no silent truncation
            raise EventDataError(
                f"source and destination ids need an integer dtype, got {sources.dtype} and {dests.dtype}"
            )
        object.__setattr__(self, "sources", sources.astype(np.int64, copy=False))
        object.__setattr__(self, "dests", dests.astype(np.int64, copy=False))
        if not np.all(np.isfinite(self.times)):
            raise EventDataError("event times must be finite")
        if np.any(self.times[1:] < self.times[:-1]):  # a difference can overflow
            raise EventDataError("events must be sorted by time")
        if not self.source_labels or not self.dest_labels:
            raise EventDataError("label alphabets must be non-empty")
        if self.sources.min() < 0 or self.sources.max() >= len(self.source_labels):
            raise EventDataError("source id out of range")
        if self.dests.min() < 0 or self.dests.max() >= len(self.dest_labels):
            raise EventDataError("destination id out of range")

    @property
    def N(self) -> int:
        return len(self.times)

    @property
    def S(self) -> int:
        return len(self.source_labels)

    @property
    def D(self) -> int:
        return len(self.dest_labels)


def _parse_timestamp(value, row: int) -> float:
    stamp = None
    if isinstance(value, str) and ":" in value:
        pass  # float() accepts no ':', so such text is ISO-8601 or bad
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        stamp = float(value)
    else:
        try:
            stamp = float(str(value).strip())
        except ValueError:
            pass
    if stamp is None:
        try:
            dt = datetime.fromisoformat(str(value).strip().replace("Z", "+00:00"))
        except ValueError:
            raise EventDataError(f"row {row}: cannot parse timestamp {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)  # naive stamps read as UTC
        stamp = dt.timestamp()
    if not math.isfinite(stamp):
        raise EventDataError(f"row {row}: timestamp {value!r} is not finite")
    return stamp


def _events_from_rows(records: Iterable[Sequence], first_row: int, skip_blank: bool) -> EventSet:
    # the one ingest loop; rows are numbered from `first_row`, and an empty
    # record is skipped when `skip_blank` is set (a blank CSV line)
    src_ids: dict[str, int] = {}
    dst_ids: dict[str, int] = {}
    sources, dests, times = [], [], []
    add_source, add_dest, add_time = sources.append, dests.append, times.append
    row = first_row - 1
    try:
        for row, rec in enumerate(records, first_row):
            try:
                s_label, d_label, t_raw = rec
            except ValueError:
                if skip_blank and not rec:
                    continue
                raise EventDataError(f"row {row}: expected 3 fields, got {rec!r}") from None
            add_source(src_ids.setdefault(str(s_label), len(src_ids)))
            add_dest(dst_ids.setdefault(str(d_label), len(dst_ids)))
            add_time(_parse_timestamp(t_raw, row))
    except csv.Error as exc:  # from a strict csv.reader, reading the next row
        raise EventDataError(f"row {row + 1}: {exc}") from None
    if not times:
        raise EventDataError("no events in input")
    order = np.argsort(np.asarray(times), kind="stable")
    return EventSet(
        sources=np.asarray(sources)[order],
        dests=np.asarray(dests)[order],
        times=np.asarray(times)[order],
        source_labels=tuple(src_ids),
        dest_labels=tuple(dst_ids),
    )


def parse_events(records: Iterable[tuple]) -> EventSet:
    """Build an EventSet from (source_label, dest_label, timestamp) records.

    Labels are mapped to dense integer ids in first-appearance order, after
    str(), so 1 and "1" are one label; timestamps may be finite numbers (not
    bools) or ISO-8601 strings. Events are stably sorted by time, so records
    sharing a timestamp keep their input order. Duplicate (s, d, t) triples
    are allowed (multi-events). Errors number the records from 1.
    """
    return _events_from_rows(records, 1, skip_blank=False)


CSV_HEADER = ("source", "destination", "timestamp")


def read_events_csv(path) -> EventSet:
    """Read events from a CSV file with header source,destination,timestamp.

    The file is read as UTF-8 with strict quoting; a leading byte-order mark
    and blank rows are skipped. Errors, a byte that is not UTF-8 and a
    malformed quote among them, name the file, and the row where known, the
    header being row 1."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise EventDataError("empty file") from None
            except csv.Error as exc:
                raise EventDataError(f"row 1: {exc}") from None
            if tuple(h.strip().lower() for h in header) != CSV_HEADER:
                raise EventDataError(
                    f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
                )
            return _events_from_rows(reader, 2, skip_blank=True)
    except EventDataError as exc:
        raise EventDataError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:  # its position counts from a buffer, not the file
        byte = exc.object[exc.start]
        raise EventDataError(f"{path}: not UTF-8: byte {byte:#04x} ({exc.reason})") from None


# the largest step count for which float64 holds every step index exactly, so
# floor((t - origin) / delta_t) can neither overflow the int64 cast nor merge steps
MAX_STEPS = 2**53


@dataclass(frozen=True, eq=False)
class DiscretizedEvents:
    """An EventSet mapped onto T uniform timesteps of width delta_t.

    Step k covers [origin + k*delta_t, origin + (k+1)*delta_t) with the last
    step closed on the right; its representative time is the step midpoint,
    so the rounding distortion is at most delta_t / 2. Only the occupied
    steps are stored: `occupied_steps` (ascending) and `step_counts` (their
    event counts), so nothing here grows with T. Instances compare and
    hash by identity, since their ndarray fields cannot compare by value.
    """

    base: EventSet
    T: int
    delta_t: float
    origin: float
    step_of_event: np.ndarray
    occupied_steps: np.ndarray
    step_counts: np.ndarray

    @property
    def events_in_step(self) -> np.ndarray:
        """Dense per-step event counts, a length-T array built on demand."""
        return np.bincount(self.step_of_event, minlength=self.T)


def _finish_discretization(ev: EventSet, T: int, origin: float, delta_t: float) -> DiscretizedEvents:
    span = float(ev.times[-1]) - float(ev.times[0])  # every grid is made here
    if not (math.isfinite(span) and 0 < delta_t < math.inf and math.isfinite(origin + T * delta_t)):
        raise ValueError(f"event times spanning {span} give no finite grid of {T} steps")
    steps = np.floor((ev.times - origin) / delta_t).astype(np.int64)
    np.clip(steps, 0, T - 1, out=steps)
    occupied, counts = np.unique(steps, return_counts=True)
    return DiscretizedEvents(
        base=ev,
        T=T,
        delta_t=delta_t,
        origin=origin,
        step_of_event=steps,
        occupied_steps=occupied,
        step_counts=counts,
    )


def discretize(ev: EventSet, T: int) -> DiscretizedEvents:
    """Round event times onto T uniform steps spanning [t_1, t_N]."""
    if not 1 <= T <= MAX_STEPS:
        raise ValueError(f"need 1 <= T <= 2**53, got T={T}")
    t1 = float(ev.times[0])
    span = float(ev.times[-1]) - t1
    delta_t = span / T if span > 0 else 1.0
    return _finish_discretization(ev, T, t1, delta_t)


def discretize_by_width(ev: EventSet, delta_t: float) -> DiscretizedEvents:
    """Discretize with an explicit step width; T becomes ceil(span / delta_t).

    Raises ValueError, before allocating anything, when the derived step
    count is not finite or exceeds MAX_STEPS.
    """
    if not 0 < delta_t < math.inf:
        raise ValueError(f"need a finite delta_t > 0, got {delta_t}")
    t1 = float(ev.times[0])
    span = float(ev.times[-1]) - t1
    steps = span / delta_t
    if not steps <= MAX_STEPS:  # catches inf and nan too
        raise ValueError(
            f"delta_t={delta_t} over a span of {span} gives T={steps:g} steps, more than 2**53"
        )
    T = max(1, math.ceil(steps))
    return _finish_discretization(ev, T, t1, delta_t)


def discretize_on_grid(ev: EventSet, T: int, origin: float, delta_t: float) -> DiscretizedEvents:
    """Discretize onto an explicitly anchored grid.

    Used when the grid is known a priori (synthetic data, re-evaluating a
    stored result) rather than derived from the observed time span. All
    event times must fall inside [origin, origin + T*delta_t].
    """
    if not 1 <= T <= MAX_STEPS or delta_t <= 0:
        raise ValueError(f"need 1 <= T <= 2**53 and delta_t > 0, got T={T}, delta_t={delta_t}")
    lo, hi = float(ev.times[0]), float(ev.times[-1])
    if lo < origin - 1e-9 * delta_t or hi > origin + T * delta_t + 1e-9 * delta_t:
        raise ValueError("event times fall outside the supplied grid")
    return _finish_discretization(ev, T, origin, delta_t)


@dataclass(frozen=True)
class Binning:
    """Ordered positive timestep-interval widths partitioning the grid.

    Each width is an integer (anything `operator.index` takes, but not a
    bool). `bounds` holds the K + 1 cut positions, derived once: cluster k
    covers steps [bounds[k], bounds[k + 1]), and bounds[-1] is T. Binnings
    compare and hash by their widths.
    """

    widths: tuple[int, ...]
    bounds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = tuple(self.widths)
        try:  # operator.index refuses floats, but takes bools
            if any(isinstance(w, bool) for w in widths):
                raise TypeError
            widths = tuple(map(operator.index, widths))
        except TypeError:
            raise ValueError(f"bin widths must be integers, got {widths}") from None
        if not widths or min(widths) < 1:
            raise ValueError(f"bin widths must be positive integers, got {widths}")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "bounds", (0, *itertools.accumulate(widths)))

    @property
    def K(self) -> int:
        return len(self.widths)

    @property
    def T(self) -> int:
        return self.bounds[-1]


@dataclass(frozen=True, eq=False)
class EventPartition:
    """Contiguous partition of the time-ordered events into K clusters of
    the given sizes, each holding at least one event. A partition is its
    sizes: two compare equal, and hash alike, when their sizes do."""

    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))
        if self.sizes.min() < 1:
            raise EmptyClusterError("every cluster needs at least one event")

    def __eq__(self, other):
        if not isinstance(other, EventPartition):
            return NotImplemented
        return np.array_equal(self.sizes, other.sizes)

    def __hash__(self):
        return hash(tuple(self.sizes.tolist()))

    @property
    def cluster_of_event(self) -> np.ndarray:
        """Each event's cluster index, a length-N array built on demand."""
        return np.repeat(np.arange(self.K), self.sizes)

    @property
    def K(self) -> int:
        return len(self.sizes)

    @property
    def N(self) -> int:
        return int(self.sizes.sum())


def induce_partition(d: DiscretizedEvents, b: Binning) -> EventPartition:
    """Partition of the events induced by a binning of the timesteps."""
    if b.T != d.T:
        raise ValueError(f"binning covers {b.T} steps but the grid has {d.T}")
    # events are sorted by step, so each cluster ends where its last step does
    ends = np.searchsorted(d.step_of_event, b.bounds[1:])
    sizes = np.diff(ends, prepend=0)
    if sizes.min() < 1:
        empty = int(np.argmin(sizes))
        raise EmptyClusterError(f"cluster {empty} of binning {b.widths} holds no events")
    return EventPartition(sizes)


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


def build_snapshot(d: DiscretizedEvents, b: Binning) -> list["HypergraphSnapshot"]:
    """Weighted incidence snapshots of b's clusters, in cluster order; raises
    EmptyClusterError, as induce_partition does, if a cluster holds no events."""
    part = induce_partition(d, b)
    D = d.base.D
    grouped = _group_counts(part.cluster_of_event, d.base.sources * D + d.base.dests, part.K)
    return [
        HypergraphSnapshot(edges={divmod(key, D): c for key, c in g.items()}, m_k=m)
        for g, m in zip(grouped, part.sizes.tolist())
    ]


@dataclass(frozen=True)
class HypergraphSnapshot:
    """Weighted bipartite incidence of one temporal bin.

    `edges[(s, d)]` counts events pairing source s with destination d inside
    the bin, in ascending (s, d) order; the weights sum to m_k, the bin's
    event count. Nothing here is sized by the label alphabets: a bin's
    margins follow from `edges`, its time margin from the grid's
    `occupied_steps` and `step_counts`.
    """

    edges: dict[tuple[int, int], int]
    m_k: int


def canonical_binning(d: DiscretizedEvents, b: Binning) -> Binning:
    """Deterministic representative of b's binning equivalence class.

    Empty timesteps at cluster boundaries can sit on either side without
    changing the event partition; the canonical member starts every cluster
    at the timestep of its first event (cluster 1 pinned to step 0, the last
    cluster absorbing trailing empty steps).
    """
    part = induce_partition(d, b)
    starts = d.step_of_event[np.cumsum(part.sizes)[:-1]]
    return Binning(tuple(np.diff(starts, prepend=0, append=d.T).tolist()))
