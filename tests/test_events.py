import math
import time
import tracemalloc
from collections import Counter
from datetime import timezone

import numpy as np
import pytest

import hyperbin.events
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    SAMPLE_ROWS,
    random_event_set,
    reference_parse_timestamp,
    sample_events,
    small_grids,
    valid_binnings,
)
from hyperbin import (
    Binning,
    EmptyClusterError,
    EventDataError,
    EventPartition,
    EventSet,
    build_snapshot,
    canonical_binning,
    discretize,
    discretize_by_width,
    discretize_on_grid,
    induce_partition,
    parse_events,
    read_events_csv,
)


class TestParseEvents:
    def test_small_interaction_set(self):
        ev = sample_events()
        assert (ev.N, ev.S, ev.D) == (10, 4, 3)

    def test_single_row(self):
        ev = parse_events([("u", "v", 0.0)])
        assert (ev.N, ev.S, ev.D) == (1, 1, 1)

    def test_ties_keep_input_order(self):
        ev = parse_events([("a", "x", 5.0), ("b", "x", 5.0), ("c", "x", 1.0)])
        assert [ev.source_labels[i] for i in ev.sources] == ["c", "a", "b"]

    def test_unsorted_input_is_sorted(self):
        ev = parse_events([("a", "x", "9.0"), ("b", "y", "1.0")])
        assert ev.times.tolist() == [1.0, 9.0]

    def test_iso_timestamps(self):
        ev = parse_events(
            [("a", "x", "2012-04-03T18:00:00Z"), ("b", "x", "2012-04-03T17:00:00+00:00")]
        )
        assert ev.times[0] < ev.times[1]

    def test_bad_timestamp_reports_row(self):
        with pytest.raises(EventDataError, match="row 2"):
            parse_events([("a", "x", 1.0), ("b", "y", "not-a-time")])

    @pytest.mark.parametrize(
        "stamp", [float("nan"), float("inf"), -float("inf"), "nan", "inf", "-inf", " NaN "]
    )
    def test_non_finite_timestamp_reports_row(self, stamp):
        with pytest.raises(EventDataError, match="row 2: .* not finite"):
            parse_events([("a", "x", 1.0), ("b", "y", stamp), ("c", "z", 2.0)])

    def test_event_set_rejects_non_finite_times(self):
        with pytest.raises(EventDataError, match="finite"):
            EventSet(sources=[0, 0], dests=[0, 0], times=[1.0, float("nan")],
                     source_labels=("a",), dest_labels=("x",))

    def test_empty_input(self):
        with pytest.raises(EventDataError):
            parse_events([])

    def test_event_set_rejects_float_ids(self):
        with pytest.raises(EventDataError, match="integer dtype"):
            EventSet(sources=[0.7, 1.9], dests=[0, 1], times=[1.0, 2.0],
                     source_labels=("a", "b"), dest_labels=("x", "y"))
        with pytest.raises(EventDataError, match="integer dtype"):
            EventSet(sources=[0, 1], dests=[True, False], times=[1.0, 2.0],
                     source_labels=("a", "b"), dest_labels=("x", "y"))

    def test_event_set_without_events_says_so(self):
        with pytest.raises(EventDataError, match="at least one event"):
            EventSet(sources=[], dests=[], times=[], source_labels=("a",), dest_labels=("x",))

    def test_event_sets_compare_by_identity(self):
        a, b = sample_events(), sample_events()
        assert (a == b) is False and (a == a) is True
        assert len({a, b}) == 2

    def test_duplicate_triples_allowed(self):
        ev = parse_events([("a", "x", 1.0), ("a", "x", 1.0)])
        assert ev.N == 2

    def test_first_appearance_label_order(self):
        ev = parse_events([("b", "y", 2.0), ("a", "x", 1.0)])
        assert ev.source_labels == ("b", "a")
        assert ev.dest_labels == ("y", "x")

    def test_labels_go_through_str(self):
        ev = parse_events([(1, 2, 1.0), ("1", "2", 2.0), (3, 2.0, 3.0)])
        assert ev.source_labels == ("1", "3")
        assert ev.dest_labels == ("2", "2.0")
        assert ev.sources.tolist() == [0, 0, 1]
        assert ev.dests.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("stamp", [True, False])
    def test_bool_timestamp_is_rejected(self, stamp):
        with pytest.raises(EventDataError, match="row 2: cannot parse timestamp"):
            parse_events([("a", "x", 1.0), ("b", "y", stamp)])

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(2**64), 2**64)
        | st.integers(-(10**400), 10**400)
    )
    @example(10**400)
    @example(-(10**400))
    def test_numbers_read_as_their_float(self, stamp):
        # numbers are read from their text: a float reads back exactly, an int is
        # correctly rounded, and an int past the float range reads as inf
        try:
            want = float(stamp)
        except OverflowError:
            with pytest.raises(EventDataError, match="row 1: .* not finite"):
                parse_events([("a", "x", stamp)])
            return
        got = float(parse_events([("a", "x", stamp)]).times[0])
        assert got.hex() == want.hex()

    def test_whitespace_padded_iso_stamp(self):
        ev = parse_events([("a", "x", " 2020-01-01T00:00:00Z\t"), ("b", "y", " 2020-01-02 ")])
        assert ev.times.tolist() == [1_577_836_800.0, 1_577_923_200.0]

    def test_rows_are_numbered_from_one(self):
        with pytest.raises(EventDataError, match="^row 1: expected 3 fields"):
            parse_events([("a", "x")])
        with pytest.raises(EventDataError, match="^row 1: expected 3 fields"):
            parse_events([()])  # an empty record is no blank line to skip
        with pytest.raises(EventDataError, match="^row 1: cannot parse"):
            parse_events([("a", "x", "soon"), ("b", "y", 1.0)])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_int_too_long_for_str_reports_row(self, position):
        # str() and repr() both refuse an int of more than 4300 digits
        bad = ["b", "y", 2.0]
        bad[position] = 10**5000
        with pytest.raises(EventDataError, match="^row 2: ") as info:
            parse_events([("a", "x", 1.0), tuple(bad), ("c", "z", 3.0)])
        assert len(str(info.value)) < 200


def _outcome(parse, text):
    try:
        return "value", parse(text, 7)
    except EventDataError as exc:
        return "error", str(exc)


class TestTimestampDispatch:
    """Text holding a ':' skips float() and goes straight to ISO-8601; every
    stamp still reads as it does with float() tried first."""

    @settings(max_examples=1000, deadline=None)
    @given(
        text=st.text(alphabet="0123456789-:.+eETZ _", max_size=32)
        | st.datetimes(timezones=st.none() | st.just(timezone.utc)).map(
            lambda t: t.isoformat().replace("+00:00", "Z")
        )
    )
    @example("20200101")
    @example("2020-01-01")
    @example("2020-01-01T00:00:00Z")
    @example(" 12 ")
    @example("1_000")
    @example("12:30")
    @example("nan")
    def test_matches_float_first_reading(self, text):
        got = _outcome(hyperbin.events._parse_timestamp, text)
        assert got == _outcome(reference_parse_timestamp, text)

    @pytest.mark.parametrize(
        "text, stamp",
        [
            ("20200101", 20200101.0),  # float() takes it, so it is a number
            ("1_000", 1000.0),
            ("2020-01-01", 1_577_836_800.0),  # naive stamps read as UTC
            ("2020-01-01T00:00:00Z", 1_577_836_800.0),
        ],
    )
    def test_documented_readings(self, text, stamp):
        assert hyperbin.events._parse_timestamp(text, 1) == stamp


class TestDiscretize:
    def test_grid_of_twelve_steps(self):
        d = discretize(sample_events(), 12)
        assert d.T == 12
        assert d.step_of_event.tolist() == [0, 1, 2, 3, 4, 5, 7, 8, 9, 11]
        assert d.events_in_step.sum() == 10

    def test_all_times_equal(self):
        ev = parse_events([("a", "x", 3.0), ("b", "y", 3.0)])
        d = discretize(ev, 7)
        assert d.delta_t == 1.0
        assert set(d.step_of_event.tolist()) == {0}

    def test_conservation_and_range(self):
        rng = np.random.default_rng(3)
        ev = random_event_set(rng, 500, 4, 4, span=100.0)
        d = discretize(ev, 100)
        assert int(d.events_in_step.sum()) == 500
        assert d.step_of_event.min() >= 0 and d.step_of_event.max() <= 99

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        t=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_distortion_bounded_by_half_step(self, n, t, seed):
        rng = np.random.default_rng(seed)
        ev = random_event_set(rng, n, 3, 3, span=50.0)
        d = discretize(ev, t)
        reps = d.origin + (d.step_of_event + 0.5) * d.delta_t  # step midpoints
        assert np.all(np.abs(reps - ev.times) <= d.delta_t / 2 + 1e-9 * d.delta_t)
        assert np.all(np.diff(d.step_of_event) >= 0)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            discretize(sample_events(), 0)

    def test_keeps_only_the_occupied_steps(self):
        rng = np.random.default_rng(4)
        d = discretize(random_event_set(rng, 60, 3, 3, span=100.0), 300)
        dense = d.events_in_step  # built on demand, length T
        assert len(dense) == 300
        assert d.occupied_steps.tolist() == np.flatnonzero(dense).tolist()
        assert d.step_counts.tolist() == dense[dense > 0].tolist()
        assert d.step_counts.max() > 1 and d.step_counts.sum() == 60

    def test_by_width(self):
        ev = parse_events([("a", "x", 0.0), ("b", "y", 9.5)])
        d = discretize_by_width(ev, 1.0)
        assert d.T == 10
        assert d.delta_t == 1.0

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_by_width_rejects_non_finite_or_non_positive_width(self, width):
        with pytest.raises(ValueError, match="finite delta_t"):
            discretize_by_width(sample_events(), width)

    @pytest.mark.parametrize("steps_out", [-1, 1])
    @pytest.mark.parametrize("origin, delta_t", [(0.0, 1.0), (1.6e9, 1.0), (1e12, 1e-3), (-1e12, 60.0)])
    def test_on_grid_rejects_outside_times(self, origin, delta_t, steps_out):
        # an event one step before the grid of 4 steps, or one step past its end
        ev = parse_events([("a", "x", origin + (steps_out if steps_out < 0 else 5) * delta_t)])
        with pytest.raises(ValueError, match="outside the supplied grid"):
            discretize_on_grid(ev, 4, origin, delta_t)

    @pytest.mark.parametrize(
        "T", [True, 2.5, np.float64(3.0), 0, 2**53 + 1, pytest.param(10**400, id="1e400")]
    )
    def test_step_count_must_be_an_integer_in_range(self, T):
        for make in (lambda ev: discretize(ev, T), lambda ev: discretize_on_grid(ev, T, 0.0, 1.0)):
            with pytest.raises(ValueError, match=r"need an integer 1 <= T <= 2\*\*53"):
                make(sample_events())

    @settings(max_examples=300, deadline=None)
    @given(
        t1=st.sampled_from([0.0, 1.6e9, 1e12, -1.6e9]) | st.floats(-1e12, 1e12),
        span=st.just(0.0) | st.floats(1e-6, 1e9),
        T=st.integers(1, 1000) | st.integers(1, 2**53),
        by_width=st.booleans(),
        inner=st.lists(st.floats(0, 1), max_size=4),
    )
    @example(t1=0.0, span=209701.3099390609, T=818184255, by_width=False, inner=[])
    @example(t1=0.0, span=1691.8104123529536, T=47548066282743, by_width=True, inner=[])
    def test_every_derived_grid_is_a_supplied_grid(self, t1, span, T, by_width, inner):
        times = np.sort([t1, t1 + span] + [t1 + f * span for f in inner])
        ev = EventSet(np.zeros(len(times), int), np.zeros(len(times), int), times, ("a",), ("x",))
        if by_width:
            span = float(times[-1]) - float(times[0])  # as rounded
            width = span / T if span > 0 else 1.0
            assume(width > 0 and span / width <= 2**53)
            d = discretize_by_width(ev, width)
        else:
            d = discretize(ev, T)
        again = discretize_on_grid(ev, d.T, d.origin, d.delta_t)
        assert (again.T, again.origin, again.delta_t) == (d.T, d.origin, d.delta_t)
        for name in ("step_of_event", "occupied_steps", "step_counts"):
            assert np.array_equal(getattr(again, name), getattr(d, name))


class TestBinning:
    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            Binning((3, 0, 2))

    @pytest.mark.parametrize("widths", [(1.5, 2.7), (True, 2), (2, 3.0), (np.float64(2),)])
    def test_rejects_widths_that_are_no_integers(self, widths):
        with pytest.raises(ValueError, match="integers"):
            Binning(widths)

    def test_takes_numpy_integers(self):
        assert Binning(np.array([7, 5])).widths == (7, 5)

    @given(st.lists(st.integers(1, 2**40), min_size=1, max_size=30))
    def test_bounds_are_the_cumulative_widths(self, widths):
        b = Binning(tuple(widths))
        assert b.bounds == (0, *np.cumsum(widths).tolist())
        assert b.T == sum(widths) and b.K == len(widths)
        twin = Binning(list(widths))
        assert twin == b and hash(twin) == hash(b)


class TestEventPartition:
    def test_equal_sizes_compare_equal_and_hash_alike(self):
        a, b = EventPartition([1, 2]), EventPartition(np.array([1, 2]))
        assert a == b and hash(a) == hash(b)
        assert a != EventPartition([2, 1]) and a != EventPartition([1, 2, 1])
        assert a != (1, 2)

    @pytest.mark.parametrize(
        "sizes", [[2.7, 3], np.array([2.0, 3.0]), [], [[1, 2], [3, 4]], [True, True]]
    )
    def test_sizes_must_be_a_non_empty_1d_integer_array(self, sizes):
        with pytest.raises(ValueError, match="non-empty 1-D integer array"):
            EventPartition(sizes)


class TestInducePartition:
    def test_two_bins(self):
        d = discretize(sample_events(), 12)
        part = induce_partition(d, Binning((7, 5)))
        assert part.sizes.tolist() == [6, 4]
        assert part.cluster_of_event.tolist() == [0] * 6 + [1] * 4

    def test_single_bin(self):
        d = discretize(sample_events(), 12)
        part = induce_partition(d, Binning((12,)))
        assert part.sizes.tolist() == [10]

    def test_empty_cluster_rejected(self):
        d = discretize(sample_events(), 12)
        with pytest.raises(EmptyClusterError):
            induce_partition(d, Binning((6, 1, 5)))  # middle bin covers only step 6

    def test_shifting_empty_boundary_step_is_neutral(self):
        d = discretize(sample_events(), 12)
        # step 6 holds no events: both (7,5) and (6,6) induce the same partition
        a = induce_partition(d, Binning((7, 5)))
        b = induce_partition(d, Binning((6, 6)))
        assert a.cluster_of_event.tolist() == b.cluster_of_event.tolist()

    def test_width_sum_must_match(self):
        d = discretize(sample_events(), 12)
        with pytest.raises(ValueError):
            induce_partition(d, Binning((7, 4)))

    @settings(max_examples=300, deadline=None)
    @given(d=small_grids(), data=st.data())
    def test_sizes_equal_the_per_event_cluster_count(self, d, data):
        # any composition of T, eventless clusters included, against a count
        # of each event's cluster
        cuts = data.draw(st.sets(st.integers(1, d.T - 1)) if d.T > 1 else st.just(set()))
        w = np.diff([0, *sorted(cuts), d.T])
        b = Binning(tuple(w.tolist()))
        cluster = np.searchsorted(np.cumsum(w)[:-1], d.step_of_event, side="right")
        want = np.bincount(cluster, minlength=b.K)
        if want.min() > 0:
            part = induce_partition(d, b)
            assert part.sizes.tolist() == want.tolist()
            assert part.cluster_of_event.tolist() == cluster.tolist()
            assert (part.K, part.N) == (b.K, d.base.N)
        else:
            empty = int(np.flatnonzero(want == 0)[0])
            with pytest.raises(EmptyClusterError, match=f"^cluster {empty} of binning"):
                induce_partition(d, b)


def _margins(snap):
    """A snapshot's source and destination margins, as Counters of its edges."""
    src, dst = Counter(), Counter()
    for (s, t), w in snap.edges.items():
        src[s] += w
        dst[t] += w
    return src, dst


class TestBuildSnapshot:
    def test_first_cluster(self):
        ev = sample_events()
        d = discretize(ev, 12)
        b = Binning((7, 5))
        snap = build_snapshot(d, b)[0]
        labeled = {
            (ev.source_labels[s], ev.dest_labels[t]): w for (s, t), w in snap.edges.items()
        }
        assert labeled == {("3", "A"): 3, ("3", "C"): 1, ("4", "A"): 1, ("4", "C"): 1}
        src, dst = _margins(snap)
        assert [src[ev.source_labels.index(k)] for k in ("1", "2", "3", "4")] == [0, 0, 4, 2]
        assert [dst[ev.dest_labels.index(k)] for k in ("A", "B", "C")] == [4, 0, 2]
        assert b.widths[0] == 7 and snap.m_k == 6

    def test_second_cluster(self):
        ev = sample_events()
        d = discretize(ev, 12)
        snap = build_snapshot(d, Binning((7, 5)))[1]
        labeled = {
            (ev.source_labels[s], ev.dest_labels[t]): w for (s, t), w in snap.edges.items()
        }
        assert labeled == {("1", "B"): 1, ("2", "B"): 2, ("4", "B"): 1}

    def test_single_event_cluster_is_one_hot(self):
        ev = parse_events([("a", "x", 0.0), ("b", "y", 10.0)])
        d = discretize(ev, 10)
        snap = build_snapshot(d, Binning((5, 5)))[0]
        assert snap.m_k == 1
        assert list(snap.edges.values()) == [1]
        assert snap.edges == {(0, 0): 1}

    def test_empty_cluster_raises(self):
        d = discretize_on_grid(parse_events([("a", "x", 0.5), ("b", "y", 9.5)]), 10, 0.0, 1.0)
        with pytest.raises(EmptyClusterError, match="^cluster 1 of binning"):
            build_snapshot(d, Binning((3, 3, 4)))

    def test_conservation(self):
        rng = np.random.default_rng(5)
        ev = random_event_set(rng, 200, 5, 4)
        d = discretize(ev, 30)
        b = Binning((10, 10, 10))
        part = induce_partition(d, b)
        total = 0
        snaps = build_snapshot(d, b)
        assert len(snaps) == b.K
        for k, (a, snap) in enumerate(zip(b.bounds[:-1], snaps)):
            lo = int(part.sizes[:k].sum())
            hi = lo + int(part.sizes[k])
            src, dst = _margins(snap)
            assert sum(snap.edges.values()) == snap.m_k == hi - lo
            assert list(snap.edges) == sorted(snap.edges)
            assert src == Counter(ev.sources[lo:hi].tolist())
            assert dst == Counter(ev.dests[lo:hi].tolist())
            assert a <= d.step_of_event[lo] and d.step_of_event[hi - 1] < a + b.widths[k]
            total += snap.m_k
        assert total == 200

    def test_report_is_linear_in_k(self):
        # one event per step: the snapshots of all K clusters take O(K) work
        # beyond one grouping of the N events, so 8x the clusters cost well
        # under 64x the time
        n = 16_000
        ev = EventSet(
            sources=np.zeros(n, dtype=np.int64),
            dests=np.zeros(n, dtype=np.int64),
            times=np.arange(n) + 0.5,
            source_labels=("s",),
            dest_labels=("d",),
        )
        d = discretize_on_grid(ev, n, 0.0, 1.0)

        def seconds(K):
            b = Binning((n // K,) * K)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                build_snapshot(d, b)
                best = min(best, time.perf_counter() - t0)
            return best

        assert seconds(8000) / seconds(1000) < 16

    def test_memory_free_of_alphabet_size(self):
        # two events over 2,000,000 sources and destinations: a snapshot holds
        # its edges, not margins over the whole alphabet (two dense int64
        # margins would take 32 MB)
        n_labels = 2_000_000
        ev = EventSet(
            sources=[0, n_labels - 1],
            dests=[n_labels - 1, 0],
            times=[0.5, 1.5],
            source_labels=("s",) * n_labels,
            dest_labels=("d",) * n_labels,
        )
        d = discretize_on_grid(ev, 2, 0.0, 1.0)
        tracemalloc.start()
        try:
            snap = build_snapshot(d, Binning((2,)))[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert snap.edges == {(0, n_labels - 1): 1, (n_labels - 1, 0): 1}
        assert peak < 1_000_000


class TestCanonicalBinning:
    def test_clusters_start_at_first_event(self):
        d = discretize(sample_events(), 12)
        canon = canonical_binning(d, Binning((6, 6)))
        # cluster 2's first event sits in step 7, so the canonical split is (7, 5)
        assert canon.widths == (7, 5)

    def test_equivalence_class_collapses(self):
        d = discretize(sample_events(), 12)
        assert canonical_binning(d, Binning((6, 6))) == canonical_binning(d, Binning((7, 5)))

    def test_partition_preserved(self):
        rng = np.random.default_rng(9)
        ev = random_event_set(rng, 60, 3, 3)
        d = discretize(ev, 20)
        b = Binning((8, 12))
        canon = canonical_binning(d, b)
        assert (
            induce_partition(d, b).cluster_of_event.tolist()
            == induce_partition(d, canon).cluster_of_event.tolist()
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_idempotent_and_partition_preserving(self, data):
        d = data.draw(small_grids())
        b = data.draw(valid_binnings(d))
        canon = canonical_binning(d, b)
        assert canonical_binning(d, canon) == canon
        part = induce_partition(d, canon)
        assert part.cluster_of_event.tolist() == induce_partition(d, b).cluster_of_event.tolist()
        # cluster 0 is pinned to step 0; every later one opens at its first event
        firsts = np.concatenate([[0], np.cumsum(part.sizes)[:-1]])
        assert canon.bounds[:-1] == (0,) + tuple(d.step_of_event[firsts[1:]].tolist())


class TestCsvReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "source,destination,timestamp\n" +
            "".join(f"{s},{t},{x}\n" for s, t, x in SAMPLE_ROWS),
            encoding="utf-8",
        )
        ev = read_events_csv(path)
        assert (ev.N, ev.S, ev.D) == (10, 4, 3)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(EventDataError, match="header"):
            read_events_csv(path)

    def test_row_numbered_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "source,destination,timestamp\nu,v,1.0\nu,v,zzz\n", encoding="utf-8"
        )
        with pytest.raises(EventDataError, match="row 3"):
            read_events_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "\ufeffsource,destination,timestamp\nu,v,1.0\nw,v,2.0\n", encoding="utf-8"
        )
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        ev = read_events_csv(path)
        assert ev.source_labels == ("u", "w")
        assert ev.times.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_reports_path_and_row(self, tmp_path, stamp):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"source,destination,timestamp\nu,v,1.0\nu,v,{stamp}\n", encoding="utf-8"
        )
        with pytest.raises(EventDataError, match="row 3: .* not finite"):
            read_events_csv(path)

    def test_each_row_is_time_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        parse = hyperbin.events._parse_timestamp

        def counting(value, row):
            calls.append(row)
            return parse(value, row)

        monkeypatch.setattr(hyperbin.events, "_parse_timestamp", counting)
        path = tmp_path / "events.csv"
        path.write_text(
            "source,destination,timestamp\n" +
            "".join(f"{s},{t},{x}\n" for s, t, x in SAMPLE_ROWS),
            encoding="utf-8",
        )
        read_events_csv(path)
        assert calls == list(range(2, len(SAMPLE_ROWS) + 2))

    def test_wrong_column_count_reports_path_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "source,destination,timestamp\nu,v,1.0\n\nu,v\n", encoding="utf-8"
        )
        with pytest.raises(EventDataError, match=r"bad\.csv: row 4: expected 3 fields"):
            read_events_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ('u,v,1.0\nu,v,"2', "row 3: unexpected end of data"),  # unterminated at EOF
            ('u,v,1.0\nu,"v"x,2\nu,v,3.0\n', "row 3: ',' expected after '\"'"),
        ],
    )
    def test_malformed_quoting_reports_path_and_row(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("source,destination,timestamp\n" + body, encoding="utf-8")
        with pytest.raises(EventDataError) as exc:
            read_events_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_well_formed_quoting_is_read(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            'source,destination,timestamp\n"u,1","v ""2""",1.0\n', encoding="utf-8"
        )
        ev = read_events_csv(path)
        assert (ev.source_labels, ev.dest_labels) == (("u,1",), ('v "2"',))

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"source,destination,timestamp\nu,v,1.0\nu,\xffv,2.0\n")
        with pytest.raises(EventDataError, match=r"bad\.csv: not UTF-8: byte 0xff"):
            read_events_csv(path)

    def test_non_utf8_byte_past_the_first_read_names_the_file(self, tmp_path):
        # decoded inside the row loop, not while the header is read
        path = tmp_path / "bad.csv"
        path.write_bytes(b"source,destination,timestamp\n" + b"u,v,1.0\n" * 10_000
                         + b"u,\xffv,2.0\n")
        with pytest.raises(EventDataError, match=r"bad\.csv: not UTF-8: byte 0xff"):
            read_events_csv(path)

    def test_header_only_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("source,destination,timestamp\n\n", encoding="utf-8")
        with pytest.raises(EventDataError, match=r"bad\.csv: no events"):
            read_events_csv(path)
