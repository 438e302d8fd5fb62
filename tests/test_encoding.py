import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import count_margin_matrices, random_event_set, sample_events, state_for_interval
from hyperbin import (
    Binning,
    EmptyClusterError,
    EventSet,
    IntervalCostEngine,
    build_snapshot,
    decoupled_constant,
    discretize,
    discretize_on_grid,
    induce_partition,
    log2_multiset,
    naive_dl,
    parse_events,
    stage1_dl,
    total_dl_exact,
)
from hyperbin.encoding import MarginState, _width_bits
from hyperbin.events import _group_counts


class TestNaiveDl:
    def test_small_grid(self):
        assert naive_dl(10, 4, 3, 12) == pytest.approx(10 * math.log2(144), abs=1e-9)

    def test_degenerate(self):
        assert naive_dl(1, 1, 1, 1) == 0.0

    def test_powers_of_two(self):
        assert naive_dl(2, 2, 2, 2) == pytest.approx(6.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            naive_dl(0, 1, 1, 1)


class TestStage1Dl:
    def test_single_cluster_free(self):
        assert stage1_dl(10, 12, 1) == 0.0

    def test_two_clusters(self):
        assert stage1_dl(10, 12, 2) == pytest.approx(
            math.log2(9) + math.log2(11), abs=1e-12
        )

    def test_saturated(self):
        assert stage1_dl(5, 5, 5) == 0.0

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            stage1_dl(10, 12, 11)


class TestClusterDl:
    """total_dl_exact(d, b).per_cluster[k], the decoupled cost of cluster k."""

    def test_single_event_cluster_reduces_to_bin_counts(self):
        ev = parse_events([("a", "x", 0.0), ("b", "y", 10.0)])
        d = discretize(ev, 10)
        expected = (
            decoupled_constant(2, 10) + math.log2(2) + math.log2(2) + math.log2(4)
        )
        got = total_dl_exact(d, Binning((4, 6))).per_cluster[0]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_width_one_cluster_drops_time_terms(self):
        ev = parse_events([("a", "x", 0.0), ("b", "y", 0.01), ("b", "y", 10.0)])
        d = discretize(ev, 10)
        b = Binning((1, 9))
        snap = build_snapshot(d, b)[0]
        assert b.widths[0] == 1 and snap.m_k == 2
        # time multiset term and the (edges, steps) count are both zero
        expected = (
            decoupled_constant(3, 10)
            + log2_multiset(2, 2) * 2
            + 0.0
            + math.log2(count_margin_matrices((1, 1), (1, 1)))
        )
        got = total_dl_exact(d, b).per_cluster[0]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_finite_positive_and_near_exact_omega(self):
        d = discretize(sample_events(), 12)
        got = total_dl_exact(d, Binning((7, 5))).per_cluster[0]
        assert math.isfinite(got) and got > 0
        # replace both estimates by exact counts: difference stays within the
        # estimator's accuracy budget (two terms, each within 0.5 bits here)
        exact_terms = math.log2(count_margin_matrices((4, 2), (4, 2))) + math.log2(
            count_margin_matrices((3, 1, 1, 1), (1, 1, 1, 1, 1, 1))
        )
        approx_terms = got - (
            decoupled_constant(10, 12)
            + log2_multiset(4, 6)
            + log2_multiset(3, 6)
            + log2_multiset(7, 6)
        )
        assert abs(approx_terms - exact_terms) <= 1.0

    def test_rejects_empty(self):
        # on a grid anchored at 0 the events sit in steps 5 and 9, so the
        # first cluster, steps 0-3, holds none
        ev = parse_events([("a", "x", 5.0), ("b", "y", 10.0)])
        d = discretize_on_grid(ev, 10, 0.0, 1.0)
        assert d.step_of_event.tolist() == [5, 9]
        with pytest.raises(EmptyClusterError):
            total_dl_exact(d, Binning((4, 6)))


class TestTotalDlExact:
    def test_identities(self):
        d = discretize(sample_events(), 12)
        dl = total_dl_exact(d, Binning((7, 5)))
        assert dl.total == pytest.approx(dl.L1 + dl.L2 + dl.L3, abs=1e-9)
        assert dl.decoupled_total == pytest.approx(sum(dl.per_cluster), abs=1e-9)
        assert dl.L0_naive == pytest.approx(10 * math.log2(144), abs=1e-9)

    def test_single_cluster_total_has_no_stage1(self):
        d = discretize(sample_events(), 12)
        dl = total_dl_exact(d, Binning((12,)))
        assert dl.L1 == 0.0
        assert dl.total == pytest.approx(dl.L2 + dl.L3, abs=1e-12)

    def test_decoupled_minus_total_is_the_constant_swap(self):
        d = discretize(sample_events(), 12)
        dl = total_dl_exact(d, Binning((7, 5)))
        expected = 2 * decoupled_constant(10, 12) - stage1_dl(10, 12, 2)
        assert dl.decoupled_total - dl.total == pytest.approx(expected, abs=1e-9)

    def test_per_cluster_floor(self):
        rng = np.random.default_rng(2)
        ev = random_event_set(rng, 80, 4, 4)
        d = discretize(ev, 16)
        dl = total_dl_exact(d, Binning((4, 4, 8)))
        const = decoupled_constant(80, 16)
        assert all(c >= const - 1e-9 for c in dl.per_cluster)

    def test_merge_locality(self):
        rng = np.random.default_rng(4)
        ev = random_event_set(rng, 120, 4, 4)
        d = discretize(ev, 24)
        before = total_dl_exact(d, Binning((6, 6, 6, 6)))
        after = total_dl_exact(d, Binning((6, 12, 6)))
        assert after.per_cluster[0] == before.per_cluster[0]
        assert after.per_cluster[2] == before.per_cluster[3]

    def test_appending_empty_step_changes_only_width_term(self):
        d = discretize(sample_events(), 12)
        # step 6 is empty: moving it from cluster 1 to cluster 0 changes each
        # cluster's cost by its time-multiset increment only
        a = total_dl_exact(d, Binning((6, 6)))
        b = total_dl_exact(d, Binning((7, 5)))
        delta0 = log2_multiset(7, 6) - log2_multiset(6, 6)
        delta1 = log2_multiset(5, 4) - log2_multiset(6, 4)
        assert b.per_cluster[0] - a.per_cluster[0] == pytest.approx(delta0, abs=1e-9)
        assert b.per_cluster[1] - a.per_cluster[1] == pytest.approx(delta1, abs=1e-9)

    def test_rejects_empty_cluster(self):
        d = discretize(sample_events(), 12)
        with pytest.raises(EmptyClusterError):
            total_dl_exact(d, Binning((6, 1, 5)))


class TestIntervalCostEngine:
    def test_agrees_with_public_path(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            t = int(rng.integers(1, 25))
            ev = random_event_set(rng, n, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            d = discretize(ev, t)
            eng = IntervalCostEngine(d)
            for _ in range(6):
                a = int(rng.integers(0, t))
                z = int(rng.integers(a + 1, t + 1))
                state = state_for_interval(eng, a, z)
                if state.m == 0:
                    continue  # an eventless interval is no cluster
                got = eng.interval_cost(a, z, state)
                assert got == pytest.approx(self._reference_cost(d, a, z), abs=1e-9)

    @staticmethod
    def _reference_cost(d, a, z):
        from hyperbin.combinatorics import ec_bits

        steps = d.step_of_event
        lo = int(np.searchsorted(steps, a, side="left"))
        hi = int(np.searchsorted(steps, z, side="left"))
        m = hi - lo
        base = d.base
        s_m = np.bincount(base.sources[lo:hi], minlength=base.S)
        d_m = np.bincount(base.dests[lo:hi], minlength=base.D)
        _, g = np.unique(base.sources[lo:hi] * base.D + base.dests[lo:hi], return_counts=True)
        n_m = np.bincount(steps[lo:hi] - a, minlength=z - a)
        bits = (
            decoupled_constant(base.N, d.T)
            + log2_multiset(base.S, m)
            + log2_multiset(base.D, m)
            + log2_multiset(z - a, m)
        )
        bits += ec_bits(
            tuple(int(x) for x in s_m if x > 0), tuple(int(x) for x in d_m if x > 0)
        )
        bits += ec_bits(tuple(int(x) for x in g), tuple(int(x) for x in n_m if x > 0))
        return bits

    def test_decoupled_total_matches_engine_sum(self):
        rng = np.random.default_rng(23)
        ev = random_event_set(rng, 90, 4, 3)
        d = discretize(ev, 18)
        eng = IntervalCostEngine(d)
        b = Binning((5, 5, 8))
        induce_partition(d, b)
        bounds = (0, 5, 10, 18)
        engine_total = sum(
            eng.interval_cost(bounds[k], bounds[k + 1], state_for_interval(eng, bounds[k], bounds[k + 1]))
            for k in range(3)
        )
        assert total_dl_exact(d, b).decoupled_total == pytest.approx(engine_total, abs=1e-9)

    def test_single_cluster_cost(self):
        d = discretize(sample_events(), 12)
        eng = IntervalCostEngine(d)
        assert eng.interval_cost(0, 12, state_for_interval(eng, 0, 12)) == pytest.approx(
            total_dl_exact(d, Binning((12,))).decoupled_total, abs=1e-9
        )

    def test_lgamma_table_does_not_grow_with_T(self):
        from hyperbin.encoding import TABLE_STEPS

        ev = sample_events()
        sizes = [len(IntervalCostEngine(discretize(ev, T)).lgt) for T in (12, TABLE_STEPS, 10**9)]
        assert sizes[0] < sizes[1] == sizes[2] < 2 * TABLE_STEPS
        huge = IntervalCostEngine(discretize(ev, 10**9))
        # past the table width_bits maps the scalar _width_bits over the
        # pairs; it equals the exact sum of log2(tau + i), also where a
        # difference of two lgammas cancels (it read 0 bits at 1e18)
        pairs = ((10, 20), (10, len(huge.lgt) - 10), (6, 10**9 - 7),
                 (42, 10**6), (42, 10**12), (42, 10**18))
        for m, tau in pairs:
            want = math.fsum(math.log2(tau + i) for i in range(m))
            assert abs(_width_bits(m, tau, huge.lgt) - want) <= 1e-9, (m, tau)
        # over integer arrays, broadcast as the DP does, it equals the scalar
        # function pair by pair, inside the table and past it
        m, tau = np.array(pairs).T
        got = huge.width_bits(m, np.stack([tau, tau])).tolist()
        assert got == [[_width_bits(a, b, huge.lgt) for a, b in pairs]] * 2
        # and the costs still match the public path at that T
        d = discretize(ev, 10**9)
        assert huge.interval_cost(0, d.T, state_for_interval(huge, 0, d.T)) == pytest.approx(
            total_dl_exact(d, Binning((d.T,))).decoupled_total, abs=1e-6
        )

    def test_build_memory_per_event_is_the_lgamma_table(self):
        # many events on few steps and labels: per event the engine keeps the
        # integer lgamma table only, a list (32 B an entry) and its numpy twin
        # (8 B); one more N-length list of floats would add 32 B an event
        n = 200_000
        rng = np.random.default_rng(5)
        ev = EventSet(
            sources=rng.integers(0, 3, n),
            dests=rng.integers(0, 3, n),
            times=np.sort(rng.integers(0, 4, n)).astype(float),
            source_labels=("a", "b", "c"),
            dest_labels=("x", "y", "z"),
        )
        d = discretize_on_grid(ev, 4, 0.0, 1.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eng = IntervalCostEngine(d)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(eng.lgt) > n
        assert kept / n < 64


def _snapshot(state: MarginState) -> dict:
    """Every field of a state, its dicts copied."""
    fields = {f: getattr(state, f) for f in MarginState.__slots__}
    return {f: dict(v) if isinstance(v, dict) else v for f, v in fields.items()}


@st.composite
def unit_grid_events(draw):
    """Events on a grid of unit steps. Besides mixed data, two shapes force
    the closed forms of both effective-columns terms in every interval:
    all sources distinct (every row sum 1: nr == m) and one event per
    occupied step with all destinations distinct (every column sum 1:
    nc == m)."""
    T = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["mixed", "distinct_sources", "distinct_dests"]))
    if shape == "distinct_dests":
        steps = sorted(draw(st.permutations(range(T)))[: draw(st.integers(1, T))])
        m = len(steps)
        sources = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        dests = list(range(m))
    else:
        m = draw(st.integers(1, 40))
        steps = sorted(draw(st.lists(st.integers(0, T - 1), min_size=m, max_size=m)))
        sources = (
            list(range(m)) if shape == "distinct_sources"
            else draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        )
        dests = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    ev = EventSet(
        sources=sources,
        dests=dests,
        times=[t + 0.5 for t in steps],
        source_labels=tuple(f"s{i}" for i in range(max(sources) + 1)),
        dest_labels=tuple(f"d{i}" for i in range(max(dests) + 1)),
    )
    return discretize_on_grid(ev, T, 0.0, 1.0)


@st.composite
def blocked_values(draw):
    """Values with their block indices, the values below 1, 2, 6, 256, 257,
    301 or 70,001 (a bound of 1 is a one-value alphabet)."""
    n_blocks, n = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    top = draw(st.sampled_from([0, 1, 5, 255, 256, 300, 70_000]))
    block = draw(st.lists(st.integers(0, n_blocks - 1), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return block, values, n_blocks


class TestEngineProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=blocked_values())
    @example(case=([0, 2, 2, 1, 0], [0] * 5, 3))  # a one-value alphabet
    @example(case=([0, 1, 2], [2**62, 0, 5], 3))  # block * (max value + 1) passes int64
    @example(case=([0, 0, 1, 1], [2**62, 3, 2**62, 2**62 - 1], 2))
    def test_group_counts_equals_a_per_block_counter(self, case):
        block, values, n_blocks = case
        got = _group_counts(
            np.array(block, dtype=np.int64), np.array(values, dtype=np.int64), n_blocks
        )
        want = [
            sorted(Counter(v for r, v in zip(block, values) if r == p).items())
            for p in range(n_blocks)
        ]
        assert [list(cnt.items()) for cnt in got] == want  # the same pairs, ascending
        assert all(type(x) is int for cnt in got for pair in cnt.items() for x in pair)

    @settings(max_examples=60, deadline=None)
    @given(d=unit_grid_events())
    def test_interval_cost_matches_ec_bits_reference(self, d):
        eng = IntervalCostEngine(d)
        for a in range(d.T):
            for z in range(a + 1, d.T + 1):
                state = state_for_interval(eng, a, z)
                if state.m == 0:
                    continue  # an eventless interval is no cluster
                got = eng.interval_cost(a, z, state)
                want = TestIntervalCostEngine._reference_cost(d, a, z)
                assert abs(got - want) <= 1e-9, (a, z, got, want)

    @settings(max_examples=60, deadline=None)
    @given(d=unit_grid_events(), data=st.data())
    def test_range_costs_equal_interval_cost_per_range(self, d, data):
        eng = IntervalCostEngine(d)
        built = [_snapshot(step) for step in eng.steps]
        occ = eng.occupied
        # any start in the gap before each occupied rank, any end after the last
        starts = [data.draw(st.integers(p and occ[p - 1] + 1, a)) for p, a in enumerate(occ)]
        for p1 in range(1, len(occ) + 1):
            z = data.draw(st.integers(occ[p1 - 1] + 1, occ[p1] if p1 < len(occ) else d.T))
            cost, m = eng.range_costs(starts[:p1], z)
            assert len(cost) == len(m) == p1
            for p0, a in enumerate(starts[:p1]):
                # bit for bit: both fill the range in the same order
                state = state_for_interval(eng, a, z)
                assert (cost[p0], m[p0]) == (eng.interval_cost(a, z, state), state.m)
        # every range grows a state from the steps without changing them
        assert [_snapshot(step) for step in eng.steps] == built

    @settings(max_examples=60, deadline=None)
    @given(d=unit_grid_events(), data=st.data())
    def test_merged_equals_add_counts_over_both_intervals(self, d, data):
        a, c, z = sorted(data.draw(st.lists(st.integers(0, d.T), min_size=3, max_size=3)))
        eng = IntervalCostEngine(d)
        built = [_snapshot(step) for step in eng.steps]
        left, right = state_for_interval(eng, a, c), state_for_interval(eng, c, z)
        before = [_snapshot(x) for x in (left, right)]
        got = MarginState.merged(left, right, eng.lgt)
        want = state_for_interval(eng, a, z)
        grown = state_for_interval(eng, a, c)
        grown.add_counts(right, eng.lgt)  # a state of several steps added at once
        for state in (got, grown):
            assert (state.m, state.sum_d2) == (want.m, want.sum_d2)
            assert (state.s_cnt, state.d_cnt, state.g_cnt) == (want.s_cnt, want.d_cnt, want.g_cnt)
            assert (state.s_hist, state.g_hist, state.t_hist) == (want.s_hist, want.g_hist, want.t_hist)
            assert (state.n_steps, state.sum_t2) == (want.n_steps, want.sum_t2)
            for name in ("lg_s1", "lg_d1", "lg_g1", "lg_t1"):
                assert abs(getattr(state, name) - getattr(want, name)) <= 1e-9, name
        # add_counts (left, right, want, grown) and merged (got) keep the
        # histograms equal to the count dicts' value counts, with no zero
        # entries, and the time margin equal to the steps' event counts
        counts = dict(zip(d.occupied_steps.tolist(), d.step_counts.tolist()))
        for state, lo, hi in ((left, a, c), (right, c, z), (got, a, z), (want, a, z), (grown, a, z)):
            for cnt, hist in ((state.s_cnt, state.s_hist), (state.g_cnt, state.g_hist)):
                assert hist == Counter(cnt.values())
                assert 0 not in hist and 0 not in hist.values()
            steps = [n for t, n in counts.items() if lo <= t < hi]
            assert state.t_hist == Counter(steps)
            assert (state.n_steps, state.sum_t2) == (len(steps), sum(n * n for n in steps))
            assert abs(state.lg_t1 - math.fsum(math.lgamma(n + 1) for n in steps)) <= 1e-9
        # neither merged nor add_counts changes the state it reads from
        assert [_snapshot(x) for x in (left, right)] == before
        assert [_snapshot(step) for step in eng.steps] == built
