import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    random_event_set,
    reference_dp_table,
    reference_greedy,
    reference_greedy_run,
    reference_uniform_count,
    sample_events,
    small_grids,
    solve_bruteforce,
    state_for_interval,
)
from hyperbin import (
    Binning,
    EmptyClusterError,
    EventSet,
    IntervalCostEngine,
    baseline_uniform_count,
    baseline_uniform_duration,
    discretize,
    discretize_on_grid,
    parse_events,
    solve_dp,
    solve_greedy,
    total_dl_exact,
)
from hyperbin import optimize
from hyperbin.encoding import MarginState
from hyperbin.optimize import _dp_table


def two_cluster_grid(gap, left, right):
    """`left` events at step 0 and `right` at step gap + 1, with `gap`
    eventless steps between them."""
    ev = parse_events([("a", "x", 0.5)] * left + [("b", "y", gap + 1.5)] * right)
    return discretize_on_grid(ev, gap + 2, 0.0, 1.0)


def gap_tie_grid():
    """Two clusters of 6 events, each on 2 adjacent steps, either side of a
    5-step eventless gap on a 9-step grid. Their shapes match up to label
    names, so the cut costs the same at either end of the gap in exact
    arithmetic, while width_bits rounds the two placements apart."""
    rows = (
        [("s01", "d00", 0.5), ("s00", "d00", 0.5), ("s00", "d00", 1.5)]
        + [("s01", "d01", 1.5)] * 3
        + [("s11", "d10", 7.5), ("s11", "d11", 7.5), ("s10", "d11", 7.5)]
        + [("s10", "d10", 7.5), ("s11", "d11", 8.5), ("s10", "d11", 8.5)]
    )
    return discretize_on_grid(parse_events(rows), 9, 0.0, 1.0)


def burst_pair_events(n_per_burst=100, t_hi=100.0):
    """Two bursts with disjoint edge supports separated by a long gap."""
    times = np.concatenate(
        [np.linspace(0.5, 9.5, n_per_burst), np.linspace(90.5, 99.5, n_per_burst)]
    )
    return EventSet(
        sources=np.array([0] * n_per_burst + [1] * n_per_burst),
        dests=np.array([0] * n_per_burst + [1] * n_per_burst),
        times=times,
        source_labels=("s0", "s1"),
        dest_labels=("d0", "d1"),
    )


class TestSolveDp:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(15):
            ev = random_event_set(rng, int(rng.integers(1, 16)), 3, 3)
            d = discretize(ev, int(rng.integers(1, 13)))
            r_dp, r_bf = solve_dp(d), solve_bruteforce(d)
            assert r_dp.dl.decoupled_total == pytest.approx(
                r_bf.dl.decoupled_total, abs=1e-9
            )
            assert (
                r_dp.partition.cluster_of_event.tolist()
                == r_bf.partition.cluster_of_event.tolist()
            )

    def test_all_events_in_one_timestep(self):
        ev = parse_events([("a", "x", 1.0), ("b", "y", 1.0), ("a", "y", 1.0)])
        d = discretize(ev, 5)
        res = solve_dp(d)
        assert res.K == 1 and res.binning.widths == (5,)
        assert res.eta == 1.0

    def test_two_bursts_never_share_a_cluster(self):
        d = discretize_on_grid(burst_pair_events(), 100, 0.0, 1.0)
        res = solve_dp(d)
        assert res.K >= 2
        labels = res.partition.cluster_of_event
        # a cluster boundary falls between the bursts, never inside one
        assert labels[99] != labels[100]
        assert res.eta < 1.0
        # the burst-2 cluster opens at its first event in the canonical form
        assert 90 in res.binning_canonical.bounds[:-1]

    def test_two_bursts_shrunken_oracle(self):
        times = np.array([0.5, 1.5, 2.5, 9.5, 10.5, 11.5])
        ev = EventSet(
            sources=np.array([0, 0, 0, 1, 1, 1]),
            dests=np.array([0, 0, 0, 1, 1, 1]),
            times=times,
            source_labels=("s0", "s1"),
            dest_labels=("d0", "d1"),
        )
        d = discretize_on_grid(ev, 12, 0.0, 1.0)
        r_dp, r_bf = solve_dp(d), solve_bruteforce(d)
        assert r_dp.K == 2
        assert r_dp.dl.decoupled_total == pytest.approx(r_bf.dl.decoupled_total, abs=1e-9)
        assert r_dp.partition.sizes.tolist() == r_bf.partition.sizes.tolist() == [3, 3]

    def test_deterministic(self):
        rng = np.random.default_rng(101)
        ev = random_event_set(rng, 60, 4, 4)
        d = discretize(ev, 30)
        a, b = solve_dp(d), solve_dp(d)
        assert a.binning == b.binning
        assert a.dl.decoupled_total == b.dl.decoupled_total

    def test_thread_safe_on_shared_input(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(107)
        ev = random_event_set(rng, 120, 4, 4)
        d = discretize(ev, 40)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: solve_dp(d), range(8)))
        assert all(r.binning == results[0].binning for r in results)
        assert all(r.dl.decoupled_total == results[0].dl.decoupled_total for r in results)

    def test_eta_at_most_one(self):
        rng = np.random.default_rng(102)
        for _ in range(10):
            ev = random_event_set(rng, int(rng.integers(1, 40)), 3, 3)
            d = discretize(ev, int(rng.integers(1, 20)))
            assert solve_dp(d).eta <= 1.0

    def test_prefix_values_match_independent_recomputation(self):
        import itertools
        import math

        from hyperbin.encoding import IntervalCostEngine

        rng = np.random.default_rng(106)
        ev = random_event_set(rng, 20, 3, 3)
        d = discretize(ev, 10)
        eng = IntervalCostEngine(d)
        best, _ = _dp_table(eng)
        cum = np.concatenate([[0], np.cumsum(d.events_in_step)])
        # the table holds 0, T and both ends of every eventless gap
        occ = eng.occupied
        gap_ends = {e for a, z in zip(occ, occ[1:]) for e in (a + 1, z)}
        assert set(best) == {0, d.T} | gap_ends
        assert best[0] == 0.0
        for j in sorted(best)[1:]:
            ref = math.inf
            for cut_count in range(j):
                for cuts in itertools.combinations(range(1, j), cut_count):
                    bounds = (0,) + cuts + (j,)
                    if any(
                        cum[bounds[i]] == cum[bounds[i + 1]]
                        for i in range(len(bounds) - 1)
                    ):
                        continue
                    total = sum(
                        eng.interval_cost(a, z, state_for_interval(eng, a, z))
                        for a, z in zip(bounds, bounds[1:])
                    )
                    ref = min(ref, total)
            assert best[j] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("gap", [1, 2, 5])
    @pytest.mark.parametrize("left, right", [(5, 5), (2, 8), (8, 2)])
    def test_gap_goes_to_the_smaller_cluster_and_ties_keep_the_smallest_start(
        self, gap, left, right
    ):
        # the eventless gap joins the cluster with fewer events; two clusters
        # of equal shape cost the same with the cut at either end of it, and
        # the tie goes to the longest final cluster
        d = two_cluster_grid(gap, left, right)
        expected = (gap + 1, 1) if left < right else (1, gap + 1)
        assert solve_dp(d).binning.widths == expected
        assert _dp_table(IntervalCostEngine(d)) == reference_dp_table(IntervalCostEngine(d))

    def test_a_tie_within_tie_bits_gives_the_gap_to_the_later_cluster(self):
        # float rounding alone would cut at step 7, widths (7, 2)
        d = gap_tie_grid()
        res = solve_dp(d)
        assert res.binning.widths == (2, 7)
        tied = total_dl_exact(d, Binning((7, 2))).decoupled_total
        assert abs(res.dl.decoupled_total - tied) <= optimize.TIE_BITS

    def test_interval_evaluations_do_not_grow_with_T(self, monkeypatch):
        from hyperbin.encoding import IntervalCostEngine

        calls = []
        original = IntervalCostEngine.interval_cost

        def counted(self, a, z, state):
            calls.append((a, z))
            return original(self, a, z, state)

        monkeypatch.setattr(IntervalCostEngine, "interval_cost", counted)
        rng = np.random.default_rng(108)
        steps = [0, 1, 4, 9, 10, 17, 30]
        ev = EventSet(
            sources=rng.integers(0, 3, 40),
            dests=rng.integers(0, 3, 40),
            times=np.sort(rng.choice(steps, 40)) + 0.5,
            source_labels=("a", "b", "c"),
            dest_labels=("x", "y", "z"),
        )
        P = len(steps)
        positions = []
        for T in (40, 320):
            calls.clear()
            d = discretize_on_grid(ev, T, 0.0, 1.0)
            assert int(np.count_nonzero(d.events_in_step)) == P
            solve_dp(d)
            assert len(calls) == P * (P + 1) // 2
            best, _ = _dp_table(IntervalCostEngine(d))
            positions.append(set(best) - {T})
        assert positions[0] == positions[1]

    def test_results_compare_without_raising(self):
        d = discretize_on_grid(burst_pair_events(), 100, 0.0, 1.0)
        a, b = solve_dp(d), solve_dp(d)
        b = dataclasses.replace(b, runtime_seconds=a.runtime_seconds)
        assert a.partition is not b.partition
        assert a == b and hash(a) == hash(b)


class TestDpProperties:
    @settings(max_examples=200, deadline=None)
    @given(d=small_grids(max_T=60))
    @example(d=two_cluster_grid(2, 5, 5))  # an exact two-way tie
    @example(d=discretize_on_grid(parse_events([("a", "x", 2.5), ("b", "y", 5.5)]), 9, 0.0, 1.0))
    @example(d=gap_tie_grid())  # a tie that float rounding breaks the other way
    def test_dp_table_equals_the_loop_oracle(self, d):
        # equal, not approximately: the min-plus adds the same floats in the
        # same order as the loop and breaks ties the same way
        assert _dp_table(IntervalCostEngine(d)) == reference_dp_table(IntervalCostEngine(d))

    @settings(max_examples=60, deadline=None)
    @given(d=small_grids())
    def test_dp_equals_bruteforce(self, d):
        r_dp, r_bf = solve_dp(d), solve_bruteforce(d)
        assert abs(r_dp.dl.decoupled_total - r_bf.dl.decoupled_total) <= 1e-9
        assert (
            r_dp.partition.cluster_of_event.tolist()
            == r_bf.partition.cluster_of_event.tolist()
        )
        # on every binning the brute force scores, the engine's cost of each
        # cluster is the per_cluster cost the result reports
        eng = IntervalCostEngine(d)
        for K in range(1, d.T + 1):
            for cuts in itertools.combinations(range(1, d.T), K - 1):
                bounds = (0, *cuts, d.T)
                spans = list(zip(bounds, bounds[1:]))
                states = [state_for_interval(eng, a, z) for a, z in spans]
                if min(state.m for state in states) == 0:
                    continue  # an eventless cluster: no binning to report
                costs = [eng.interval_cost(a, z, state) for (a, z), state in zip(spans, states)]
                reported = total_dl_exact(d, Binning(tuple(z - a for a, z in spans))).per_cluster
                assert max(abs(x - y) for x, y in zip(costs, reported)) <= 1e-9, bounds

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_row_order_does_not_change_the_optimum(self, data):
        # label ids follow first appearance and tied times keep input order,
        # so a shuffle can swap tied partitions but not the optimal value
        record = st.tuples(
            st.sampled_from("abc"), st.sampled_from("xyz"), st.integers(0, 9).map(float)
        )
        records = data.draw(st.lists(record, min_size=1, max_size=15))
        shuffled = data.draw(st.permutations(records))
        T = data.draw(st.integers(1, 10))
        dl = [
            solve_dp(discretize(parse_events(rows), T)).dl.decoupled_total
            for rows in (records, shuffled)
        ]
        assert abs(dl[0] - dl[1]) <= 1e-9


def _relabeled(d, source_perm, dest_perm):
    """d with source i renamed to source_perm[i], label included, and the
    same for destinations."""
    base = d.base
    source_labels, dest_labels = [None] * base.S, [None] * base.D
    for i, j in enumerate(source_perm):
        source_labels[j] = base.source_labels[i]
    for i, j in enumerate(dest_perm):
        dest_labels[j] = base.dest_labels[i]
    ev = EventSet(
        sources=np.asarray(source_perm)[base.sources],
        dests=np.asarray(dest_perm)[base.dests],
        times=base.times,
        source_labels=tuple(source_labels),
        dest_labels=tuple(dest_labels),
    )
    return discretize_on_grid(ev, d.T, d.origin, d.delta_t)


def _mirrored(d):
    """d on the unit grid with step s moved to T - 1 - s and the events reversed."""
    base = d.base
    ev = EventSet(
        sources=base.sources[::-1],
        dests=base.dests[::-1],
        times=(d.T - 1 - d.step_of_event[::-1]) + 0.5,
        source_labels=base.source_labels,
        dest_labels=base.dest_labels,
    )
    return discretize_on_grid(ev, d.T, 0.0, 1.0)


class TestInvariance:
    # the optimum's value does not depend on how nodes are named or which way
    # time runs; greedy's gap and tie rules read left to right, so only the
    # relabeling holds for it

    @settings(max_examples=300, deadline=None)
    @given(d=small_grids(), data=st.data())
    def test_relabeling_keeps_the_dl(self, d, data):
        source_perm = data.draw(st.permutations(range(d.base.S)))
        dest_perm = data.draw(st.permutations(range(d.base.D)))
        r = _relabeled(d, source_perm, dest_perm)
        for solve in (solve_dp, solve_greedy):
            assert abs(solve(r).dl.decoupled_total - solve(d).dl.decoupled_total) <= 1e-9
        best = solve_dp(d).dl.decoupled_total
        assert abs(total_dl_exact(d, solve_dp(r).binning).decoupled_total - best) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(d=small_grids())
    def test_mirroring_keeps_the_dp_optimum(self, d):
        fit, best = solve_dp(_mirrored(d)), solve_dp(d).dl.decoupled_total
        assert abs(fit.dl.decoupled_total - best) <= 1e-9
        reversed_widths = Binning(fit.binning.widths[::-1])
        assert abs(total_dl_exact(d, reversed_widths).decoupled_total - best) <= 1e-9


class TestSolveGreedy:
    def test_single_timestep_collapses_immediately(self):
        ev = parse_events([("a", "x", 1.0), ("b", "y", 1.0)])
        d = discretize(ev, 4)
        res = solve_greedy(d)
        assert res.K == 1 and res.binning.widths == (4,)

    def test_never_beats_dp(self):
        rng = np.random.default_rng(103)
        for _ in range(12):
            ev = random_event_set(rng, int(rng.integers(2, 60)), 4, 4)
            d = discretize(ev, int(rng.integers(2, 30)))
            assert solve_greedy(d).dl.decoupled_total >= solve_dp(d).dl.decoupled_total - 1e-9

    def test_eta_at_most_one(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            ev = random_event_set(rng, int(rng.integers(1, 50)), 3, 3)
            d = discretize(ev, int(rng.integers(1, 25)))
            assert solve_greedy(d).eta <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(105)
        ev = random_event_set(rng, 80, 4, 4)
        d = discretize(ev, 40)
        a, b = solve_greedy(d), solve_greedy(d)
        assert a.binning == b.binning
        assert a.dl.decoupled_total == b.dl.decoupled_total

    def test_separates_clean_bursts(self):
        d = discretize_on_grid(burst_pair_events(), 100, 0.0, 1.0)
        res = solve_greedy(d)
        assert res.K >= 2
        labels = res.partition.cluster_of_event
        assert labels[99] != labels[100]

    @settings(max_examples=1000, deadline=None)
    @given(d=small_grids())
    # (1, 2) and (3,) tie at log2(432) bits, 1 ulp apart once summed
    @example(d=discretize_on_grid(parse_events([("a", "x", 0.5)] * 5 + [("a", "x", 1.5)] * 2), 3, 0.0, 1.0))
    def test_equals_reference_greedy(self, d):
        widths, dl = reference_greedy(d)
        res = solve_greedy(d)
        assert res.binning.widths == widths
        assert abs(res.dl.decoupled_total - dl) <= 1e-9

    def test_merges_a_pair_it_just_rescored_without_rebuilding_it(self, monkeypatch):
        # every initial pair is scored once and every pair next to a merge
        # is rescored; a merge builds a new state only when its pair was not
        # among those rescored right before it
        rng = np.random.default_rng(113)
        d = discretize(random_event_set(rng, 300, 6, 5), 60)
        widths, dl, merges = reference_greedy_run(d)
        n = len(merges) + 1  # initial clusters
        expected, reused, rescored = n - 1, 0, set()
        for i, k in enumerate(merges):
            if k in rescored:
                reused += 1
            else:
                expected += 1
            rescored = {j for j in (k - 1, k) if 0 <= j < n - i - 2}
            expected += len(rescored)
        assert reused > 0

        calls = []
        merged = MarginState.merged

        def counting(a, b, lgt):
            calls.append(None)
            return merged(a, b, lgt)

        monkeypatch.setattr(MarginState, "merged", staticmethod(counting))
        res = solve_greedy(d)
        assert len(calls) == expected
        assert res.binning.widths == widths
        assert abs(res.dl.decoupled_total - dl) <= 1e-9

    def test_rescores_the_pairs_next_to_each_merge(self):
        # clusters start at steps 0, 1, 2, 7, 8. The first two merges
        # (7 with 8, then 2 with both) change a neighbour of the best
        # remaining pair, steps 0 and 1; a greedy that drops that pair from
        # its candidates ends at the single bin (9,), 41.32 bits, instead
        # of the optimum (2, 7), 40.73 bits
        steps = [0, 0, 1, 1, 1, 1, 6, 7, 8]
        ev = EventSet(
            sources=[0, 0, 2, 2, 2, 2, 2, 1, 0],
            dests=[0, 0, 1, 1, 1, 0, 1, 1, 1],
            times=[t + 0.5 for t in steps],
            source_labels=("s0", "s1", "s2"),
            dest_labels=("d0", "d1"),
        )
        d = discretize_on_grid(ev, 9, 0.0, 1.0)
        res = solve_greedy(d)
        assert res.binning.widths == (2, 7) == reference_greedy(d)[0]
        assert res.dl.decoupled_total == pytest.approx(solve_dp(d).dl.decoupled_total, abs=1e-9)

    def test_equal_changes_merge_the_leftmost_pair(self):
        # one event per step: step 1 shares its source with step 0 and its
        # destination with step 2. With S = D the two pairs are mirror images
        # (sources and destinations swapped), so their merge changes are
        # bit-equal; merging the leftmost gives (2, 1), the last one (1, 2)
        ev = EventSet(
            sources=[0, 0, 1],
            dests=[1, 0, 0],
            times=[0.5, 1.5, 2.5],
            source_labels=("s0", "s1"),
            dest_labels=("d0", "d1"),
        )
        d = discretize_on_grid(ev, 3, 0.0, 1.0)
        eng = IntervalCostEngine(d)

        def cost(a, z):
            return eng.interval_cost(a, z, state_for_interval(eng, a, z))

        left = cost(0, 2) - cost(0, 1) - cost(1, 2)
        right = cost(1, 3) - cost(1, 2) - cost(2, 3)
        assert left == right
        assert left < 0 and cost(0, 3) > cost(0, 2) + cost(2, 3)  # K=2 is best
        assert solve_greedy(d).binning.widths == (2, 1) == reference_greedy(d)[0]

    def test_peak_memory_per_event_is_bounded(self):
        # 10k random events on 1988 occupied steps over 100 x 100 labels, so
        # the merges meet hundreds of distinct edge counts (413). The search
        # keeps one state per occupied step and nothing per edge count, about
        # 630 B an event at its peak; a prefix row over the occupied steps
        # per edge count would add about 660 B more
        n = 10_000
        rng = np.random.default_rng(7)
        ev = EventSet(
            sources=rng.integers(0, 100, n),
            dests=rng.integers(0, 100, n),
            times=np.sort(rng.integers(0, 2000, n)).astype(float),
            source_labels=tuple(f"s{i}" for i in range(100)),
            dest_labels=tuple(f"d{i}" for i in range(100)),
        )
        d = discretize_on_grid(ev, 2000, 0.0, 1.0)
        tracemalloc.start()
        try:
            solve_greedy(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.occupied_steps) == 1988
        assert peak / n < 900


class TestBruteforce:
    def test_t_one(self):
        ev = parse_events([("a", "x", 1.0)])
        d = discretize(ev, 1)
        assert solve_bruteforce(d).binning.widths == (1,)

    def test_skips_empty_compositions(self):
        # events in steps 0 and 2 of T=3: compositions with an empty middle
        # cluster are invalid, leaving (3), (1,2), (2,1)
        ev = parse_events([("a", "x", 0.0), ("b", "y", 2.0)])
        d = discretize_on_grid(ev, 3, 0.0, 1.0)
        res = solve_bruteforce(d)
        assert res.binning.widths in ((3,), (1, 2), (2, 1))

    def test_refuses_large_t(self):
        rng = np.random.default_rng(1)
        ev = random_event_set(rng, 10, 2, 2)
        with pytest.raises(ValueError):
            solve_bruteforce(discretize(ev, 15))


class TestBaselines:
    def test_uniform_duration_even_split(self):
        d = discretize(sample_events(), 12)
        assert baseline_uniform_duration(d, 2).binning.widths == (6, 6)

    def test_uniform_duration_remainder_left_to_right(self):
        rng = np.random.default_rng(6)
        ev = random_event_set(rng, 200, 3, 3)
        d = discretize(ev, 13)
        assert baseline_uniform_duration(d, 4).binning.widths == (4, 3, 3, 3)

    def test_uniform_duration_k1_reference(self):
        d = discretize(sample_events(), 12)
        res = baseline_uniform_duration(d, 1)
        assert res.eta == 1.0

    def test_uniform_duration_empty_cluster(self):
        ev = parse_events([("a", "x", 0.0), ("b", "y", 11.0)])
        d = discretize_on_grid(ev, 12, 0.0, 1.0)
        with pytest.raises(EmptyClusterError):
            baseline_uniform_duration(d, 3)  # middle third holds no events

    def test_uniform_count_even_ranks(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.random(10) * 99)
        ev = EventSet(
            sources=rng.integers(0, 3, 10),
            dests=rng.integers(0, 3, 10),
            times=times,
            source_labels=("a", "b", "c"),
            dest_labels=("x", "y", "z"),
        )
        d = discretize(ev, 100)  # all events land in distinct steps
        res = baseline_uniform_count(d, 2)
        assert res.partition.sizes.tolist() == [5, 5]
        res4 = baseline_uniform_count(d, 4)
        assert res4.partition.sizes.tolist() == [3, 2, 3, 2]

    def test_uniform_count_k1(self):
        d = discretize(sample_events(), 12)
        assert baseline_uniform_count(d, 1).eta == 1.0

    def test_uniform_count_tie_shifts_right(self):
        # events 4..6 share a timestep, so the K=2 boundary after rank 5 must
        # slide right past the tie
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 7.0, 8.0, 9.0]
        ev = parse_events([("a", "x", t) for t in times])
        d = discretize_on_grid(ev, 10, 0.0, 1.0)
        res = baseline_uniform_count(d, 2)
        assert res.partition.sizes.tolist() == [7, 3]

    @settings(max_examples=200, deadline=None)
    @given(d=small_grids())
    # the K=2 boundary slides past the last event: "cannot place boundary 1"
    @example(d=discretize_on_grid(
        parse_events([("a", "x", t) for t in (0.5, 1.5, 1.5, 1.5, 1.5)]), 2, 0.0, 1.0
    ))
    def test_uniform_count_equals_the_event_scan(self, d):
        # every K from 1 to one past the occupied steps, where both refuse
        for K in range(1, len(d.occupied_steps) + 2):
            try:
                want = reference_uniform_count(d, K)
            except EmptyClusterError as exc:
                with pytest.raises(EmptyClusterError) as got:
                    baseline_uniform_count(d, K)
                assert str(got.value) == str(exc)
            else:
                assert baseline_uniform_count(d, K).binning.widths == want

    def test_uniform_count_infeasible_k(self):
        ev = parse_events([("a", "x", 1.0), ("b", "y", 1.0)])
        d = discretize(ev, 6)
        with pytest.raises(EmptyClusterError):
            baseline_uniform_count(d, 2)  # only one event-bearing timestep

    def test_exact_never_worse(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            ev = random_event_set(rng, 60, 3, 3)
            d = discretize(ev, 20)
            best = solve_dp(d)
            for fn in (baseline_uniform_duration, baseline_uniform_count):
                try:
                    res = fn(d, best.K)
                except (ValueError, EmptyClusterError):
                    continue
                assert best.eta <= res.eta + 1e-12


class TestSingleClusterReference:
    def test_reported_dl_makes_no_interval_cost_call(self, monkeypatch):
        d = discretize_on_grid(burst_pair_events(), 100, 0.0, 1.0)
        real, calls = IntervalCostEngine.interval_cost, []

        def counting(eng, a, z, state):
            calls.append((a, z))
            return real(eng, a, z, state)

        monkeypatch.setattr(IntervalCostEngine, "interval_cost", counting)
        b = Binning((50, 50))
        total_dl_exact(d, b)
        optimize._finish(d, b, "uniform_duration", 0.0)  # the K=1 reference too
        assert calls == []
        solve_dp(d)  # the counter sees the optimizers' calls
        assert calls
