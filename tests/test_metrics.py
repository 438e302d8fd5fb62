import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_event_set
from hyperbin import (
    Binning,
    EventPartition,
    build_snapshot,
    ccami,
    discretize,
    gap_ratio_alpha,
    jsd_edges,
    parse_events,
)
from hyperbin.synth import sample_positive_composition


def partition(sizes):
    return EventPartition(sizes)


class TestCcami:
    def test_identical_partitions(self):
        p = partition([3, 5, 2])
        assert ccami(p, p, rng=0) == 1.0

    def test_both_single_cluster(self):
        assert ccami(partition([10]), partition([10])) == 1.0

    def test_one_single_cluster(self):
        assert ccami(partition([10]), partition([5, 5])) == 0.0

    def test_exactly_symmetric(self):
        a, b = partition([400, 600]), partition([100, 500, 400])
        assert ccami(a, b, rng=42) == ccami(b, a, rng=42)

    def test_independent_partitions_center_near_zero(self):
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(200):
            a = partition(sample_positive_composition(1000, 5, rng))
            b = partition(sample_positive_composition(1000, 5, rng))
            vals.append(ccami(a, b, rng=rng))
        assert abs(float(np.mean(vals))) <= 0.05

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = partition(sample_positive_composition(300, 4, rng))
            b = partition(sample_positive_composition(300, 6, rng))
            assert ccami(a, b, rng=rng) <= 1.0

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            ccami(partition([5, 5]), partition([4, 4]))

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            ccami(partition([3, 5, 2]), partition([4, 6]), samples=samples, rng=0)

    def test_skewed_self_comparison_still_one(self):
        p = partition([999, 1])
        assert ccami(p, p, rng=0) == 1.0


class TestGapRatioAlpha:
    def test_worked_example(self):
        ev = parse_events([("a", "x", t) for t in (1, 2, 3, 10, 11, 12)])
        alpha = gap_ratio_alpha(ev, partition([3, 3]))
        assert alpha == pytest.approx(1 / 7, abs=1e-12)

    def test_periodic_events(self):
        ev = parse_events([("a", "x", float(t)) for t in range(10)])
        assert gap_ratio_alpha(ev, partition([4, 6])) == 1.0

    def test_single_cluster_undefined(self):
        ev = parse_events([("a", "x", 1.0), ("a", "x", 2.0)])
        assert gap_ratio_alpha(ev, partition([2])) is None

    def test_zero_boundary_gap(self):
        ev = parse_events([("a", "x", 0.0), ("b", "x", 1.0), ("c", "x", 1.0)])
        assert gap_ratio_alpha(ev, partition([2, 1])) == math.inf

    def test_localized_clusters_below_one(self):
        ev = parse_events(
            [("a", "x", t) for t in (0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 9.0, 9.1)]
        )
        assert gap_ratio_alpha(ev, partition([3, 3, 2])) < 1.0


class TestJsdEdges:
    def _snapshots(self, binning, rows, t):
        ev = parse_events(rows)
        d = discretize(ev, t)
        return [build_snapshot(d, binning, k) for k in range(binning.K)]

    def test_single_snapshot_zero(self):
        rng = np.random.default_rng(1)
        ev = random_event_set(rng, 50, 4, 4)
        d = discretize(ev, 10)
        snaps = [build_snapshot(d, Binning((10,)), 0)]
        assert jsd_edges(snaps) == 0.0

    def test_disjoint_point_masses(self):
        rows = [("a", "x", 0.0), ("a", "x", 1.0), ("b", "y", 8.0), ("b", "y", 9.0)]
        snaps = self._snapshots(Binning((5, 5)), rows, 10)
        assert jsd_edges(snaps) == pytest.approx(1.0, abs=1e-12)

    def test_identical_distributions_zero(self):
        rows = [
            ("a", "x", 0.0), ("b", "y", 1.0),
            ("a", "x", 8.0), ("b", "y", 9.0),
        ]
        snaps = self._snapshots(Binning((5, 5)), rows, 10)
        assert jsd_edges(snaps) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_edge(self):
        rows = [("a", "x", 0.0), ("a", "x", 5.0), ("a", "x", 9.0)]
        snaps = self._snapshots(Binning((5, 5)), rows, 10)
        assert jsd_edges(snaps) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), k=st.integers(2, 5))
    def test_bounded(self, seed, k):
        rng = np.random.default_rng(seed)
        ev = random_event_set(rng, 60, 4, 4)
        d = discretize(ev, 5 * k)
        binning = Binning((5,) * k)
        try:
            snaps = [build_snapshot(d, binning, j) for j in range(k)]
        except ValueError:
            return
        assert 0.0 <= jsd_edges(snaps) <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            jsd_edges([])

