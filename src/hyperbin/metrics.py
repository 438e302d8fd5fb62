"""Evaluation measures for inferred binnings.

Inverse compression ratio against the single-bin code, contiguity-corrected
adjusted mutual information between event partitions, the temporal event gap
ratio and the normalized edge Jensen-Shannon divergence across snapshots.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .events import EventPartition, EventSet, HypergraphSnapshot
from .synth import as_generator, sample_positive_composition


def eta_ratio(dl: float, single_dl: float) -> float:
    """Inverse compression ratio: `dl` over `single_dl`, the decoupled
    description length of the single-cluster binning. A zero-bit reference
    happens only for the fully degenerate N=S=D=T=1 dataset, where the
    single binning describes itself, so eta is 1 there."""
    return dl / single_dl if single_dl > 0 else 1.0


def _entropy_bits(sizes: np.ndarray, n: int) -> float:
    return float(-np.sum(sizes / n * np.log2(sizes / n)))


def _mi_bits(sizes_a: np.ndarray, sizes_b: np.ndarray) -> float:
    # contiguous partitions: the joint distribution comes from overlaying
    # the two boundary sets
    n = int(sizes_a.sum())
    ends = np.union1d(np.cumsum(sizes_a), np.cumsum(sizes_b))
    joint = np.diff(np.concatenate([[0], ends]))
    return (
        _entropy_bits(sizes_a, n)
        + _entropy_bits(sizes_b, n)
        - _entropy_bits(joint, n)
    )


def ccami(a: EventPartition, b: EventPartition, samples: int = 100, rng=None) -> float:
    """Contiguity-corrected adjusted mutual information between partitions.

    (MI - <MI>_c) / (max(H_a, H_b) - <MI>_c), with <MI>_c the mean mutual
    information over `samples` pairs of uniformly random contiguous
    partitions with the same cluster counts. One shared sample set serves
    both orders, so the measure is exactly symmetric for a fixed seed.
    Degenerate cases: two single-cluster partitions compare at 1, a
    single-cluster against anything else at 0.
    """
    if a.N != b.N:
        raise ValueError(f"partitions cover {a.N} and {b.N} events")
    if samples < 1:
        raise ValueError(f"ccami needs samples >= 1, got {samples}")
    if a.K == 1 and b.K == 1:
        return 1.0
    if a.K == 1 or b.K == 1:
        return 0.0
    rng = as_generator(rng)
    mi = _mi_bits(a.sizes, b.sizes)
    h_max = max(_entropy_bits(a.sizes, a.N), _entropy_bits(b.sizes, b.N))
    k_lo, k_hi = sorted((a.K, b.K))
    acc = 0.0
    for _ in range(samples):
        x = sample_positive_composition(a.N, k_lo, rng)
        y = sample_positive_composition(a.N, k_hi, rng)
        acc += _mi_bits(x, y)
    mean_mi = acc / samples
    num = mi - mean_mi
    den = h_max - mean_mi
    if num == den:  # MI saturates its bound: identical information content
        return 1.0
    if den <= 0:
        return 0.0
    return num / den


def gap_ratio_alpha(ev: EventSet, p: EventPartition) -> float | None:
    """Median within-cluster inter-event time over median between-cluster
    inter-event time, on raw event times. Undefined (None) for K=1; +inf
    when boundary gaps have zero median but interior gaps do not."""
    if p.N != ev.N:
        raise ValueError(f"partition covers {p.N} events but the data has {ev.N}")
    if p.K < 2:
        return None
    gaps = np.diff(ev.times)
    same = np.diff(p.cluster_of_event) == 0
    within = gaps[same]
    between = gaps[~same]
    w_med = float(np.median(within)) if len(within) else 0.0
    b_med = float(np.median(between))
    if b_med == 0:
        return math.inf if w_med > 0 else 1.0
    return w_med / b_med


def _entropy_of_weights(weights, total: int) -> float:
    acc = 0.0
    for w in weights:
        if w > 0:
            q = w / total
            acc -= q * math.log2(q)
    return acc


def jsd_edges(snaps: Sequence[HypergraphSnapshot]) -> float:
    """Normalized generalized Jensen-Shannon divergence of edge identities.

    1 minus the weighted mean per-snapshot edge entropy over the entropy of
    the aggregated edge distribution; 0 when snapshots look like the
    aggregate, 1 when each snapshot is concentrated on its own edges.
    """
    if not snaps:
        raise ValueError("need at least one snapshot")
    n = sum(s.m_k for s in snaps)
    pooled: dict[tuple[int, int], int] = {}
    for s in snaps:
        for e, w in s.edges.items():
            pooled[e] = pooled.get(e, 0) + w
    h0 = _entropy_of_weights(pooled.values(), n)
    if h0 == 0:
        return 0.0
    mix = 0.0
    for s in snaps:
        mix += (s.m_k / n) * _entropy_of_weights(s.edges.values(), s.m_k)
    return min(1.0, max(0.0, 1.0 - mix / h0))

