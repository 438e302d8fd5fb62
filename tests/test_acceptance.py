"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured values (run with -s to see them all).

Shared instance suites are computed once in session-scoped fixtures. Seeds
are pinned throughout; run `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from helpers import count_margin_matrices, nonzero, random_event_set, solve_bruteforce
from hyperbin import (
    EmptyClusterError,
    SynthParams,
    baseline_uniform_count,
    baseline_uniform_duration,
    ccami,
    discretize,
    gap_ratio_alpha,
    generate_synthetic,
    jsd_edges,
    parse_events,
    sample_contingency_table,
    sample_positive_composition,
    sample_weak_composition,
    solve_dp,
    solve_greedy,
    build_snapshot,
    induce_partition,
    Binning,
    EventPartition,
)
from hyperbin.combinatorics import ec_bits


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared suites


@pytest.fixture(scope="session")
def oracle_suite():
    """50 small random instances solved by DP, brute force, and greedy."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    out = []
    for _ in range(50):
        n = int(rng.integers(1, 16))
        t = int(rng.integers(1, 13))
        ev = random_event_set(rng, n, 3, 3)
        d = discretize(ev, t)
        out.append((d, solve_dp(d), solve_bruteforce(d), solve_greedy(d)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def recon_suite():
    """Reconstruction grid: K=5, T=100, S=D=5, 10 reps per cell."""
    cells = {}
    for n in (200, 1000):
        for gamma in (1e-3, 1e-1, 1.0):
            runs = []
            for rep in range(10):
                params = SynthParams(
                    N=n, T=100, K=5, S=5, D=5, gamma=gamma, seed=3000 + rep
                )
                res = generate_synthetic(params)
                fit = solve_dp(res.discretized)
                greedy = solve_greedy(res.discretized)
                acc = ccami(
                    fit.partition,
                    res.partition,
                    rng=np.random.default_rng([3000 + rep, 7]),
                )
                runs.append((res, fit, greedy, acc))
            cells[(n, gamma)] = runs
    return cells


@pytest.fixture(scope="session")
def t_insensitivity_suite():
    """Same raw event times re-discretized at T=50 and T=500, 10 reps."""
    pairs = []
    for rep in range(10):
        params = SynthParams(N=100, T=500, K=5, S=5, D=5, gamma=0.1, seed=6000 + rep)
        ev = generate_synthetic(params).events
        d50 = discretize(ev, 50)
        d500 = discretize(ev, 500)
        pairs.append((solve_dp(d50), solve_greedy(d50), solve_dp(d500), solve_greedy(d500)))
    return pairs


@pytest.fixture(scope="session")
def scaling_suite():
    """Runtimes over T in {100, 200, 400, 800} at fixed N=500.

    The raw event times come from a coarse bursty generator grid and are
    re-discretized at each T, so the timestep count grows while the distinct
    event times stay fixed (the regime the quadratic-cost analysis of the
    dynamic program addresses).
    """
    t_values = (100, 200, 400, 800)
    dp_means, greedy_means = [], []
    for t in t_values:
        dp_times, greedy_times = [], []
        for rep in range(8):
            params = SynthParams(N=500, T=12, K=5, S=5, D=5, gamma=1e-3, seed=5000 + rep)
            ev = generate_synthetic(params).events
            d = discretize(ev, t)
            dp_times.append(solve_dp(d).runtime_seconds)
            greedy_times.append(solve_greedy(d).runtime_seconds)
        dp_means.append(float(np.mean(dp_times)))
        greedy_means.append(float(np.mean(greedy_times)))
    return t_values, dp_means, greedy_means


def log_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_oracle_equivalence(oracle_suite):
    instances, build_seconds = oracle_suite
    worst = 0.0
    for d, r_dp, r_bf, _ in instances:
        worst = max(worst, abs(r_dp.dl.decoupled_total - r_bf.dl.decoupled_total))
        assert (
            r_dp.partition.cluster_of_event.tolist()
            == r_bf.partition.cluster_of_event.tolist()
        )
    report(
        "criterion 1 (oracle equivalence)",
        worst <= 1e-9 and build_seconds < 60.0,
        f"50 instances, worst DL gap {worst:.2e} bits, partitions identical, "
        f"{build_seconds:.1f}s",
    )


def test_criterion_2_omega_estimator_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240502)
    worst_abs, worst_frac = 0.0, 0.0
    for _ in range(100):
        nr, nc = rng.integers(1, 6, size=2)
        total = int(rng.integers(1, 21))
        rows = nonzero(np.bincount(rng.integers(0, nr, total), minlength=nr))
        cols = nonzero(np.bincount(rng.integers(0, nc, total), minlength=nc))
        exact = math.log2(count_margin_matrices(rows, cols))
        err = abs(ec_bits(rows, cols) - exact)
        assert err <= max(0.5, 0.05 * exact)
        worst_abs = max(worst_abs, err)
    # exact identities
    assert ec_bits((3, 2), (5,)) == 0.0
    unit_rows = ((1,) * 6, (3, 2, 1))
    assert ec_bits(*unit_rows) == pytest.approx(
        math.log2(count_margin_matrices(*unit_rows)), abs=1e-12
    )
    assert count_margin_matrices((4, 0, 2), (4, 2)) == count_margin_matrices((4, 2), (4, 2))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (matrix-count estimator)",
        elapsed < 10.0,
        f"100 margins, worst error {worst_abs:.3f} bits, identities exact, {elapsed:.1f}s",
    )


def test_criterion_3_reconstruction_trends(recon_suite):
    gammas = (1e-3, 1e-1, 1.0)
    mean_eta = {
        (n, g): float(np.mean([fit.eta for _, fit, _, _ in recon_suite[(n, g)]]))
        for n in (200, 1000)
        for g in gammas
    }
    mean_acc = {
        (n, g): float(np.mean([acc for _, _, _, acc in recon_suite[(n, g)]]))
        for n in (200, 1000)
        for g in gammas
    }
    increasing = all(
        mean_eta[(n, gammas[i])] < mean_eta[(n, gammas[i + 1])]
        for n in (200, 1000)
        for i in range(2)
    )
    more_events_compress_better = mean_eta[(1000, 1e-3)] <= mean_eta[(200, 1e-3)]
    low_noise_recovery = mean_acc[(1000, 1e-3)] >= 0.7
    ok = increasing and more_events_compress_better and low_noise_recovery
    report(
        "criterion 3 (reconstruction trends)",
        ok,
        f"eta increasing in gamma: {increasing}; "
        f"eta(N=1000)={mean_eta[(1000, 1e-3)]:.3f} <= eta(N=200)={mean_eta[(200, 1e-3)]:.3f} "
        f"at gamma=1e-3: {more_events_compress_better}; "
        f"CCAMI(gamma=1e-3, N=1000)={mean_acc[(1000, 1e-3)]:.3f} >= 0.7: {low_noise_recovery}",
    )


def test_criterion_3_high_noise_ccami_falls_to_chance(recon_suite):
    """Known failing: reconstruction is required to collapse (mean CCAMI
    <= 0.3) at gamma=1, but a unit-concentration Dirichlet still gives each
    planted cluster a strongly skewed degree profile, which stays
    statistically identifiable at these sizes (hundreds of events per
    cluster over 5 sources), so the optimizer keeps recovering the planted
    boundaries. Checked with the event/timestep partitions drawn both
    independently and jointly. The decoupled objective rarely finds
    structure in unstructured data: on planted K=1 synth instances (N in
    {30, 100, 300}, T in {10, 30, 100}, gamma in {0.01, 0.1, 1, 10}, S=D=5,
    seeds 0-3) the DP kept one bin on 141 of 144 and split 3 into K=2, all
    at gamma=10. See the project decision notes.
    """
    mean_acc = float(np.mean([acc for _, _, _, acc in recon_suite[(1000, 1.0)]]))
    report(
        "criterion 3b (high-noise CCAMI <= 0.3)",
        mean_acc <= 0.3,
        f"mean CCAMI at gamma=1, N=1000 is {mean_acc:.3f} (threshold 0.3)",
    )


def test_criterion_4_t_insensitivity(t_insensitivity_suite):
    e50 = float(np.mean([r50.eta for r50, _, _, _ in t_insensitivity_suite]))
    e500 = float(np.mean([r500.eta for _, _, r500, _ in t_insensitivity_suite]))
    diff = abs(e50 - e500)
    report(
        "criterion 4 (T-insensitivity)",
        diff <= 0.05,
        f"mean eta at T=50: {e50:.4f}, at T=500: {e500:.4f}, |diff|={diff:.4f} <= 0.05",
    )


def test_criterion_5_runtime_scaling(scaling_suite):
    t_values, dp_means, greedy_means = scaling_suite
    dp_slope = log_slope(t_values, dp_means)
    greedy_slope = log_slope(t_values, greedy_means)
    ok = 1.6 <= dp_slope <= 2.4 and greedy_slope <= 1.5
    report(
        "criterion 5 (runtime scaling)",
        ok,
        f"DP slope {dp_slope:.2f} in [1.6, 2.4]; greedy slope {greedy_slope:.2f} <= 1.5 "
        f"(DP ms: {[round(1000 * x, 1) for x in dp_means]})",
    )


def test_criterion_6_ordering_and_greedy_gap(oracle_suite, recon_suite, t_insensitivity_suite):
    checked = 0
    for d, r_dp, _, r_greedy in oracle_suite[0]:
        assert r_dp.eta <= r_greedy.eta + 1e-12 and r_greedy.eta <= 1.0
        for fn in (baseline_uniform_duration, baseline_uniform_count):
            try:
                rb = fn(d, r_dp.K)
            except (ValueError, EmptyClusterError):
                continue
            assert r_dp.eta <= rb.eta + 1e-12
            checked += 1
    for cell in recon_suite.values():
        for res, fit, greedy, _ in cell:
            assert fit.eta <= greedy.eta + 1e-12 and greedy.eta <= 1.0
            d = res.discretized
            for fn in (baseline_uniform_duration, baseline_uniform_count):
                try:
                    rb = fn(d, fit.K)
                except (ValueError, EmptyClusterError):
                    continue
                assert fit.eta <= rb.eta + 1e-12
                checked += 1
    for r50, g50, r500, g500 in t_insensitivity_suite:
        assert r50.eta <= g50.eta + 1e-12 and g50.eta <= 1.0
        assert r500.eta <= g500.eta + 1e-12 and g500.eta <= 1.0
    gaps = [
        greedy.eta - fit.eta
        for n in (200, 1000)
        for _, fit, greedy, _ in recon_suite[(n, 1e-3)]
    ]
    median_gap = float(np.median(gaps))
    report(
        "criterion 6 (ordering and greedy gap)",
        median_gap <= 0.02,
        f"eta orderings hold on every instance ({checked} baseline comparisons); "
        f"median greedy-exact eta gap at gamma=1e-3 is {median_gap:.4f} <= 0.02",
    )


def test_criterion_7_metric_unit_suite():
    # identity
    p = EventPartition([300, 500, 200])
    assert ccami(p, p, rng=0) == 1.0
    # chance level
    rng = np.random.default_rng(20240507)
    vals = []
    for _ in range(200):
        a = EventPartition(sample_positive_composition(1000, 5, rng))
        b = EventPartition(sample_positive_composition(1000, 5, rng))
        vals.append(ccami(a, b, rng=rng))
    chance = float(np.mean(vals))
    assert abs(chance) <= 0.05
    # gap ratio worked example
    ev = parse_events([("a", "x", t) for t in (1, 2, 3, 10, 11, 12)])
    alpha = gap_ratio_alpha(ev, EventPartition([3, 3]))
    assert alpha == pytest.approx(1 / 7, abs=1e-12)
    # edge divergence closed forms
    rows = [("a", "x", 0.0), ("a", "x", 1.0), ("b", "y", 8.0), ("b", "y", 9.0)]
    ev2 = parse_events(rows)
    from hyperbin import discretize_on_grid

    d2 = discretize_on_grid(ev2, 10, 0.0, 1.0)
    two = [build_snapshot(d2, Binning((5, 5)), k) for k in range(2)]
    one = [build_snapshot(d2, Binning((10,)), 0)]
    same = parse_events(
        [("a", "x", 0.0), ("b", "y", 1.0), ("a", "x", 8.0), ("b", "y", 9.0)]
    )
    d3 = discretize_on_grid(same, 10, 0.0, 1.0)
    mirrored = [build_snapshot(d3, Binning((5, 5)), k) for k in range(2)]
    assert jsd_edges(one) == 0.0
    assert jsd_edges(two) == pytest.approx(1.0, abs=1e-12)
    assert jsd_edges(mirrored) == pytest.approx(0.0, abs=1e-12)
    report(
        "criterion 7 (metric unit suite)",
        True,
        f"CCAMI identity, chance level {chance:+.3f}, alpha=1/7, "
        "JSD closed forms all hold",
    )


def test_criterion_8_generator_distribution_suite():
    draws = 100_000
    # positive compositions of 12 into 2 parts: 11 outcomes
    rng = np.random.default_rng(20240508)
    counts = np.zeros(12, dtype=int)
    for _ in range(draws):
        counts[sample_positive_composition(12, 2, rng)[0]] += 1
    p = 1 / 11
    sigma = math.sqrt(draws * p * (1 - p))
    comp_ok = bool(np.all(np.abs(counts[1:] - draws * p) <= 3 * sigma))
    # weak compositions of 2 into 2 parts: 3 outcomes
    seen = {}
    for _ in range(draws):
        key = tuple(sample_weak_composition(2, 2, rng))
        seen[key] = seen.get(key, 0) + 1
    p = 1 / 3
    sigma = math.sqrt(draws * p * (1 - p))
    weak_ok = set(seen) == {(2, 0), (1, 1), (0, 2)} and all(
        abs(c - draws * p) <= 3 * sigma for c in seen.values()
    )
    # margin-constrained tables: both tables of the (2,1)x(2,1) margins
    seen_t = {}
    for _ in range(draws):
        key = tuple(sample_contingency_table([2, 1], [2, 1], rng).flatten())
        seen_t[key] = seen_t.get(key, 0) + 1
    sigma = math.sqrt(draws * 0.25)
    table_ok = len(seen_t) == 2 and all(
        abs(c - draws / 2) <= 3 * sigma for c in seen_t.values()
    )
    # planted round trip
    round_trip_ok = True
    for seed in range(5):
        res = generate_synthetic(
            SynthParams(N=260, T=60, K=4, S=5, D=5, gamma=0.05, seed=seed)
        )
        d = res.discretized
        part = induce_partition(d, res.binning)
        round_trip_ok &= part.sizes.tolist() == res.partition.sizes.tolist()
        for k, (a, w) in enumerate(zip(res.binning.starts(), res.binning.widths)):
            snap = build_snapshot(d, res.binning, k)
            round_trip_ok &= int(snap.m_k) == int(res.partition.sizes[k])
            round_trip_ok &= int(d.events_in_step[a : a + w].sum()) == int(snap.m_k)
    ok = comp_ok and weak_ok and table_ok and round_trip_ok
    report(
        "criterion 8 (generator distributions)",
        ok,
        f"compositions 3-sigma: {comp_ok}; weak compositions: {weak_ok}; "
        f"tables uniform: {table_ok}; planted round trip: {round_trip_ok}",
    )
