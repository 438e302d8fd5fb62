import numpy as np
import pytest

from helpers import count_margin_matrices
from hyperbin import (
    SynthParams,
    build_snapshot,
    generate_synthetic,
    induce_partition,
    sample_contingency_table,
    sample_dirichlet_multinomial,
    sample_positive_composition,
    sample_weak_composition,
)


class TestPositiveComposition:
    def test_single_part(self):
        rng = np.random.default_rng(0)
        assert sample_positive_composition(5, 1, rng).tolist() == [5]

    def test_all_ones(self):
        rng = np.random.default_rng(0)
        assert sample_positive_composition(5, 5, rng).tolist() == [1, 1, 1, 1, 1]

    def test_sums_and_positivity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            total = int(rng.integers(1, 40))
            parts = int(rng.integers(1, total + 1))
            w = sample_positive_composition(total, parts, rng)
            assert w.sum() == total and w.min() >= 1 and len(w) == parts

    def test_uniform_over_compositions(self):
        rng = np.random.default_rng(2)
        draws = 100_000
        counts = np.zeros(12, dtype=int)
        for _ in range(draws):
            counts[sample_positive_composition(12, 2, rng)[0]] += 1
        p = 1 / 11
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts[1:] - draws * p) <= 3 * sigma)

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            sample_positive_composition(3, 4, np.random.default_rng(0))


class TestWeakComposition:
    def test_zero_total(self):
        rng = np.random.default_rng(0)
        assert sample_weak_composition(0, 3, rng).tolist() == [0, 0, 0]

    def test_single_part(self):
        rng = np.random.default_rng(0)
        assert sample_weak_composition(9, 1, rng).tolist() == [9]

    def test_uniform_over_weak_compositions(self):
        rng = np.random.default_rng(3)
        draws = 100_000
        seen = {}
        for _ in range(draws):
            key = tuple(sample_weak_composition(2, 2, rng))
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) == {(2, 0), (1, 1), (0, 2)}
        p = 1 / 3
        sigma = np.sqrt(draws * p * (1 - p))
        assert all(abs(c - draws * p) <= 3 * sigma for c in seen.values())


class TestDirichletMultinomial:
    def test_zero_trials(self):
        rng = np.random.default_rng(0)
        assert sample_dirichlet_multinomial(0, 5, 0.5, rng).tolist() == [0] * 5

    def test_high_concentration_limit(self):
        rng = np.random.default_rng(3)
        counts = sample_dirichlet_multinomial(100_000, 5, 1e6, rng)
        assert np.all(np.abs(counts - 20_000) <= 200)

    def test_low_concentration_localizes(self):
        rng = np.random.default_rng(5)
        hits = sum(
            sample_dirichlet_multinomial(100, 5, 1e-3, rng).max() >= 90
            for _ in range(1000)
        )
        assert hits >= 800

    def test_conservation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(0, 200))
            assert sample_dirichlet_multinomial(m, 4, 0.3, rng).sum() == m

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            sample_dirichlet_multinomial(5, 3, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf"), float("nan")])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            sample_dirichlet_multinomial(5, 3, gamma, np.random.default_rng(0))


class TestContingencyTable:
    def test_single_column_forced(self):
        rng = np.random.default_rng(0)
        t = sample_contingency_table([2, 1], [3], rng)
        assert t.tolist() == [[2], [1]]

    def test_uniform_over_tables(self):
        rng = np.random.default_rng(7)
        draws = 100_000
        seen = {}
        for _ in range(draws):
            key = tuple(sample_contingency_table([2, 1], [2, 1], rng).flatten())
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 2  # enumeration gives exactly two tables
        p = 0.5
        sigma = np.sqrt(draws * p * (1 - p))
        assert all(abs(c - draws * p) <= 3 * sigma for c in seen.values())

    def test_uniform_on_small_dense_margins(self):
        rng = np.random.default_rng(8)
        rows, cols = [3, 2, 2], [4, 2, 1]
        n_tables = count_margin_matrices(rows, cols)
        draws = 30_000
        seen = {}
        for _ in range(draws):
            key = tuple(sample_contingency_table(rows, cols, rng).flatten())
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == n_tables
        p = 1 / n_tables
        sigma = np.sqrt(draws * p * (1 - p))
        assert all(abs(c - draws * p) <= 4 * sigma for c in seen.values())

    def test_margins_preserved_every_draw(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            nr = int(rng.integers(1, 7))
            nc = int(rng.integers(1, 7))
            total = int(rng.integers(0, 500))
            rows = np.bincount(rng.integers(0, nr, total), minlength=nr)
            cols = np.bincount(rng.integers(0, nc, total), minlength=nc)
            t = sample_contingency_table(rows, cols, rng)
            assert (t.sum(axis=1) == rows).all()
            assert (t.sum(axis=0) == cols).all()
            assert t.min() >= 0

    def test_zero_margin_rows_stay_zero(self):
        rng = np.random.default_rng(10)
        t = sample_contingency_table([4, 0, 2], [4, 2], rng)
        assert t[1].tolist() == [0, 0]

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            sample_contingency_table([2, 1], [4], np.random.default_rng(0))

    # exact-regime draws (total <= 40, 3-6 nonzero rows and columns), recorded
    # before the sampler shared its column-fill walk with the exact count; the
    # last two run transposed (more rows than columns)
    @pytest.mark.parametrize(
        "rows, cols, seed, table",
        [
            ([3, 2, 2], [4, 2, 1], 1, [[2, 1, 0], [1, 0, 1], [1, 1, 0]]),
            ([5, 4, 3, 1], [2, 6, 3, 2], 2,
             [[1, 4, 0, 0], [1, 2, 0, 1], [0, 0, 3, 0], [0, 0, 0, 1]]),
            ([1, 2, 3, 4, 5, 6], [3, 3, 3, 3, 3, 3, 3], 5,
             [[0, 0, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1, 1],
              [0, 0, 0, 0, 3, 1, 0], [1, 1, 0, 2, 0, 0, 1], [1, 0, 3, 0, 0, 1, 1]]),
            ([2, 7, 1, 5, 3], [4, 4, 4, 6], 3,
             [[0, 0, 0, 2], [3, 0, 1, 3], [1, 0, 0, 0], [0, 4, 0, 1], [0, 0, 3, 0]]),
            ([10, 8, 6, 4, 2, 1, 1], [5, 5, 5, 5, 6, 6], 6,
             [[1, 1, 1, 4, 2, 1], [2, 1, 0, 0, 1, 4], [0, 2, 1, 0, 3, 0], [2, 1, 1, 0, 0, 0],
              [0, 0, 1, 0, 0, 1], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]),
        ],
    )
    def test_exact_draws_are_pinned(self, rows, cols, seed, table):
        assert sample_contingency_table(rows, cols, seed).tolist() == table


class TestGenerateSynthetic:
    def test_degenerate_single_pair(self):
        res = generate_synthetic(
            SynthParams(N=50, T=20, K=1, S=1, D=1, gamma=1e6, seed=0)
        )
        assert res.events.N == 50
        assert set(res.events.sources.tolist()) == {0}
        assert set(res.events.dests.tolist()) == {0}
        steps = res.discretized.step_of_event
        assert steps.min() >= 0 and steps.max() < 20

    def test_round_trip_reproduces_planted_margins(self):
        for seed in range(4):
            p = SynthParams(N=240, T=50, K=4, S=5, D=5, gamma=0.05, seed=seed)
            res = generate_synthetic(p)
            d = res.discretized
            part = induce_partition(d, res.binning)
            assert part.sizes.tolist() == res.partition.sizes.tolist()
            # regenerate with the same seed to recover the planted tables
            rng = np.random.default_rng(seed)
            m = sample_positive_composition(p.N, p.K, rng)
            tau = sample_positive_composition(p.T, p.K, rng)
            for k, a in enumerate(res.binning.starts()):
                n_k = sample_weak_composition(int(m[k]), int(tau[k]), rng)
                s_k = sample_dirichlet_multinomial(int(m[k]), p.S, p.gamma, rng)
                d_k = sample_dirichlet_multinomial(int(m[k]), p.D, p.gamma, rng)
                table = sample_contingency_table(s_k, d_k, rng)
                rng.permutation(int(m[k]))  # keep the stream aligned
                snap = build_snapshot(d, res.binning, k)
                got = np.zeros((p.S, p.D), dtype=int)
                for (s, t), w in snap.edges.items():
                    got[s, t] = w
                assert got.sum(axis=1).tolist() == s_k.tolist()
                assert got.sum(axis=0).tolist() == d_k.tolist()
                assert d.events_in_step[a : a + int(tau[k])].tolist() == n_k.tolist()
                assert got.tolist() == table.tolist()

    def test_seeded_determinism(self):
        p = SynthParams(N=120, T=40, K=3, S=5, D=5, gamma=0.01, seed=77)
        a, b = generate_synthetic(p), generate_synthetic(p)
        assert a.events.times.tolist() == b.events.times.tolist()
        assert a.events.sources.tolist() == b.events.sources.tolist()
        assert a.events.dests.tolist() == b.events.dests.tolist()
        assert a.binning == b.binning

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SynthParams(N=5, T=3, K=4, S=2, D=2, gamma=1.0, seed=0)
        with pytest.raises(ValueError):
            SynthParams(N=5, T=5, K=2, S=2, D=2, gamma=0.0, seed=0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_gamma_that_is_not_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            SynthParams(N=5, T=5, K=2, S=2, D=2, gamma=gamma, seed=0)
