import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import count_margin_matrices, nonzero
from hyperbin.combinatorics import (
    _column_fills,
    ec_bits,
    log2_binomial,
    log2_multiset,
)


def brute_force_count(rows, cols):
    """Independent oracle: enumerate every candidate matrix."""
    nr, nc = len(rows), len(cols)
    ranges = [range(min(rows[i], cols[j]) + 1) for i in range(nr) for j in range(nc)]
    count = 0
    for flat in itertools.product(*ranges):
        m = np.asarray(flat).reshape(nr, nc)
        if (m.sum(axis=1) == rows).all() and (m.sum(axis=0) == cols).all():
            count += 1
    return count


class TestLog2Binomial:
    def test_t_minus_one_choose_k_minus_one(self):
        assert log2_binomial(11, 1) == pytest.approx(math.log2(11), abs=1e-12)

    def test_k_zero(self):
        assert log2_binomial(17, 0) == 0.0

    def test_against_exact_integer_binomial(self):
        assert log2_binomial(52, 5) == pytest.approx(math.log2(math.comb(52, 5)), rel=1e-12)
        assert math.comb(52, 5) == 2598960

    def test_large_n_relative_error(self):
        n, k = 10**6, 1234
        assert log2_binomial(n, k) == pytest.approx(math.log2(math.comb(n, k)), rel=1e-9)

    @pytest.mark.parametrize(
        "n, k",
        [(10**6, 10), (10**9, 10), (10**12, 10), (2**53 - 1, 10), (2**53 - 1, 11), (199_999, 7)],
    )
    def test_huge_n_does_not_cancel(self, n, k):
        # a plain difference of lgamma(n + 1) and lgamma(n - k + 1) is off by
        # 1.6e-9 bits at n = 1e6 and by 88.6 bits at n = 2**53 - 1, k = 11
        assert abs(log2_binomial(n, k) - math.log2(math.comb(n, k))) < 1e-10
        assert log2_binomial(n, n - k) == log2_binomial(n, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log2_binomial(3, 4)
        with pytest.raises(ValueError):
            log2_binomial(-1, 0)


class TestLog2Multiset:
    def test_empty_multiset(self):
        assert log2_multiset(7.3, 0) == 0.0

    def test_two_bins_two_items(self):
        assert log2_multiset(2, 2) == pytest.approx(math.log2(3), abs=1e-12)

    def test_matches_exact_binomial(self):
        assert log2_multiset(5, 6) == pytest.approx(math.log2(math.comb(10, 4)), rel=1e-12)
        assert math.comb(10, 4) == 210

    @pytest.mark.parametrize("y", [1e6, 1e12])
    def test_many_bins_do_not_cancel(self, y):
        # ((y multichoose 42)) = y (y + 1) ... (y + 41) / 42!
        exact = math.fsum(math.log2(y + i) - math.log2(i + 1) for i in range(42))
        assert abs(log2_multiset(y, 42) - exact) < 1e-10

    @pytest.mark.parametrize(
        "y, x", [(3, 10**6), (3, 10**9), (3, 10**12), (20, 2 * 10**5), (4999, 10**7), (5000, 10**7)]
    )
    def test_many_items_in_few_bins_do_not_cancel(self, y, x):
        exact = math.log2(math.comb(x + y - 1, y - 1))
        assert abs(log2_multiset(y, x) - exact) < 1e-10

    def test_many_items_in_a_fractional_bin_count(self):
        # ((y multichoose x)) = prod over i < x of (y + i) / (i + 1)
        y, x = 0.5, 10**6
        exact = math.fsum(math.log((y + i) / (i + 1)) for i in range(x)) / math.log(2)
        assert abs(log2_multiset(y, x) - exact) < 1e-10

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ValueError):
            log2_multiset(0.0, 3)


class TestMargins:
    """Margin validation of the exact counter (the oracle in tests/helpers.py)."""

    def test_rejects_mismatched_sums(self):
        with pytest.raises(ValueError, match="infeasible"):
            count_margin_matrices((3, 0, 3), (2, 2, 1))

    def test_rejects_negative(self):
        # the sums agree (4 == 4); only the sign is wrong
        with pytest.raises(ValueError, match="non-negative"):
            count_margin_matrices((-1, 5), (4,))


class TestOmegaExact:
    def test_single_column_is_forced(self):
        assert count_margin_matrices((2, 1), (3,)) == 1

    def test_two_by_two(self):
        assert brute_force_count((2, 1), (2, 1)) == 2
        assert count_margin_matrices((2, 1), (2, 1)) == 2

    def test_unit_rows_give_multinomial(self):
        assert count_margin_matrices((1, 1, 1), (2, 1)) == 3

    def test_matches_brute_force_on_random_margins(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nr, nc = rng.integers(1, 4, size=2)
            total = int(rng.integers(1, 9))
            rows = np.bincount(rng.integers(0, nr, total), minlength=nr)
            cols = np.bincount(rng.integers(0, nc, total), minlength=nc)
            assert count_margin_matrices(rows, cols) == brute_force_count(
                tuple(rows), tuple(cols)
            )

    def test_transpose_and_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            total = int(rng.integers(2, 20))
            rows = np.bincount(rng.integers(0, 4, total), minlength=4)
            cols = np.bincount(rng.integers(0, 3, total), minlength=3)
            base = count_margin_matrices(rows, cols)
            assert count_margin_matrices(cols, rows) == base
            assert count_margin_matrices(rng.permutation(rows), rng.permutation(cols)) == base

    def test_zero_stripping_invariance(self):
        assert count_margin_matrices((4, 0, 2), (4, 2)) == count_margin_matrices((4, 2), (4, 2))

    def test_refuses_oversized_instances(self):
        with pytest.raises(ValueError, match="too large"):
            count_margin_matrices((50,) * 7, (50,) * 7)

    def test_infeasible_margins(self):
        with pytest.raises(ValueError):
            count_margin_matrices((2, 1), (4,))


class TestColumnFills:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.integers(0, 12))
    def test_bounded_fills_in_product_order(self, rows, budget):
        expected = [
            tuple(r - v for r, v in zip(rows, fill))
            for fill in itertools.product(*(range(r + 1) for r in rows))
            if sum(fill) == budget
        ]
        assert list(_column_fills(rows, budget)) == expected


class TestOmegaEffectiveColumns:
    def test_single_column_exact_zero(self):
        assert ec_bits((3, 2), (5,)) == 0.0

    def test_two_by_two_close_to_one_bit(self):
        est = ec_bits((2, 1), (2, 1))
        assert abs(est - 1.0) <= 0.5

    def test_zero_stripping_invariance(self):
        # zeros leave the margins through nonzero() and change nothing
        assert ec_bits(nonzero((4, 0, 2)), nonzero((0, 4, 2))) == ec_bits((4, 2), (4, 2))
        assert ec_bits(nonzero((3, 0, 2, 1)), nonzero((2, 4, 0))) == ec_bits((3, 2, 1), (2, 4))

    def test_unit_columns_route_to_multinomial_closed_form(self):
        est = ec_bits((3, 2, 1), (1,) * 6)
        expected = math.log2(math.factorial(6) // (6 * 2 * 1))
        assert est == pytest.approx(expected, abs=1e-12)

    def test_unit_rows_route_to_multinomial_closed_form(self):
        est = ec_bits((1,) * 6, (3, 2, 1))
        exact = math.log2(count_margin_matrices((1,) * 6, (3, 2, 1)))
        assert est == pytest.approx(exact, abs=1e-12)

    def test_one_column_holding_all_mass(self):
        # consistency check: sum of squared columns equals total squared
        assert ec_bits((5, 3), nonzero((8, 0))) == 0.0

    def test_orientation_is_fixed(self):
        a = ec_bits((4, 2, 2), (5, 2, 1))
        b = ec_bits((5, 2, 1), (4, 2, 2))
        assert a != b  # rows and columns play asymmetric roles

    def test_accuracy_against_exact_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            nr, nc = rng.integers(1, 6, size=2)
            total = int(rng.integers(1, 21))
            rows = nonzero(np.bincount(rng.integers(0, nr, total), minlength=nr))
            cols = nonzero(np.bincount(rng.integers(0, nc, total), minlength=nc))
            exact = math.log2(count_margin_matrices(rows, cols))
            err = abs(ec_bits(rows, cols) - exact)
            assert err <= max(0.5, 0.05 * exact)

    def test_infeasible_margins(self):
        with pytest.raises(ValueError):
            ec_bits((2, 2), (3,))

    def test_ec_bits_empty(self):
        assert ec_bits((), ()) == 0.0
