"""Exact binomial pmf/survival/tail against brute-force enumeration."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from binexceed import binom, digits
from binexceed.binom import (
    BinomialSpec,
    pmf,
    survival,
    tail_gt_mean,
)
from binexceed.cli import _exact_tail

from oracles import (grid_tail_rows, stochastic_dominance_check, survival_by_enumeration,
                     tail_by_enumeration)

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=500)
open_probabilities = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                                  max_denominator=500)
trial_counts = st.integers(min_value=1, max_value=30)


class TestPmf:
    def test_two_fair_trials(self):
        assert pmf(BinomialSpec(2, Fraction(1, 2)), 1) == Fraction(1, 2)

    def test_single_trial_success(self):
        assert pmf(BinomialSpec(1, Fraction(3, 10)), 1) == Fraction(3, 10)

    def test_five_trials_no_success(self):
        assert pmf(BinomialSpec(5, Fraction(1, 5)), 0) == Fraction(1024, 3125)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pmf(BinomialSpec(3, Fraction(1, 2)), 4)
        with pytest.raises(ValueError):
            pmf(BinomialSpec(3, Fraction(1, 2)), -1)

    @given(trial_counts, probabilities)
    def test_normalization(self, n, p):
        spec = BinomialSpec(n, p)
        assert sum(pmf(spec, k) for k in range(n + 1)) == 1

    @given(trial_counts, probabilities, st.integers(0, 30))
    def test_symmetry_p_to_q(self, n, p, k):
        k = k % (n + 1)
        assert pmf(BinomialSpec(n, p), k) == pmf(BinomialSpec(n, 1 - p), n - k)


class TestSurvival:
    def test_equality_case_value(self):
        assert survival(BinomialSpec(2, Fraction(1, 2)), 2) == Fraction(1, 4)

    def test_survival_at_zero_is_one(self):
        assert survival(BinomialSpec(7, Fraction(3, 11)), 0) == 1

    def test_seven_twenty_sevenths(self):
        assert survival(BinomialSpec(3, Fraction(1, 3)), 2) == Fraction(7, 27)

    def test_degenerate_k(self):
        assert survival(BinomialSpec(4, Fraction(2, 5)), 5) == 0
        with pytest.raises(ValueError):
            survival(BinomialSpec(4, Fraction(2, 5)), 6)

    @given(trial_counts, probabilities, st.integers(0, 31))
    def test_matches_enumeration(self, n, p, k):
        k = k % (n + 2)
        assert survival(BinomialSpec(n, p), k) == survival_by_enumeration(n, p, k)

    def test_matches_enumeration_at_large_n(self):
        # k = 480 sums {0..479} and complements; k = 520 sums {520..1000}
        p = Fraction(275_003, 2**19 + 1)
        for k in (480, 520):
            assert survival(BinomialSpec(1000, p), k) == survival_by_enumeration(1000, p, k)

    @given(trial_counts, probabilities, st.integers(1, 6), st.integers(0, 31))
    def test_numerator_over_unreduced_denominator(self, n, p, scale, k):
        # the sweeps pass p = k/grid unreduced; the tail is T / (scale*den)^n
        k = k % (n + 2)
        b = scale * p.denominator
        tail = binom._survival_numerator(n, scale * p.numerator, b, k)
        assert Fraction(tail, b**n) == survival_by_enumeration(n, p, k)

    @pytest.mark.parametrize("b", [1, 2, 5, 6, 10])
    def test_numerator_is_the_binomial_sum(self, b):
        # every a in [0, b], reduced or not, every n <= 40 and k in [0, n+1]:
        # both sides of the complement, their end terms, and the early returns
        for n in range(1, 41):
            for a in range(b + 1):
                terms = [math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(n + 1)]
                for k in range(n + 2):
                    assert binom._survival_numerator(n, a, b, k) == sum(terms[k:])

    @pytest.mark.parametrize("a", [1, 275_003, 2**19])
    def test_numerator_is_the_binomial_sum_at_a_large_b(self, a):
        # short leaves on 20-bit operands, a = 1, mid-range and b - 1: every
        # n <= 40 and k in [0, n+1]
        b = 2**19 + 1
        for n in range(1, 41):
            terms = [math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(n + 1)]
            for k in range(n + 2):
                assert binom._survival_numerator(n, a, b, k) == sum(terms[k:])

    @pytest.mark.parametrize("k", [1400, 1600])
    def test_numerator_at_n_3000(self, k):
        # k = 1400 sums {0..1399} and complements; k = 1600 sums {1600..3000}
        p = Fraction(2, 7)
        tail = binom._survival_numerator(3000, p.numerator, p.denominator, k)
        assert Fraction(tail, 7**3000) == survival_by_enumeration(3000, p, k)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_numerator_summed_in_halves(self, block, monkeypatch):
        # a block this small splits every sum of more than `block` terms in
        # halves: odd and even splits, leaves of one term, deep joins, and
        # leaf starts handed on
        monkeypatch.setattr(binom, "_BLOCK", block)
        for b in (1, 2, 5, 6, 10):
            for n in range(1, 31):
                for a in range(b + 1):
                    terms = [math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(n + 1)]
                    for k in range(n + 2):
                        assert binom._survival_numerator(n, a, b, k) == sum(terms[k:])

    def test_binomial_sum_is_the_weighted_sum(self, monkeypatch):
        # the range form itself, at every (lo, hi), with x and y kept apart
        monkeypatch.setattr(binom, "_BLOCK", 2)
        n, x, y = 13, 3, 7
        for lo in range(n + 1):
            for hi in range(lo + 1, n + 2):
                expected = sum(math.comb(n, j) * x ** (j - lo) * y ** (hi - 1 - j)
                               for j in range(lo, hi))
                assert binom._halves(n, x, y, lo, hi, math.comb(n, lo), False)[0] == expected
                if lo == 0:
                    assert binom._binomial_sum(n, x, y, hi) == expected

    @pytest.mark.parametrize("n, lo, hi", [
        (300, 0, 301), (300, 1, 300), (300, 37, 250), (300, 100, 165), (300, 7, 72),
        (257, 0, 129), (299, 150, 300), (500, 123, 400)])
    @pytest.mark.parametrize("x, y", [(1, 1), (7, 5), (275_003, 2**19 + 1)])
    def test_binomial_sum_at_the_default_block(self, n, lo, hi, x, y):
        # leaves of about _BLOCK terms from lo > 0, uneven splits, and the
        # C(n, hi) a range hands on when it is not the last
        expected = sum(math.comb(n, j) * x ** (j - lo) * y ** (hi - 1 - j)
                       for j in range(lo, hi))
        assert hi - lo > binom._BLOCK
        if lo == 0:
            assert binom._binomial_sum(n, x, y, hi) == expected
        assert binom._halves(n, x, y, lo, hi, math.comb(n, lo), False) == (expected, None)
        assert binom._halves(n, x, y, lo, hi, math.comb(n, lo), True) == (
            expected, math.comb(n, hi))

    def test_every_sum_and_no_early_return_goes_to_binomial_sum(self, monkeypatch):
        summed = []
        binomial_sum = binom._binomial_sum

        def recording(*args):
            summed.append(args)
            return binomial_sum(*args)

        monkeypatch.setattr(binom, "_binomial_sum", recording)
        block = binom._BLOCK
        for n, a, b, k in [(40, 20, 41, 20), (2 * block, 1, 2, block),
                           (2 * block + 2, 1, 2, block + 1), (3000, 1, 2, 1501),
                           (3000, 1, 3, 1001), (3000, 2, 3, 2000), (40, 3, 10, 1),
                           (40, 3, 10, 40), (40, 3, 10, 0), (40, 3, 10, 41),
                           (40, 0, 1, 1), (40, 1, 1, 40)]:
            summed.clear()
            tail = binom._survival_numerator(n, a, b, k)
            assert Fraction(tail, b**n) == survival_by_enumeration(n, Fraction(a, b), k)
            # one sum of min(n - k + 1, k) terms where 1 <= k <= n and 0 < a < b
            sums = [min(n - k + 1, k)] if 1 <= k <= n and 0 < a < b else []
            assert [args[3] for args in summed] == sums

    @given(trial_counts, probabilities, st.integers(1, 30))
    def test_complement(self, n, p, k):
        k = k % n + 1
        spec = BinomialSpec(n, p)
        below = sum(pmf(spec, j) for j in range(k))
        assert survival(spec, k) + below == 1


class TestGridTailRows:
    """binom._grid_tail_rows, carried by Pascal's rule, against the summed tails."""

    @pytest.mark.parametrize("grid, n_max", [(60, 60), (97, 60), (1000, 40)])
    def test_every_tail_is_the_horner_tail(self, grid, n_max):
        # every column k in [1, grid): m = 1 cells, every step of m, integer
        # means (n*k a multiple of grid) and k sharing factors with grid
        ks = range(1, grid)
        seen = {"m = 1": 0, "m steps": 0, "integer mean": 0, "shared factor": 0}
        rows = list(binom._grid_tail_rows(n_max, grid, ks))
        assert len(rows) == n_max
        for n, tails in enumerate(rows, start=1):
            assert len(tails) == len(ks)
            for k, tail in zip(ks, tails):
                m = n * k // grid + 1
                assert tail == binom._survival_numerator(n, k, grid, m), (n, k)
                seen["m = 1"] += m == 1
                seen["m steps"] += m > (n - 1) * k // grid + 1
                seen["integer mean"] += n * k % grid == 0
                seen["shared factor"] += math.gcd(k, grid) > 1
        # the prime grid 97 has neither integer means nor shared factors
        assert [count > 0 for count in seen.values()] == [True, True] + [grid != 97] * 2

    def test_a_sub_range_of_columns_reads_the_same_tails(self):
        full = list(binom._grid_tail_rows(12, 97, range(1, 97)))
        part = list(binom._grid_tail_rows(12, 97, range(30, 61)))
        assert part == [tails[29:60] for tails in full]

    def test_no_columns_give_empty_rows(self):
        assert list(binom._grid_tail_rows(3, 1, range(1, 1))) == [[], [], []]

    @given(st.data())
    def test_rows_equal_the_row_major_oracle(self, data):
        # any sub-range of the columns 1..grid-1, drawn often empty, of one
        # column or ending at grid - 1
        grid = data.draw(st.integers(1, 300), label="grid")
        n_max = data.draw(st.integers(0, 60), label="n_max")
        start = data.draw(st.integers(1, grid), label="start")
        stop = data.draw(st.one_of(st.sampled_from([start, min(start + 1, grid), grid]),
                                   st.integers(start, grid)), label="stop")
        ks = range(start, stop)
        assert list(binom._grid_tail_rows(n_max, grid, ks)) == list(grid_tail_rows(n_max, grid, ks))

    def test_rows_are_fresh_lists(self):
        # a consumer may write into a row: the next row and a second call
        # read the carried tails all the same
        expected = list(grid_tail_rows(6, 97, range(1, 97)))
        seen = []
        for tails in binom._grid_tail_rows(6, 97, range(1, 97)):
            seen.append(tails[:])
            tails[:3] = [-1, -2, -3]
            tails.append(0)
        assert seen == expected
        assert list(binom._grid_tail_rows(6, 97, range(1, 97))) == expected

    def test_the_first_row_arrives_before_the_rest_are_carried(self):
        # 10^6 rows of 96 columns would not fit in time or memory
        rows = binom._grid_tail_rows(10**6, 97, range(1, 97))
        assert next(iter(rows)) == next(grid_tail_rows(1, 97, range(1, 97)))


class TestTailForm:
    """binom._tail_form's factors, evaluated on ints by _survival_numerator and
    in exact decimal by cli._exact_tail, give the sum of the pmf terms."""

    # (n, a, b, k, lower, summed): each side in one leaf at n = 40 and in
    # halves at n = 300, at small and large b, and the early returns at k = 0,
    # k = n + 1, a = 0 and a = b, which sum nothing
    CASES = [
        (40, 3, 10, 30, False, True), (40, 3, 10, 5, True, True),
        (300, 1, 2, 151, False, True), (300, 1, 2, 150, True, True),
        (300, 275_003, 2**19 + 1, 200, False, True), (300, 275_003, 2**19 + 1, 100, True, True),
        (40, 3, 10, 0, True, False), (40, 3, 10, 41, False, False),
        (40, 0, 1, 1, False, False), (40, 0, 1, 0, True, False), (40, 1, 1, 40, True, False),
    ]

    @pytest.mark.parametrize("n, a, b, k, lower, summed", CASES)
    def test_int_evaluation_is_the_sum_of_pmf_terms(self, n, a, b, k, lower, summed,
                                                    monkeypatch):
        calls = []
        binomial_sum = binom._binomial_sum

        def recording(*args):
            calls.append(args)
            return binomial_sum(*args)

        monkeypatch.setattr(binom, "_binomial_sum", recording)
        assert binom._tail_form(n, a, b, k)[0] == lower and len(calls) == summed
        terms = [math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(n + 1)]
        assert binom._survival_numerator(n, a, b, k) == sum(terms[k:])

    def test_decimal_evaluation_is_the_int_one_in_lowest_terms(self):
        reduced = []
        for n, a, b, k, *_ in self.CASES:
            tail, den = binom._survival_numerator(n, a, b, k), b**n
            g = math.gcd(tail, den)
            with decimal.localcontext(digits._EXACT):
                t, d = _exact_tail(n, a, b, k)
                texts = str(t), str(d)
            assert texts == (digits.int_str(tail // g), digits.int_str(den // g))
            reduced.append(1 < g < den)
        assert any(reduced)


class TestLowestTerms:
    """binom._lowest_terms divides t by math.gcd(t, b^n), and returns that gcd."""

    @staticmethod
    def check(t, b, n):
        g = math.gcd(t, b**n)
        assert binom._lowest_terms(t, b, n) == (t // g, g)

    @given(st.sampled_from([6, 12, 1000, 2**20]), st.integers(1, 60),
           st.integers(0, 2**64), st.integers(0, 80), st.integers(0, 80))
    def test_matches_math_gcd(self, b, n, k, e2, e3):
        # 2^e2 * 3^e3 * k: up to 80 factors of 2 or 3, past their count in b^n
        self.check(2**e2 * 3**e3 * k, b, n)

    @given(st.sampled_from([6, 12, 1000, 2**20]), st.integers(1, 60),
           st.integers(0, 10**6))
    def test_multiples_of_the_power(self, b, n, k):
        self.check(k * b**n, b, n)
        self.check(b**n, b, n)
        self.check(0, b, n)

    @given(st.integers(1, 60), st.integers(1, 10**6))
    def test_more_twos_than_six_to_the_n(self, n, k):
        # 6^n holds n factors of 2; the strip must stop there, not at h = 1
        self.check(2 ** (n + 5) * k, 6, n)

    def test_large_tail(self):
        # the tail of (5000, 337/1000) and one with every factor of 10^n
        tail = binom._survival_numerator(5000, 337, 1000, 1686)
        self.check(tail, 1000, 5000)
        self.check(tail * 10**5000, 1000, 5000)


class TestTailGtMean:
    def test_equality_case(self):
        record = tail_gt_mean(BinomialSpec(2, Fraction(1, 2)))
        assert record.tail == Fraction(1, 4)
        assert record.m == 2 and record.mean == 1

    def test_p_zero(self):
        assert tail_gt_mean(BinomialSpec(5, Fraction(0))).tail == 0

    def test_p_one(self):
        record = tail_gt_mean(BinomialSpec(5, Fraction(1)))
        assert record.m == 6 and record.tail == 0

    def test_five_trials_fifth(self):
        record = tail_gt_mean(BinomialSpec(5, Fraction(1, 5)))
        assert record.tail == Fraction(821, 3125)
        assert record.m == 2

    def test_matches_enumeration_on_grid(self):
        # exhaustive: every n <= 30 against the per-outcome oracle
        for n in range(1, 31):
            for p in (Fraction(1, 7), Fraction(3, 10), Fraction(1, 2),
                      Fraction(9, 10), Fraction(1, n), Fraction(n - 1, n)):
                assert tail_gt_mean(BinomialSpec(n, p)).tail == tail_by_enumeration(n, p)

    @given(trial_counts, probabilities)
    def test_matches_enumeration_random(self, n, p):
        assert tail_gt_mean(BinomialSpec(n, p)).tail == tail_by_enumeration(n, p)

    @given(trial_counts, probabilities)
    def test_mean_floor_is_exact(self, n, p):
        record = tail_gt_mean(BinomialSpec(n, p))
        assert record.m - 1 <= record.mean < record.m
        assert record.mean == n * p


class TestStochasticMonotonicity:
    def test_instance(self):
        assert stochastic_dominance_check(5, Fraction(1, 4), Fraction(1, 2), 3).value

    def test_equal_probabilities(self):
        verdict = stochastic_dominance_check(6, Fraction(2, 7), Fraction(2, 7), 2)
        assert verdict.value and verdict.witness == 0

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            stochastic_dominance_check(4, Fraction(2, 3), Fraction(1, 3), 2)

    @given(st.integers(1, 10), probabilities, probabilities, st.integers(0, 10))
    def test_always_true_for_sorted_pairs(self, n, pa, pb, k):
        p1, p2 = sorted((pa, pb))
        assert stochastic_dominance_check(n, p1, p2, k % (n + 1)).value

    @given(trial_counts, open_probabilities, open_probabilities, st.integers(1, 30))
    def test_strict_inside_the_unit_interval(self, n, pa, pb, k):
        p1, p2 = sorted((pa, pb))
        if p1 == p2:
            return
        k = k % n + 1
        assert survival(BinomialSpec(n, p1), k) < survival(BinomialSpec(n, p2), k)


class TestSpecValidation:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BinomialSpec(0, Fraction(1, 2))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BinomialSpec(3, Fraction(5, 4))

    def test_rejects_float_p(self):
        with pytest.raises(TypeError):
            BinomialSpec(3, 0.5)

    def test_q_and_mean(self):
        spec = BinomialSpec(6, Fraction(1, 3))
        assert spec.q == Fraction(2, 3) and spec.mean == 2
