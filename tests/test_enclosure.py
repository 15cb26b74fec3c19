"""Numeric core: enclosure constructors, interval arithmetic, certified compare."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from binexceed.enclosure import (
    Enclosure,
    UndecidedComparisonError,
    b_enclosure,
    c_enclosure,
    compare_certified,
    exp_enclosure,
    ln_enclosure,
    sqrt_enclosure,
)

from oracles import ln43_series_lower, mp_point

# independently computed digit strings (mpmath / direct series)
E_DIGITS = Fraction("2.718281828459045235360287471352662497757")
SQRT2_DIGITS = Fraction("1.41421356237309504880168872420969807857")

ORACLE_ULP = Fraction(1, 2**200)


def oracle_inside(enc, fn_name, x):
    # the oracle point is floored to the 2^-200 grid: the true value lies in
    # [point, point + ulp], which must intersect the enclosure
    point = mp_point(fn_name, x)
    return enc.lo <= point + ORACLE_ULP and point <= enc.hi

positive_rationals = st.fractions(min_value=Fraction(1, 1000), max_value=10,
                                  max_denominator=10**6)


class TestLn:
    def test_ln_one_is_tightly_zero(self):
        enc = ln_enclosure(1, 64)
        assert enc.contains(0)
        assert abs(enc.lo) <= Fraction(1, 2**64)
        assert abs(enc.hi) <= Fraction(1, 2**64)

    def test_ln_four_thirds_digits(self):
        enc = ln_enclosure(Fraction(4, 3), 64)
        assert enc.contains(Fraction("0.2876820724517809274392190059938274315035"))

    def test_ln_of_e_approximation_contains_one(self):
        # rational midpoint of a tight enclosure of e
        x = exp_enclosure(1, 256).mid
        enc = ln_enclosure(x, 64)
        assert enc.contains(mp_point("ln", x))
        assert enc.contains(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_enclosure(0, 64)
        with pytest.raises(ValueError):
            ln_enclosure(Fraction(-1, 2), 64)

    @given(positive_rationals)
    def test_soundness_against_mpmath(self, x):
        assert oracle_inside(ln_enclosure(x, 64), "ln", x)

    @given(positive_rationals)
    def test_width_bound(self, x):
        enc = ln_enclosure(x, 64)
        # |ln x| <= 3 on the strategy's range, so max(1, |ln x|+1) >= 1
        assert enc.width <= Fraction(1, 2**64) * 4


class TestExp:
    def test_exp_zero_contains_one(self):
        assert exp_enclosure(0, 64).contains(1)

    def test_exp_one_digits(self):
        assert exp_enclosure(1, 64).contains(E_DIGITS)

    def test_exp_of_minus_c_contains_three_quarters(self):
        c_mid = c_enclosure(256).mid
        enc = exp_enclosure(-c_mid, 64)
        assert enc.contains(Fraction(3, 4))

    @given(st.fractions(min_value=-8, max_value=8, max_denominator=10**6))
    def test_soundness_against_mpmath(self, x):
        assert oracle_inside(exp_enclosure(x, 64), "exp", x)

    @given(positive_rationals)
    def test_ln_exp_identity_contains_argument(self, x):
        inner = ln_enclosure(x, 64)
        lo = exp_enclosure(inner.lo, 64).lo
        hi = exp_enclosure(inner.hi, 64).hi
        assert lo <= x <= hi


class TestSqrt:
    def test_perfect_square_is_exact(self):
        assert sqrt_enclosure(Fraction(1, 4)) == Enclosure(Fraction(1, 2), Fraction(1, 2))
        assert sqrt_enclosure(0).is_point
        assert sqrt_enclosure(9).lo == 3

    def test_sqrt_two_digits(self):
        assert sqrt_enclosure(2, 64).contains(SQRT2_DIGITS)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_enclosure(-1, 64)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=10**6))
    def test_soundness_against_mpmath(self, x):
        assert oracle_inside(sqrt_enclosure(x, 64), "sqrt", x)


class TestConstants:
    def test_c_bracket_at_16_bits(self):
        enc = c_enclosure(16)
        assert Fraction("0.28") < enc.lo < enc.hi < Fraction("0.29")
        assert Fraction("0.2876") < enc.lo and enc.hi < Fraction("0.2877")

    def test_c_refinement_shrinks_width(self):
        assert c_enclosure(64).width < c_enclosure(16).width

    def test_c_midpoint_thirty_digits(self):
        oracle = ln43_series_lower()
        assert abs(c_enclosure(128).mid - oracle) < Fraction(1, 10**30)

    def test_b_digit_bracket(self):
        enc = b_enclosure(64)
        assert enc.contains(Fraction("0.86901487419555172759"))
        assert Fraction("0.86901") < enc.lo and enc.hi < Fraction("0.86902")

    @pytest.mark.parametrize("bits", [1024, 4096])
    def test_high_precision_against_mpmath(self, bits):
        # 11/10 needs no power-of-two shift; 10 = 2^3 * 5/4 adds 3 ln 2
        ulp = Fraction(1, 2 ** (bits + 64))
        for enc, x in ((c_enclosure(bits), Fraction(4, 3)),
                       (ln_enclosure(Fraction(11, 10), bits), Fraction(11, 10)),
                       (ln_enclosure(10, bits), Fraction(10))):
            point = mp_point("ln", x, bits + 64)
            assert enc.lo <= point and point + ulp <= enc.hi
            assert enc.width == Fraction(1, 2**bits)

    def test_b_is_quarter_over_c(self):
        # e^(-ln(4/3)) = 3/4 exactly, so b = (1/4)/c
        quotient = Fraction(1, 4) / c_enclosure(96)
        assert b_enclosure(64).encloses(quotient)

    def test_b_midpoint_twenty_digits(self):
        oracle = Fraction(1, 4) / ln43_series_lower()
        assert abs(b_enclosure(128).mid - oracle) < Fraction(1, 10**20)


class TestRefinement:
    @given(positive_rationals)
    def test_monotone_width_ln(self, x):
        widths = [ln_enclosure(x, bits).width for bits in (16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=10**4))
    def test_monotone_width_exp(self, x):
        widths = [exp_enclosure(x, bits).width for bits in (16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    @given(st.fractions(min_value=0, max_value=50, max_denominator=10**4))
    def test_monotone_width_sqrt(self, x):
        widths = [sqrt_enclosure(x, bits).width for bits in (16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_halving_for_series_constructors(self):
        for bits in (16, 32, 64):
            assert c_enclosure(bits + 1).width <= c_enclosure(bits).width / 2
            assert exp_enclosure(1, bits + 1).width <= exp_enclosure(1, bits).width / 2


class TestSoundnessSweep:
    def test_thousand_random_rationals(self):
        # ln, exp, sqrt enclosures at 64 bits each contain a 200-bit oracle
        # evaluation, for 1000 seeded random rationals in (0, 10]
        import random

        rng = random.Random(414243)
        for _ in range(1000):
            den = rng.randint(1, 10**6)
            num = rng.randint(1, 10 * den)
            x = Fraction(num, den)
            assert oracle_inside(ln_enclosure(x, 64), "ln", x)
            assert oracle_inside(sqrt_enclosure(x, 64), "sqrt", x)
            assert oracle_inside(exp_enclosure(x % 8, 64), "exp", x % 8)


class TestArithmetic:
    @given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
    def test_exactness_of_rationals(self, a, b):
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a

    def test_interval_ops_are_exact_endpoint_ops(self):
        u = Enclosure(Fraction(1, 3), Fraction(1, 2))
        v = Enclosure(Fraction(-1, 4), Fraction(2, 5))
        assert (u + v).lo == Fraction(1, 3) - Fraction(1, 4)
        assert (u - v).hi == Fraction(1, 2) + Fraction(1, 4)
        w = u * v
        assert w.lo == min(Fraction(1, 3) * Fraction(-1, 4), Fraction(1, 2) * Fraction(-1, 4))
        with pytest.raises(ZeroDivisionError):
            u / v

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Enclosure(0.1, 0.2)
        with pytest.raises(TypeError):
            ln_enclosure(0.5, 64)


class TestCompare:
    def test_quarter_below_c(self):
        assert compare_certified(Fraction(1, 4), "<", c_enclosure, 64).value

    def test_exact_equality(self):
        x = Fraction(7, 13)
        assert compare_certified(x, "=", x).value
        assert not compare_certified(x, "=", x + 1).value

    def test_c_not_below_its_truncation(self):
        verdict = compare_certified(c_enclosure, "<", Fraction(2876, 10000), 1024)
        assert not verdict.value

    def test_refines_until_separation(self):
        # a rational 2^-300-close to c: 64-bit intervals overlap, refinement decides
        close = c_enclosure(300).mid
        verdict = compare_certified(close, "<", c_enclosure, 1024)
        assert verdict.value in (True, False)

    def test_undecided_at_cap_raises(self):
        close = c_enclosure(600).mid
        with pytest.raises(UndecidedComparisonError):
            compare_certified(close, "=", c_enclosure, 512)

    def test_fixed_overlapping_intervals_raise(self):
        u = Enclosure(Fraction(0), Fraction(1))
        v = Enclosure(Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(UndecidedComparisonError):
            compare_certified(u, "<", v)

    def test_verdict_word_and_witness(self):
        verdict = compare_certified(Fraction(1, 4), "<", c_enclosure, 64)
        assert verdict.text == "TRUE"
        assert verdict.witness is not None

    def test_relation_spellings_outside_the_five_rejected(self):
        for relation in ("==", "≤", "≥"):
            with pytest.raises(ValueError):
                compare_certified(Fraction(1, 4), relation, c_enclosure)
