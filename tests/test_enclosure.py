"""Numeric core: enclosure constructors, interval arithmetic, certified compare."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from binexceed import enclosure
from binexceed.enclosure import (
    Enclosure,
    UndecidedComparisonError,
    _atanh_dyadic,
    b_enclosure,
    c_enclosure,
    compare_certified,
    decide_certified,
    exp_enclosure,
    ln_enclosure,
    sqrt_enclosure,
)

from oracles import _decide, ln43_series_lower, mp_point, verdict_digest

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


# a rational just below 3 - 2*sqrt(2), the bound on |t| after ln's reduction
T_REDUCED_MAX = 3 - Fraction(2 * (math.isqrt(2 * 10**40) + 1), 10**20)
KERNEL_BITS = list(range(8, 72)) + [100, 127, 128, 255, 511, 1000, 1024, 2047, 4096]


class TestAtanhKernel:
    # at 1/1000 the tail bound is tight enough at some bits that the
    # upper end needs the 3 ulp per term rounding allowance
    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                                   T_REDUCED_MAX, Fraction(1, 1000)])
    def test_encloses_mpmath_with_width_at_most_target(self, t):
        for bits in KERNEL_BITS:
            lo, hi = _atanh_dyadic(t.numerator, t.denominator, bits)
            # mpmath at 64 bits beyond the kernel's mantissa scale 2^-(bits + 24)
            prec = bits + 24 + 64
            point = mp_point("atanh", t, prec)
            assert lo <= point and point + Fraction(1, 2**prec) <= hi, (t, bits)
            assert hi - lo <= Fraction(1, 2**bits)


class TestLnReduction:
    @staticmethod
    def _record(monkeypatch):
        atanh_calls, ln2_calls = [], []
        atanh, ln2 = enclosure._atanh_dyadic, enclosure._ln2_tight

        def counted_atanh(num, den, bits):
            atanh_calls.append(Fraction(num, den))
            return atanh(num, den, bits)

        def counted_ln2(bits):
            ln2_calls.append(bits)
            return ln2(bits)

        monkeypatch.setattr(enclosure, "_atanh_dyadic", counted_atanh)
        monkeypatch.setattr(enclosure, "_ln2_tight", counted_ln2)
        return atanh_calls, ln2_calls

    @pytest.mark.parametrize("bits", [8, 64, 1024, 4096])
    def test_four_thirds_is_one_atanh_of_one_seventh(self, monkeypatch, bits):
        atanh_calls, ln2_calls = self._record(monkeypatch)
        ln_enclosure(Fraction(4, 3), bits)
        assert atanh_calls == [Fraction(1, 7)]
        assert ln2_calls == []

    @pytest.mark.parametrize("e", [-40, -3, -1, 0, 1, 2, 5, 77])
    @pytest.mark.parametrize("m0, m, shift", [
        (Fraction(2, 3), Fraction(4, 3), -1),
        (Fraction(7, 5), Fraction(7, 5), 0),        # just below sqrt(2)
        (Fraction(17, 12), Fraction(17, 24), 1),    # just above sqrt(2)
        (Fraction(5, 7), Fraction(5, 7), 0),        # just above 1/sqrt(2)
        (Fraction(12, 17), Fraction(24, 17), -1),   # just below 1/sqrt(2)
    ], ids=["two_thirds", "seven_fifths", "seventeen_twelfths", "five_sevenths",
            "twelve_seventeenths"])
    def test_reduced_argument_has_square_in_half_to_two(self, monkeypatch, m0, m, shift, e):
        # x = 2^e * m0 = 2^(e + shift) * m with 1/2 <= m^2 < 2, so |t| = |m-1|/(m+1)
        assert Fraction(1, 2) <= m * m < 2 and m0 == m * Fraction(2) ** shift
        atanh_calls, ln2_calls = self._record(monkeypatch)
        enc = ln_enclosure(m0 * Fraction(2) ** e, 64)
        assert atanh_calls[0] == abs(m - 1) / (m + 1)
        assert len(ln2_calls) == (e + shift != 0)
        assert len(atanh_calls) == 1 + len(ln2_calls)
        assert oracle_inside(enc, "ln", m0 * Fraction(2) ** e)


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

    def test_as_fraction_passes_a_fraction_through(self):
        x = Fraction(22, 7)
        assert enclosure.as_fraction(x) is x

        class Ratio(Fraction):
            pass
        y = enclosure.as_fraction(Ratio(1, 3))
        assert type(y) is Fraction and y == Fraction(1, 3)
        assert type(enclosure.as_fraction(5)) is Fraction

    def test_witness_matches_the_checked_difference(self):
        # compare_certified builds its witness without Enclosure's constructor
        mean = 37 * Fraction(13, 97)
        witness = compare_certified(mean, ">=", c_enclosure).witness
        checked = mean - c_enclosure(64)
        assert type(witness) is Enclosure and witness == checked
        assert hash(witness) == hash(checked) and str(witness) == str(checked)

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


# within 2^-4088 of c on either side: 2048-bit intervals overlap, 4096 separate
_C_4090 = int(c_enclosure(6000).lo * 2**4090)
BELOW_C = Fraction(_C_4090 - 3, 2**4090)
ABOVE_C = Fraction(_C_4090 + 4, 2**4090)
RELATIONS = ("<", "<=", ">", ">=", "=")


class TestPinnedComparisons:
    """Verdicts, witnesses and error texts of `compare_certified`, pinned, so a
    change of its loop must reproduce them exactly."""

    def test_near_c_refines_to_the_cap(self):
        verdicts = ([compare_certified(BELOW_C, r, c_enclosure) for r in RELATIONS]
                    + [compare_certified(c_enclosure, r, ABOVE_C) for r in RELATIONS])
        assert [v.value for v in verdicts] == [True, True, False, False, False] * 2
        assert {v.witness.precision_bits for v in verdicts} == {4096}
        assert verdict_digest(verdicts) == (
            "6da7ce4d3e5a1dea4b836476f5ab2f09c57ba01a7eb763024cb49619745a9084")

    def test_exact_against_exact(self):
        assert [compare_certified(Fraction(7, 13), r, Fraction(5, 9)) for r in RELATIONS] == [
            (True, Fraction(-2, 117)), (True, Fraction(-2, 117)), (False, Fraction(-2, 117)),
            (False, Fraction(-2, 117)), (False, Fraction(-2, 117))]
        assert [compare_certified(3, r, Fraction(6, 2)) for r in RELATIONS] == [
            (False, 0), (True, 0), (False, 0), (True, 0), (True, 0)]

    def test_fixed_operands_keep_the_lower_precision(self):
        fixed = Enclosure(0, 1, 200)
        assert compare_certified(Fraction(3, 2), ">", fixed, start_bits=128) == (
            True, Enclosure(Fraction(1, 2), Fraction(3, 2), 128))
        assert compare_certified(fixed, "<", Enclosure(2, 3, 100)) == (
            True, Enclosure(-3, -1, 100))

    def test_undecided_texts(self):
        with pytest.raises(UndecidedComparisonError) as at_cap:
            compare_certified(c_enclosure(600).mid, "=", c_enclosure, 512)
        text = str(at_cap.value)
        assert text.startswith("undecided at max precision 512: [-") and len(text) == 455
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1856457d2a6eaaa60c594a9aa72758942dc63e384069aa5fd2d8a3bf0faf6e57")
        with pytest.raises(UndecidedComparisonError) as fixed:
            compare_certified(Enclosure(0, 1), "<", Enclosure(Fraction(1, 2), Fraction(3, 2)))
        assert str(fixed.value) == (
            "intervals overlap and neither operand is refinable: [-3/2, 1/2]")


# few values, so that points and touching intervals come up often
GRID = [Fraction(k, 2) for k in range(-2, 3)]
ENDPOINTS = st.one_of(st.sampled_from(GRID), st.fractions())


class TestEndpointDecision:
    """The loop compares endpoints; the oracle reads the signs of d = a - b."""

    @staticmethod
    def _agrees(rel, w, x, y, z):
        a, b = Enclosure(*sorted((w, x))), Enclosure(*sorted((y, z)))
        d = Enclosure(a.lo - b.hi, a.hi - b.lo)
        expected = _decide(rel, d)
        if expected is None:
            with pytest.raises(UndecidedComparisonError):
                decide_certified(a, rel, b)
            return
        assert decide_certified(a, rel, b) is expected
        assert compare_certified(a, rel, b) == (expected, d)

    @pytest.mark.parametrize("rel", RELATIONS)
    @given(ENDPOINTS, ENDPOINTS, ENDPOINTS, ENDPOINTS)
    def test_matches_the_difference_oracle(self, rel, w, x, y, z):
        self._agrees(rel, w, x, y, z)

    @pytest.mark.parametrize("rel", RELATIONS)
    def test_every_order_of_four_endpoints(self, rel):
        # four grid values realize every order of the endpoints, ties included
        for w, x, y, z in itertools.product(GRID[:4], repeat=4):
            self._agrees(rel, w, x, y, z)

    def test_exact_operands_decide_as_points(self):
        x = Fraction(7, 13)
        for rel in RELATIONS:
            assert decide_certified(x, rel, Enclosure(x, x)) is _decide(rel, Enclosure(0, 0))
            assert decide_certified(c_enclosure, rel, x) is compare_certified(
                c_enclosure, rel, x).value


# every c/b precision the library reads: the bits 8..256 that `check`'s
# refinement starts from, each doubling from 64 to the 4096 cap, those plus
# the 8 guard bits `b_enclosure` asks `c_enclosure` for, and the 6000 bits
# `test_cli.py` reads to build an undecidable query
PINNED_LADDER = (list(range(8, 257)) + [64 << j for j in range(7)]
                 + [(64 << j) + 8 for j in range(7)] + [6000])

# ln arguments on both sides of sqrt(2)*2^e (sqrt(2) = 1.41421356...) and of
# 2^e/sqrt(2), for e < 0, e = 0 and e > 0
PINNED_LN_ARGS = (Fraction(7, 20), Fraction(17, 48), Fraction(12, 17), Fraction(5, 7),
                  Fraction(7, 5), Fraction(17, 12), Fraction(140, 99), Fraction(99, 70),
                  Fraction(56, 5), Fraction(34, 3), Fraction(3 << 40, 17), Fraction(1, 10**9))
PINNED_LN_BITS = (16, 17, 64, 100, 256, 1024)


class TestPinnedEnclosures:
    """sha256 of every endpoint of the enclosures that decide the theorem's
    side of ln(4/3), so a change of kernel must reproduce them exactly."""

    @staticmethod
    def _digest(encs) -> str:
        return hashlib.sha256(repr([e._values() for e in encs]).encode()).hexdigest()

    def test_c_enclosure_ladder(self):
        assert self._digest(c_enclosure(bits) for bits in PINNED_LADDER) == (
            "6325ca1fc086ebe8dd42ba86269cc23dbc1802d62e27233d6ee3a2cbff32d5cb")

    def test_b_enclosure_ladder(self):
        assert self._digest(b_enclosure(bits) for bits in PINNED_LADDER) == (
            "8443332d4b1ffca90ccd25421d341be835ec7ebbb383f282d5fc597c39d50d63")

    def test_ln_enclosure_on_both_sides_of_the_reduction_bounds(self):
        assert self._digest(ln_enclosure(x, bits) for x in PINNED_LN_ARGS
                            for bits in PINNED_LN_BITS) == (
            "f2645b987e1de10a92a571809b9112a96e4248f81b3a89f9196e5d8383fdfda1")
