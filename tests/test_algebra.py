"""Exact rational functions: the derivative rules, equality of unreduced forms,
the exact root count and the positivity certificate built on it; the integer
scans that the certificates replaced in the five-case verifier stay here as
exact oracles."""

import random
from fractions import Fraction
from functools import reduce

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from binexceed.algebra import Rational, X, count_roots

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
polynomials = st.lists(coefficients, min_size=1, max_size=4)
nonzero = polynomials.filter(any)
rationals = st.builds(Rational, polynomials, nonzero)
nonzero_rationals = st.builds(Rational, nonzero, nonzero)


@pytest.mark.parametrize("k", range(0, 8))
def test_power_rule(k):
    assert (X**k).d() == (k * X ** (k - 1) if k else 0)


@settings(max_examples=60)
@given(rationals, rationals)
def test_product_rule(r, s):
    assert (r * s).d() == r.d() * s + r * s.d()


@settings(max_examples=60)
@given(rationals, nonzero_rationals)
def test_division_undoes_multiplication(r, s):
    assert (r / s) * s == r
    assert r / s - r * (1 / s) == 0


@settings(max_examples=60)
@given(nonzero_rationals, nonzero_rationals)
def test_logarithmic_derivative_of_a_product(r, s):
    assert (r * s).dlog() == r.dlog() + s.dlog()


@settings(max_examples=60)
@given(rationals, st.fractions(min_value=7, max_value=20, max_denominator=9))
def test_value_is_the_fraction_arithmetic(r, x):
    num = sum(c * x**k for k, c in enumerate(r.num))
    den = sum(c * x**k for k, c in enumerate(r.den))
    if den:
        assert r(x) == num / den


def test_equality_between_unreduced_forms():
    assert (X * X - 1) / (X - 1) == X + 1
    assert (X - 2) * (3 * X - 2) / ((X - 2) * X) == 3 - 2 / X
    assert (X * X - 1) / (X - 1) != X
    assert X != "x" and (1 - X) == Rational((1, -1), (1,))


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        X / (X - X)


def test_positive_from_is_exact():
    assert ((X + 1) ** 2).positive_from(0)
    assert not (X - 1).positive_from(0)
    assert not (X - 1).positive_from(1)         # zero at the start point
    assert (X - 1).positive_from(2)
    # x^2 - x + 1 >= 3/4 everywhere, though its coefficient -1 at a = 0 is negative
    assert (X * X - X + 1).positive_from(0)
    assert (X * X - X + 1).positive_from(1)
    # two roots in [0, oo) are refused; past both, the sign is read at +oo too
    assert not ((X - 1) * (X - 2)).positive_from(0)
    assert not ((X - 1) * (X - 2)).positive_from(Fraction(3, 2))
    assert ((X - 1) * (X - 2)).positive_from(3)
    assert not (-(X - 1) * (X - 2)).positive_from(3)
    assert not (X - X).positive_from(0)
    # a pole in [a, oo) is refused; the sign of the denominator counts
    assert not (1 / (X - 3)).positive_from(0)
    assert (1 / (X - 3)).positive_from(4)
    assert (-1 / (3 - X)).positive_from(4)
    assert not (1 / (3 - X)).positive_from(4)


def _strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def test_sequences_increase_on_integers():
    # the integer scans that f3_increasing, f1_tilde_increasing and
    # power_sequence_increasing ran before they held for every n
    ns = range(3, 301)
    assert _strictly_increasing(
        [1 - (2 - Fraction(1, n)) * (1 - Fraction(1, n)) ** (n - 1) for n in ns])
    assert _strictly_increasing(
        [Fraction(3 * n - 2, n - 2) * (1 - Fraction(2, n)) ** n for n in ns])
    assert _strictly_increasing([(1 - Fraction(1, n)) ** n for n in range(2, 301)])


def _poly(r: Rational) -> tuple:
    assert r.den == (1,)
    return r.num


def _product(roots) -> Rational:
    return reduce(lambda acc, r: acc * (X - r), roots, Rational((1,)))


@pytest.mark.parametrize("extra, irrational", [
    (Rational((1,)), []),
    (X * X + 1, []),                       # no real root
    (X * X - 2, [2 ** 0.5, -(2 ** 0.5)]),
])
def test_count_roots_at_roots_known_by_construction(extra, irrational):
    rng = random.Random(7)
    for _ in range(40):
        roots = {Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                 for _ in range(rng.randint(0, 5))}
        lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(2))
        repeated = _product(roots) ** 2 * _product(list(roots)[:1])   # multiplicity 2 and 3
        expected = sum(lo <= r <= hi for r in roots) + sum(lo <= r <= hi for r in irrational)
        for poly in (_product(roots) * extra, repeated * extra):
            assert count_roots(_poly(poly), lo, hi) == expected
            assert count_roots(_poly(poly), lo) == (
                sum(r >= lo for r in roots) + sum(r >= lo for r in irrational))


def test_count_roots_reads_closed_ends_and_plus_infinity():
    poly = _poly((X - 1) * (X - 2) * (X - 3))
    assert count_roots(poly, 1, 3) == 3
    assert count_roots(poly, Fraction(3, 2), Fraction(5, 2)) == 1
    assert count_roots(poly, 2, 2) == 1 and count_roots(poly, 4, 4) == 0
    assert count_roots(poly, 0) == 3 and count_roots(poly, 3) == 1
    assert count_roots((Fraction(5),), 0) == 0


def test_count_roots_matches_sympy():
    # sympy's count_roots is an independent Sturm/isolation oracle, used only here
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    for _ in range(300):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 11))]   # degree <= 10
        if rng.random() < 0.3:           # a repeated rational root
            coeffs = _poly(Rational(coeffs[:9]) * (X - rng.randint(-3, 3)) ** 2)
        ours = _poly(Rational(coeffs))
        if not ours:
            continue
        lo, hi = sorted(Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(2))
        expected = sympy.Poly([int(c) for c in reversed(ours)], x).count_roots(
            sympy.Rational(lo.numerator, lo.denominator),
            sympy.Rational(hi.numerator, hi.denominator))
        assert count_roots(ours, lo, hi) == expected, (coeffs, lo, hi)


def test_sign_on_reads_the_gcd_reduced_function():
    assert (X - 1).sign_on(2, 3) == 1 and (1 - X).sign_on(2) == -1
    assert (X - 1).sign_on(0, 2) == 0 and (1 / (X - 1)).sign_on(0, 2) == 0
    # (x - 1)^2 (x + 2) / ((x - 1)(x + 3)) is (x - 1)(x + 2)/(x + 3), a root at 1
    r = (X - 1) ** 2 * (X + 2) / ((X - 1) * (X + 3))
    assert r.sign_on(2, 5) == 1 and r.sign_on(0, 5) == 0 and r.sign_on(-1, 0) == -1
    # a common factor t^2 - 2 cancels: no pole at sqrt 2
    assert ((X * X - 2) * (X + 1) / ((X * X - 2) * (X + 5))).sign_on(1, 2) == 1
    assert (X - X).sign_on(0, 1) == 0
