"""Exact rational functions: the derivative rules, equality of unreduced forms
and the positivity certificate; the integer scans that the certificates
replaced in the five-case verifier stay here as exact oracles."""

from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from binexceed.algebra import Rational, X

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


def test_positive_from_is_sufficient_only():
    assert ((X + 1) ** 2).positive_from(0)
    assert not (X - 1).positive_from(0)
    assert not (X - 1).positive_from(1)         # zero at the start point
    assert (X - 1).positive_from(2)
    # x^2 - x + 1 >= 3/4 everywhere, but its coefficient -1 at a = 0 is refused
    assert not (X * X - X + 1).positive_from(0)
    assert (X * X - X + 1).positive_from(1)
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
