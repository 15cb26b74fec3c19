"""Independent reference evaluations for the test suite.

These deliberately avoid the library's own code paths: tails come from a
direct per-outcome enumeration, elementary functions from mpmath (a separate
arbitrary-precision implementation), and the threshold constant from a plain
Fraction power series.
"""

from fractions import Fraction
import math

import mpmath


def tail_by_enumeration(n: int, p: Fraction) -> Fraction:
    """P(X > n*p) as a literal sum of pmf terms over {k : k > n*p}."""
    p = Fraction(p)
    mean = n * p
    return sum(
        (Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
         for k in range(n + 1) if k > mean),
        Fraction(0),
    )


def survival_by_enumeration(n: int, p: Fraction, k0: int) -> Fraction:
    p = Fraction(p)
    return sum(
        (Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
         for k in range(k0, n + 1)),
        Fraction(0),
    )


def mp_point(fn_name: str, x: Fraction, prec: int = 200) -> Fraction:
    """fn(x) evaluated by mpmath, floored to the 2^-prec grid.

    The result is within 2^-prec of the true value, far tighter than any
    enclosure the tests compare against.
    """
    fn = {"ln": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt,
          "atanh": mpmath.atanh}[fn_name]
    with mpmath.workprec(prec + 40):
        value = fn(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
        scaled = int(mpmath.floor(value * mpmath.power(2, prec)))
    return Fraction(scaled, 2**prec)


def ln43_series_lower(terms: int = 60) -> Fraction:
    """Partial sum of ln(4/3) = 2*atanh(1/7); a strict lower bound.

    The truncation error is below (1/7)^(2*terms+1), i.e. far beyond any
    digit count asserted in the tests.
    """
    t = Fraction(1, 7)
    total = Fraction(0)
    power = t
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= t * t
    return 2 * total
