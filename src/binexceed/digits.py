"""Exact decimal text of ints and rationals of any size, with no digit limit.

CPython 3.11's str(int) is quadratic and refuses over 4300 digits by default;
tails at large n have ~60k.  `int_str` splits on bit halves and recombines in
`decimal` at unlimited precision with `Inexact` trapped, as CPython 3.12's
`_pylong` does (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7).
`parse_fraction` reads text back the same way: `decimal` converts a digit
string of any length exactly, where int(str) refuses over 4300 digits.
"""

import decimal
import re
from fractions import Fraction

# below 2^_LEAF_BITS an int has at most 617 digits, under the smallest digit
# limit CPython accepts (640), so plain str never refuses it
_LEAF_BITS = 2048


def int_str(n: int) -> str:
    """str(n) for an int of any size, in subquadratic time."""
    if n < 0:
        return "-" + int_str(-n)
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    powers = {}                                     # h -> Decimal(2^h)

    def convert(m: int, bits: int) -> decimal.Decimal:     # 0 <= m < 2^bits
        if bits <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        if half not in powers:
            powers[half] = convert(1 << half, half + 1)
        hi = m >> half
        return convert(hi, bits - half) * powers[half] + convert(m - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def fraction_str(value) -> str:
    """str(value) for an int or Fraction, "num/den" or "num", of any size."""
    num = int_str(value.numerator)
    return num if value.denominator == 1 else f"{num}/{int_str(value.denominator)}"


def clip(text: str) -> str:
    """text, or its first 40 characters and its length: an error line stays short."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


# 10^MAX_EXPONENT is built exactly, so a larger exponent is refused before
# any power is formed; 10^(10^6) takes a few hundred kB and well under a second
MAX_EXPONENT = 10**6

# the string grammar of fractions.Fraction: "[sign]num/den" or a decimal
_RATIONAL = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:/(?P<den>\d+(_\d+)*)
     |(?:\.(?P<frac>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)


def parse_fraction(text: str) -> Fraction:
    """Fraction(text) for "num/den" or a finite decimal, of any length.

    Accepts exactly the strings Fraction accepts whose decimal exponent lies
    within +-MAX_EXPONENT; raises ValueError on any other and
    ZeroDivisionError on a zero denominator.
    """
    match = _RATIONAL.match(text)
    if match is None:
        raise ValueError("not a rational")
    sign, num, den, frac, exp = match.group("sign", "num", "den", "frac", "exp")
    if exp is not None and abs(decimal.Decimal(exp)) > MAX_EXPONENT:
        raise ValueError("decimal exponent out of range")
    if den is not None:
        return Fraction(int(decimal.Decimal(sign + num)), int(decimal.Decimal(den)))
    return Fraction(decimal.Decimal(f"{sign}{num or 0}.{frac or 0}e{exp or 0}"))
