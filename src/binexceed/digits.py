"""Exact decimal text of ints and rationals of any size, with no digit limit.

CPython 3.11's str(int) is quadratic and refuses over 4300 digits by default;
tails at large n have ~60k.  `int_str` splits on bit halves and recombines in
`decimal` at unlimited precision with `Inexact` trapped, as CPython 3.12's
`_pylong` does (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7).  It
splits at the fixed powers 2^(_LEAF_BITS * 2^k), so one bounded table of them
serves every call.  `parse_fraction` reads text back through `decimal` too,
which converts a digit string of any length exactly, where int(str) refuses
over 4300 digits.  `power_str` renders a number of the form (b^n - s^n)/g,
such as the denominator of a tail, as `Decimal(b) ** n`, so only b itself is
converted; `power_pair_str` renders b^n - s^n and b^n from one such power.
"""

import decimal
import re
from fractions import Fraction
from functools import lru_cache

# below 2^_LEAF_BITS an int has at most 617 digits, under the smallest digit
# limit CPython accepts (640), so plain str never refuses it
_LEAF_BITS = 2048

# unlimited precision with Inexact trapped: every result is exact or raises
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                decimal.Overflow, decimal.Inexact])


@lru_cache(maxsize=32)
def _power(k: int) -> decimal.Decimal:
    """Decimal(2^(_LEAF_BITS * 2^k)), exact, squared from the one below.

    The split asks for k only with _LEAF_BITS * 2^k below the bits of an int,
    and k = 31 would need an int of 2^42 bits (512 GiB), so the table's 32
    entries hold every power any call can ask for."""
    with decimal.localcontext(_EXACT):
        return decimal.Decimal(1 << _LEAF_BITS) if k == 0 else _power(k - 1) * _power(k - 1)


def _to_decimal(m: int) -> decimal.Decimal:
    """Decimal(m) for an int m >= 0, in an exact context: split at the largest
    2^h = 2^(_LEAF_BITS * 2^k) below m, so both parts have at most h bits."""
    bits = m.bit_length()
    if bits <= _LEAF_BITS:
        return decimal.Decimal(m)
    k = ((bits - 1) // _LEAF_BITS).bit_length() - 1
    hi = m >> (_LEAF_BITS << k)
    return _to_decimal(hi) * _power(k) + _to_decimal(m - (hi << (_LEAF_BITS << k)))


def int_str(n: int) -> str:
    """str(n) for an int of any size, in subquadratic time."""
    if n < 0:
        return "-" + int_str(-n)
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    with decimal.localcontext(_EXACT):
        return str(_to_decimal(n))


def power_str(value: int, b: int, n: int, s: int = 0, g: int = 1) -> str:
    """str(value) for value = (b^n - s^n) / g, where 0 <= s <= b and g divides b^n - s^n.

    While b^n has at most _LEAF_BITS bits this is str(value).  Past that the
    text comes from Decimal(b)**n - Decimal(s)**n, divided by g, in the exact
    context: value itself is not converted, and only b, s and g go through
    the split of int_str, so a long b at n = 1 stays subquadratic too.
    """
    if n * b.bit_length() <= _LEAF_BITS:
        return str(value)
    with decimal.localcontext(_EXACT):
        x = _to_decimal(b) ** n
        if s:
            x -= _to_decimal(s) ** n
        if g != 1:
            x /= _to_decimal(g)
        return str(x)


def power_pair_str(b: int, n: int, s: int) -> tuple[str, str]:
    """(str(b^n - s^n), str(b^n)) for 0 <= s <= b, as power_str gives each,
    but with b^n formed once for both texts."""
    if n * b.bit_length() <= _LEAF_BITS:
        x = b**n
        return str(x - s**n), str(x)
    with decimal.localcontext(_EXACT):
        x = _to_decimal(b) ** n
        return str(x - _to_decimal(s) ** n), str(x)


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
