"""Exact decimal text of ints and rationals of any size, with no digit limit.

CPython 3.11's str(int) is quadratic and refuses over 4300 digits by default;
tails at large n have ~60k.  `int_str` splits on bit halves and recombines in
`decimal` at unlimited precision with `Inexact` trapped, as CPython 3.12's
`_pylong` does (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7).  It
splits at the fixed powers 2^(_LEAF_BITS * 2^k), so one bounded table of them
serves every call.  `parse_fraction` reads text back through `decimal`, exact
at any length where int(str) refuses over 4300 digits, and `_from_decimal`
splits the Decimal the same way, as int(Decimal) is quadratic.  `_to_decimal`
and `_EXACT` serve callers that compute in decimal: the CLI forms every exact
tail it prints, 1 - (1-p)^n among them, from decimal powers of b.
Large powers and products go through `_pow` and `_mul`, which pad an operand
past libmpdec's schoolbook band, where Karatsuba or a transform takes it, and
shift back: the same digits as `x ** e` and `x * y`, faster at 8k-16k bits.
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


def _from_decimal(d: decimal.Decimal) -> int:
    """int(d) for an integral Decimal d >= 0, the inverse of `_to_decimal`: `bits` is
    a floor on d's bits (3.321 < log2 10), so _power(k) <= d and both parts shrink."""
    bits = d.adjusted() * 3321 // 1000 + 1
    if bits <= _LEAF_BITS:
        return int(d)
    k = ((bits - 1) // _LEAF_BITS).bit_length() - 1
    with decimal.localcontext(_EXACT):
        hi, lo = divmod(d, _power(k))
    return (_from_decimal(hi) << (_LEAF_BITS << k)) + _from_decimal(lo)


# libmpdec, the C of `decimal`, keeps a coefficient in words of 19 digits (on a
# 64-bit build) and multiplies by schoolbook while the shorter operand has at
# most 256 words; past that Karatsuba or its number-theoretic transform runs
_WORD_DIGITS = 19
_SCHOOLBOOK_WORDS = 256


def _mul(x: decimal.Decimal, y: decimal.Decimal) -> decimal.Decimal:
    """x * y for integral Decimals x, y >= 0 of exponent 0, in _EXACT.

    While the shorter operand has more than half the band's words, each
    operand inside the band gets trailing zeros up to one word past it, by a
    quantize to a negative exponent, and the product is quantized back to
    exponent 0: exact shifts, so the text is str(x * y).  A square of 200
    words then takes 0.17 ms where schoolbook takes 0.38 ms (Python 3.11.7, a
    2-vCPU Xeon).  Below half the band, padding would more than double the
    operand, and at 129-135 words the two already cost the same."""
    band = _SCHOOLBOOK_WORDS * _WORD_DIGITS
    if not band // 2 < min(x.adjusted(), y.adjusted()) + 1 <= band:
        return x * y

    def padded(v):
        digits = v.adjusted() + 1
        return v if digits > band else v.quantize(decimal.Decimal((0, (1,), digits - band - 1)))

    return (padded(x) * padded(y)).quantize(decimal.Decimal(1))


def _pow(x: decimal.Decimal, e: int) -> decimal.Decimal:
    """x ** e for an integral Decimal x >= 0 of exponent 0 and an int e >= 0, in
    _EXACT: a left-to-right ladder whose squares and products go through _mul.

    libmpdec's own `x ** e` squares in C, so its squares cannot leave the
    schoolbook band.  Where e * digits(x), a ceiling on the digits of x^e,
    fits in the band, no square of the ladder would reach half of it, and
    `x ** e` serves as it is."""
    if e * (x.adjusted() + 1) <= _SCHOOLBOOK_WORDS * _WORD_DIGITS:
        return x ** e
    r = x
    for bit in bin(e)[3:]:
        r = _mul(r, r)
        if bit == "1":
            r = _mul(r, x)
    return r


def int_str(n: int) -> str:
    """str(n) for an int of any size, in subquadratic time."""
    if n < 0:
        return "-" + int_str(-n)
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    with decimal.localcontext(_EXACT):
        return str(_to_decimal(n))


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
    if exp is not None and decimal.Decimal(exp).copy_abs() > MAX_EXPONENT:
        raise ValueError("decimal exponent out of range")
    if den is not None:
        num, den = _from_decimal(decimal.Decimal(num)), _from_decimal(decimal.Decimal(den))
        return Fraction(-num if sign == "-" else num, den)
    return Fraction(decimal.Decimal(f"{sign}{num or 0}.{frac or 0}e{exp or 0}"))
