"""digits.int_str and power_pair_str against str(), with no digit limit set."""

import decimal
import sys
from fractions import Fraction

import pytest

from binexceed import digits
from binexceed.digits import int_str, power_pair_str

LEAF = digits._LEAF_BITS
MILLION_BIT_B = 3**630930                       # 1,000,001 bits


# (b, n, s) for the texts of b^n - s^n and b^n
CASES = [
    # either side of the leaf: n * bits(b) = 2048 takes str, 2052 the powers
    (10, 512, 0), (10, 513, 0), (2**2048 - 1, 1, 0), (2**2048, 1, 0),
    (10, 3000, 9), (1000, 3000, 999), (960047, 4948, 599001),
    # s = b and b = 1: the difference is 0
    (7, 1000, 7), (1, 5000, 1), (1, 5000, 0),
    # a 10^6-bit b at n = 1
    (MILLION_BIT_B, 1, 0),
]


def plain_str(values, monkeypatch):
    """str() of each value under a lifted digit limit; after it, setting the
    limit raises, so the renderer is checked without touching it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)

    def refuse(_):
        raise AssertionError("the digit limit is interpreter-wide")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    return expected


def test_power_pair_str_forms_b_to_the_n_once(monkeypatch):
    expected = plain_str([v for b, n, s in CASES for v in (b**n - s**n, b**n)], monkeypatch)
    converted = []
    to_decimal = digits._to_decimal

    def recording(m):
        converted.append(m)
        return to_decimal(m)

    monkeypatch.setattr(digits, "_to_decimal", recording)
    texts = []
    for b, n, s in CASES:
        converted.clear()
        texts.extend(power_pair_str(b, n, s))
        # b is converted once past the leaf, s once more when it equals b
        assert converted.count(b) == (n * b.bit_length() > LEAF) * (1 + (s == b))
    assert texts == expected


def test_small_power_is_str_of_the_value(monkeypatch):
    # up to the leaf the text is str(value): no power of b is formed
    def refuse(*_):
        raise AssertionError("a power was converted")

    monkeypatch.setattr(digits, "_to_decimal", refuse)
    assert power_pair_str(10, 512, 3) == (str(10**512 - 3**512), str(10**512))
    assert power_pair_str(2, 1024, 1) == (str(2**1024 - 1), str(2**1024))


def test_int_str_at_the_split_powers(monkeypatch):
    # each side of 2^(LEAF * 2^k), where the split moves to the next power
    values = [v + d for k in range(5) for v in (2 ** (LEAF << k),) for d in (-1, 0, 1)]
    values += [3**209590, 10**50000, 10**50000 - 1, 7 * 10**30000]
    expected = plain_str(values, monkeypatch)
    assert [int_str(v) for v in values] == expected
    assert digits._power.cache_info().maxsize == 32


def test_from_decimal_at_the_split_powers():
    # the inverse of _to_decimal, exact under a coarse context too
    values = [0, 1, 10**616, 10**617]
    values += [v + d for k in range(5) for v in (2 ** (LEAF << k),) for d in (-1, 0, 1)]
    values += [3**209590, 10**50000, 10**50000 - 1, 7 * 10**30000]
    with decimal.localcontext(digits._EXACT):
        decimals = [digits._to_decimal(v) for v in values]
    with decimal.localcontext(decimal.Context(prec=3, traps=[])):
        assert [digits._from_decimal(d) for d in decimals] == values


def test_from_decimal_asks_only_for_powers_below_the_input(monkeypatch):
    # _power's bounded table assumes no split asks for a power past its input
    value = 7 * 10**30000
    with decimal.localcontext(digits._EXACT):
        d = digits._to_decimal(value)
    asked, real = [], digits._power
    monkeypatch.setattr(digits, "_power", lambda k: asked.append(k) or real(k))
    assert digits._from_decimal(d) == value
    assert asked and all(LEAF << k < value.bit_length() for k in asked)


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_parse_fraction_of_long_text(sign):
    # num and den past _power(0) are read by _from_decimal's split
    num, den = 7**900 + 1, 3**5000 * 10**3          # 761 and 2389 digits
    text = f"{sign}{int_str(num)}/{int_str(den)}"
    assert digits.parse_fraction(text) == Fraction(-num if sign == "-" else num, den)
    grouped = f"{sign}{int_str(num)}/{int_str(den)[:1]}_{int_str(den)[1:]}"
    assert digits.parse_fraction(grouped) == digits.parse_fraction(text)
    with pytest.raises(ZeroDivisionError):
        digits.parse_fraction(f"{sign}{int_str(num)}/{'0' * 700}")
