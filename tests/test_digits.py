"""digits.int_str, power_str and power_pair_str against str(), with no digit limit set."""

import sys

import pytest

from binexceed import digits
from binexceed.digits import int_str, power_pair_str, power_str

LEAF = digits._LEAF_BITS
MILLION_BIT_B = 3**630930                       # 1,000,001 bits


def quotient(b, n, s, g):
    """(value, b, n, s, g) with value = (b^n - s^n) / g."""
    top = b**n - s**n
    assert top % g == 0
    return top // g, b, n, s, g


CASES = [
    # either side of the leaf: n * bits(b) = 2048 takes str, 2052 the powers
    quotient(10, 512, 0, 1), quotient(10, 513, 0, 1),
    quotient(1000, 204, 0, 8), quotient(1000, 205, 0, 8),
    quotient(2**2048 - 1, 1, 0, 1), quotient(2**2048, 1, 0, 1),
    # quotients that end in zeros
    quotient(10, 600, 0, 2), quotient(10, 600, 0, 2**7), quotient(10, 600, 0, 5**20), quotient(1000, 3000, 0, 10**3),
    quotient(1000, 3000, 0, 2**10 * 5**4), quotient(10, 3000, 9, 1),
    # g = b^n: the text is 1
    quotient(10, 600, 0, 10**600), quotient(960047, 4948, 0, 960047**4948),
    quotient(6, 2000, 0, 6**2000),
    # s > 0, with and without a divisor
    quotient(1000, 3000, 999, 1), quotient(960047, 4948, 599001, 1),
    quotient(960047, 4948, 599001, 960047 - 599001), quotient(10, 600, 3, 7),
    quotient(7, 1000, 7, 1), quotient(1, 5000, 1, 1), quotient(1, 5000, 0, 1),
    # a 10^6-bit b at n = 1
    quotient(MILLION_BIT_B, 1, 0, 1), quotient(MILLION_BIT_B, 1, MILLION_BIT_B - 2**20, 2**10),
    quotient(MILLION_BIT_B, 1, 0, 3**630929),
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


def test_power_str_equals_str(monkeypatch):
    expected = plain_str([case[0] for case in CASES], monkeypatch)
    assert [power_str(*case) for case in CASES] == expected
    assert expected[12] == expected[13] == expected[14] == "1"


def test_power_pair_str_forms_b_to_the_n_once(monkeypatch):
    pairs = [(b, n, s) for _, b, n, s, g in CASES if g == 1]
    expected = plain_str([v for b, n, s in pairs for v in (b**n - s**n, b**n)], monkeypatch)
    converted = []
    to_decimal = digits._to_decimal

    def recording(m):
        converted.append(m)
        return to_decimal(m)

    monkeypatch.setattr(digits, "_to_decimal", recording)
    texts = []
    for b, n, s in pairs:
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
    assert power_str(10**512 // 2**7, 10, 512, g=2**7) == str(10**512 // 2**7)
    assert power_str(3, 2, 1024, s=1, g=(2**1024 - 1) // 3) == "3"


def test_int_str_at_the_split_powers(monkeypatch):
    # each side of 2^(LEAF * 2^k), where the split moves to the next power
    values = [v + d for k in range(5) for v in (2 ** (LEAF << k),) for d in (-1, 0, 1)]
    values += [3**209590, 10**50000, 10**50000 - 1, 7 * 10**30000]
    expected = plain_str(values, monkeypatch)
    assert [int_str(v) for v in values] == expected
    assert digits._power.cache_info().maxsize == 32
