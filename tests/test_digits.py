"""digits.int_str, the decimal powers and the CLI's exact tail at k = 1,
1 - (1-p)^n, against str() and libmpdec, with no digit limit set."""

import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from binexceed import cli, digits
from binexceed.digits import int_str

LEAF = digits._LEAF_BITS
WORD = digits._WORD_DIGITS
BAND = digits._SCHOOLBOOK_WORDS
MILLION_BIT_B = 3**630930                       # 1,000,001 bits


# (a, b, n), p = a/b in lowest terms, for the texts of b^n - (b-a)^n and b^n
CASES = [
    # either side of the leaf: b^n of 2048 and 2052 bits, b of 2048 and 2049
    (3, 10, 512), (3, 10, 513), (2, 2**2048 - 1, 1), (1, 2**2048, 1),
    # either side of the band: n * digits(b) = BAND * WORD, then 2 more
    (3, 10, BAND * WORD // 2), (3, 10, BAND * WORD // 2 + 1),
    (1, 10, 3000), (1, 1000, 3000), (361046, 960047, 4948),
    # p = 0: the difference is 0
    (0, 1, 1000), (0, 1, 5000),
    # a 10^6-bit b at n = 1
    (2, MILLION_BIT_B, 1),
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


def test_tail_at_one_forms_b_to_the_n_once(monkeypatch):
    # cli._exact_tail(n, a, b, 1) is check's 1 - (1-p)^n in lowest terms
    expected = plain_str([v for a, b, n in CASES for v in (b**n - (b - a)**n, b**n)],
                         monkeypatch)
    converted = []
    to_decimal = digits._to_decimal

    def recording(m):
        converted.append(m)
        return to_decimal(m)

    monkeypatch.setattr(digits, "_to_decimal", recording)
    monkeypatch.setattr(cli, "_to_decimal", recording)
    texts = []
    with decimal.localcontext(digits._EXACT):
        for a, b, n in CASES:
            converted.clear()
            texts.extend(map(str, cli._exact_tail(n, a, b, 1)))
            assert converted.count(b) == 1
    assert texts == expected


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


@st.composite
def integral(draw) -> decimal.Decimal:
    """0 or 1 one time in ten, else an integral Decimal of 120-260 words of
    WORD digits, around the schoolbook band, five times in eight and of 1-600
    words otherwise, some ending in runs of zeros.  Its digits come from a
    seeded Random, so hypothesis records only the seed: it reports its draws
    with repr, which refuses an int of over 4300 digits."""
    kind = draw(st.integers(0, 9))
    if kind < 2:
        return decimal.Decimal(kind)
    words = draw(st.integers(120, 260) if kind < 7 else st.integers(1, 600))
    length = draw(st.integers((words - 1) * WORD + 1, words * WORD))
    zeros = min(draw(st.sampled_from([0, 0, 1, WORD, length // 2])), length - 1)
    rng = draw(st.randoms(use_true_random=True))
    head = rng.randrange(10 ** (length - zeros - 1), 10 ** (length - zeros))
    return decimal.Decimal(head * 10**zeros)


def band_edge(words: int) -> decimal.Decimal:
    """An integral Decimal of exactly `words` words."""
    return decimal.Decimal(7 * 10 ** ((words - 1) * WORD) + 1)


@given(integral(), integral(), st.booleans())
@example(band_edge(BAND // 2), band_edge(BAND // 2), True)
@example(band_edge(BAND // 2 + 1), band_edge(BAND // 2 + 1), True)
@example(band_edge(BAND), band_edge(BAND), True)
@example(band_edge(BAND + 1), band_edge(BAND + 1), True)
@example(band_edge(BAND // 2 + 1), band_edge(1200), False)
@example(band_edge(BAND), band_edge(BAND // 2 + 1), False)
def test_mul_is_the_product_of_libmpdec(x, y, square):
    with decimal.localcontext(digits._EXACT):
        y = x if square else y
        assert str(digits._mul(x, y)) == str(x * y)


@given(integral(), st.data())
@example(band_edge(BAND // 2 + 1), None)     # x^2 by a padded square of 129 words
@example(band_edge(BAND // 2), None)         # and by x ** 2, of 128
def test_pow_is_the_power_of_libmpdec(x, data):
    # the ladder runs where e * digits(x) passes the band; x^e stays under ~50k
    # digits.  e >= 1, as 0 ** 0 is an invalid operation in decimal
    bound = 2 * 600 * WORD // (x.adjusted() + 1) + 2
    e = 2 if data is None else data.draw(st.integers(1, bound))
    with decimal.localcontext(digits._EXACT):
        assert str(digits._pow(x, e)) == str(x**e)


def test_power_under_the_band_is_libmpdec_s_own(monkeypatch):
    # 337^e with e * 3 digits up to the band is one x ** e and no _mul; one past it, the ladder
    powers, products = [], []

    class Counting(decimal.Decimal):
        def __pow__(self, e, mod=None):
            powers.append(e)
            return decimal.Decimal(self) ** e

    mul = digits._mul
    monkeypatch.setattr(digits, "_mul", lambda x, y: products.append(x) or mul(x, y))
    top = BAND * WORD // 3
    with decimal.localcontext(digits._EXACT):
        for e in (0, 1, top, top + 1):
            assert str(digits._pow(Counting(337), e)) == str(decimal.Decimal(337) ** e)
    assert powers == [0, 1, top] and products
