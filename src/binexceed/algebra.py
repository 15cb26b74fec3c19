"""Exact rational functions of one real variable, for the five-case proof's
derivative identities (`d`, `dlog`) and signs on a half-line (`positive_from`).

A polynomial is a tuple of Fractions, lowest degree first, with no trailing
zero.  A `Rational` is a quotient of two, built from `X` and constants; it is
never reduced, and equality is decided by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest


def _trim(coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add(a: tuple, b: tuple) -> tuple:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _diff(a: tuple) -> tuple:
    return _trim(k * a[k] for k in range(1, len(a)))


def _compose(a: tuple, b: tuple) -> tuple:
    # a(b(t)) by Horner's rule; a constant b gives a(b) as () or (value,)
    out = ()
    for c in reversed(a):
        out = _add(_mul(out, b), (c,))
    return out


def _lift(value) -> Rational:
    return value if isinstance(value, Rational) else Rational((value,))


class Rational:
    """num(x) / den(x) for two coefficient tuples, unreduced."""

    def __init__(self, num, den=(1,)):
        self.num, self.den = _trim(num), _trim(den)
        if not self.den:
            raise ZeroDivisionError("rational function with zero denominator")

    def __add__(self, other) -> Rational:
        other = _lift(other)
        return Rational(_add(_mul(self.num, other.den), _mul(other.num, self.den)),
                        _mul(self.den, other.den))

    def __mul__(self, other) -> Rational:
        other = _lift(other)
        return Rational(_mul(self.num, other.num), _mul(self.den, other.den))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> Rational:
        return self * -1

    def __sub__(self, other) -> Rational:
        return self + -_lift(other)

    def __rsub__(self, other) -> Rational:
        return -self + other

    def __truediv__(self, other) -> Rational:
        other = _lift(other)
        return self * Rational(other.den, other.num)

    def __rtruediv__(self, other) -> Rational:
        return _lift(other) / self

    def __pow__(self, k: int) -> Rational:
        return Rational((1,)) if k == 0 else self * self ** (k - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rational, int, Fraction)):
            return NotImplemented
        other = _lift(other)
        return _mul(self.num, other.den) == _mul(other.num, self.den)

    def __call__(self, x) -> Fraction:
        return sum(_compose(self.num, (x,))) / sum(_compose(self.den, (x,)))

    def d(self) -> Rational:
        """The derivative, by the quotient rule: (N'D - ND') / D^2."""
        n, d = self.num, self.den
        return Rational(_add(_mul(_diff(n), d), _mul((-1,), _mul(n, _diff(d)))), _mul(d, d))

    def dlog(self) -> Rational:
        """The logarithmic derivative (ln |R|)' = R' / R."""
        return self.d() / self

    def positive_from(self, a) -> bool:
        """Certify R(x) > 0 for every real x >= a.

        Requires num*den at x = a + t to have no negative coefficient and a positive
        constant term; then num*den > 0, hence R = num*den / den^2 > 0, for t >= 0.
        Sufficient only: x^2 - x + 1 > 0 everywhere, yet a = 0 fails the test.
        """
        shifted = _compose(_mul(self.num, self.den), (Fraction(a), 1))
        return bool(shifted) and shifted[0] > 0 and min(shifted) >= 0


X = Rational((0, 1))
