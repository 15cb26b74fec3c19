"""Exact rational functions of one real variable, for the five-case proof's
derivative identities (`d`, `dlog`) and its signs on an interval or a half-line
(`sign_on`, `positive_from`), decided by an exact root count (`count_roots`).

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


def _at(a: tuple, x) -> Fraction:
    return sum((c * x**k for k, c in enumerate(a)), Fraction(0))


def _divmod(a: tuple, b: tuple) -> tuple:
    # (q, r) with a = q b + r and deg r < deg b, by long division
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        r[k:k + len(b)] = [x - c * y for x, y in zip(r[k:], b)]
    return _trim(q), _trim(r[:len(b) - 1])


def _gcd(a: tuple, b: tuple) -> tuple:
    # monic, by Euclid's algorithm; gcd(0, 0) = 0
    while b:
        a, b = b, _divmod(a, b)[1]
    return _trim(c / a[-1] for c in a)


def count_roots(a: tuple, lo, hi=None) -> int:
    """The distinct real roots of the nonzero polynomial a in [lo, hi], hi = None
    for +oo: by Sturm's theorem the sign changes of s, s', -rem(s, s'), ... for the
    square-free s = a / gcd(a, a') fall by the roots of s in (lo, hi]."""
    seq = [_divmod(a, _gcd(a, _diff(a)))[0]]
    seq.append(_diff(seq[0]))
    while seq[-1]:
        seq.append(_mul((-1,), _divmod(seq[-2], seq[-1])[1]))

    def changes(x) -> int:
        signs = [v > 0 for v in (f[-1] if x is None else _at(f, x) for f in seq[:-1]) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))
    return changes(lo) - changes(hi) + (_at(seq[0], lo) == 0)


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
        return _at(self.num, x) / _at(self.den, x)

    def d(self) -> Rational:
        """The derivative, by the quotient rule: (N'D - ND') / D^2."""
        n, d = self.num, self.den
        return Rational(_add(_mul(_diff(n), d), _mul((-1,), _mul(n, _diff(d)))), _mul(d, d))

    def dlog(self) -> Rational:
        """The logarithmic derivative (ln |R|)' = R' / R."""
        return self.d() / self

    def sign_on(self, lo, hi=None) -> int:
        """+1 or -1 if R has that sign at every real x in [lo, hi] (hi = None for +oo),
        else 0: divided by their exact gcd, num and den have no root there."""
        g = _gcd(self.num, self.den)
        num, den = _divmod(self.num, g)[0], _divmod(self.den, g)[0]
        if not num or count_roots(num, lo, hi) or count_roots(den, lo, hi):
            return 0
        return 1 if _at(num, lo) * _at(den, lo) > 0 else -1

    def positive_from(self, a) -> bool:
        """Decide R(x) > 0 for every real x >= a, exactly."""
        return self.sign_on(a) == 1


X = Rational((0, 1))
