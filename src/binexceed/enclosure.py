"""Certified interval enclosures over exact rational arithmetic.

Every real constant that is not a rational number (ln(4/3), e^x, square
roots, ...) is represented by an interval [lo, hi] with exact `Fraction`
endpoints that provably contains the true value.  Comparisons against such
constants are decided only when the intervals separate; otherwise precision
is doubled up to a hard cap, and hitting the cap raises instead of guessing.

Series evaluation keeps partial sums as dyadic rationals (integer mantissa
over a power of two), so the final interval is a rigorous enclosure by
construction:

* ln(x) = e*ln(2) + 2*atanh(t) after reducing x = 2^e * m with
  1/2 <= m^2 < 2 (exact integer tests) and t = (m-1)/(m+1),
  |t| <= 3 - 2*sqrt(2) < 0.172; ln(4/3) is the single series 2*atanh(1/7).
  atanh runs its odd power series on one floor-rounded track, a group of
  terms a step: the track moves by t^(2G) and the group's G terms are added
  as one floor of the track times their exact rational sum, so the rounding
  error (under 3 ulp a group) and the geometric tail are bounded explicitly.
* e^x via Taylor series on y = x/2^s, |y| <= 1/2, on a lower track rounded
  toward -inf and an upper track rounded toward +inf, followed by s interval
  squarings.
* sqrt(x) via integer square roots of scaled numerators; degenerates to an
  exact point when x is the square of a rational.

All enclosure constructors return intervals of width exactly 2^-precision
(times a power-of-two scale for exp of large arguments), so the width
halves each time `precision_bits` increases by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Union

from .digits import fraction_str

DEFAULT_PRECISION_BITS = 64
PRECISION_CAP = 4096
_MIN_PRECISION_BITS = 8


class UndecidedComparisonError(ArithmeticError):
    """A certified comparison could not be decided at the precision cap."""


class PreconditionError(ValueError):
    """A documented hypothesis of an operation is violated by the inputs."""


def as_fraction(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (binary floats are never exact here)."""
    if type(value) is Fraction:
        return value            # immutable: Fraction(value) would only copy it
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass a Fraction or int")
    return Fraction(value)


def _ceil_div(a: int, b: int) -> int:
    # ceiling of a/b for b > 0, any sign of a
    return -((-a) // b)


class _FrozenRecord:
    """Immutable record whose fields are its `__slots__`: equality, hash, repr
    and pickling go field by field.  A subclass `__init__` validates its inputs
    and sets each field once through `object.__setattr__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Enclosure(_FrozenRecord):
    """Closed interval [lo, hi] with exact rational endpoints.

    Invariant: lo <= hi, and for a constructed constant the true real value
    lies inside.  Arithmetic on enclosures uses exact rational endpoint
    arithmetic, so no additional rounding error is ever introduced.
    """

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo, hi, precision_bits: int = DEFAULT_PRECISION_BITS):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        if precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "precision_bits", precision_bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def _coerce(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return other
        return Enclosure(other, other, self.precision_bits)

    def __add__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi,
                         min(self.precision_bits, o.precision_bits))

    def __sub__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo,
                         min(self.precision_bits, o.precision_bits))

    def __rsub__(self, other) -> "Enclosure":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Enclosure":
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(products), max(products),
                         min(self.precision_bits, o.precision_bits))

    def __truediv__(self, other) -> "Enclosure":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Enclosure(min(quotients), max(quotients),
                         min(self.precision_bits, o.precision_bits))

    def __rtruediv__(self, other) -> "Enclosure":
        return self._coerce(other) / self

    def __str__(self) -> str:
        return f"[{fraction_str(self.lo)}, {fraction_str(self.hi)}]"


class Verdict(NamedTuple):
    """Outcome of a rigorously decided comparison.

    Only ever produced when the decision is certain: either both operands
    were exact rationals, or the enclosures separated.  `witness` records
    the quantity whose sign decided the comparison.
    """

    value: bool
    witness: Union[Enclosure, Fraction, None] = None

    def __bool__(self) -> bool:
        return self.value

    @property
    def text(self) -> str:
        return "TRUE" if self.value else "FALSE"


# ---------------------------------------------------------------------------
# Dyadic series kernels, on integer mantissas at scale 2^-W.
# ---------------------------------------------------------------------------

# the atanh series' terms per group: one floor-track step and one floor
# division of the group's exact sum each.  Best of 15 (of 7 for ln 2 and t
# below) in one interpreter: _atanh_dyadic(1, 7, 4104), ln(4/3) at 4096 bits,
# at G = 1 / 4 / 8 / 16 / 32 / 64, 1.22 / 0.55 / 0.45 / 0.30 / 0.27 / 0.27 ms;
# (1, 3, 4104), ln 2, at G = 4 / 8 / 16 / 32, 0.97 / 0.65 / 0.56 / 0.48 ms,
# against 1.96 ms one term a step; at t just below 3 - 2*sqrt(2), whose num
# and den have 67 bits, 1.87 / 1.70 / 1.80 / 2.20 ms against 2.33 ms, as each
# group's R and D grow with G
_ATANH_GROUP = 16
# mantissas of _atanh_dyadic and _ln2_tight are at scale 2^-(target_bits + 24)
_ATANH_GUARD_BITS = 24


def _atanh_dyadic(num: int, den: int, target_bits: int) -> tuple[int, int]:
    """Mantissas [lo, hi] at scale 2^-W, W = target_bits + 24, enclosing
    atanh(t), t = num/den in [0, 1/3], with hi - lo <= 2^(W - target_bits).

    One floor track, G = _ATANH_GROUP terms a step.  With t^2 = p/q exact,
    x starts at floor(t * 2^W) and steps to floor(x * p^G / q^G), so at each
    group start 0 <= t^(2k+1) * 2^W - x < 1 + t^(2G) + t^(4G) + ... =
    1/(1 - t^(2G)) <= 9/8.  The group of terms k .. k+G-1 adds
    floor(x * R / D), R/D = sum_{j<G} t^(2j)/(2k+2j+1) exactly, and R/D <= 9/8,
    so each group is below its exact sum by less than 9/8 * 9/8 + 1 < 3, and
    after g groups of k terms the exact partial sum lies in [s, s + 3g).  The
    tail t^(2k+1) * 2^W / ((2k+1)(1 - t^2)) is at most 2(x + 2)/(2k+1), whose
    ceiling is rem.  So atanh(t) * 2^W lies in [s, s + 3g + rem].
    """
    if num == 0:
        return 0, 0
    W = target_bits + _ATANH_GUARD_BITS
    p, q = num * num, den * den
    p_step, q_step = p ** _ATANH_GROUP, q ** _ATANH_GROUP
    x = (num << W) // den
    s = k = groups = 0
    rem_stop = 1 << (W - target_bits - 4)
    while True:
        # R/D by Horner from the group's last term: 1/d + (p/q) * R/D
        d = 2 * (k + _ATANH_GROUP) - 1
        R, D = 1, d
        for _ in range(_ATANH_GROUP - 1):
            d -= 2
            R, D = q * D + d * p * R, d * q * D
        s += x * R // D
        x = x * p_step // q_step
        k += _ATANH_GROUP
        groups += 1
        # stop once the tail's ceiling is <= rem_stop, tested without the big division
        if 2 * (x + 2) <= rem_stop * (2 * k + 1):
            break
    rem = _ceil_div(2 * (x + 2), 2 * k + 1)
    slack = 3 * groups + rem
    if slack > 1 << _ATANH_GUARD_BITS:
        raise ArithmeticError(f"atanh slack {slack} past 2^{_ATANH_GUARD_BITS} ulp")
    return s, s + slack


def _ln2_tight(target_bits: int) -> tuple[int, int]:
    # ln 2 = 2 * atanh(1/3): the mantissas of atanh(1/3) at 2^-(target_bits + 25)
    # are those of ln 2 at 2^-(target_bits + 24), width <= 2^-target_bits
    return _atanh_dyadic(1, 3, target_bits + 1)


def _exp_taylor_dyadic(num: int, den: int, W: int) -> tuple[int, int]:
    """Mantissa enclosure of e^(num/den) at scale 2^-W, for |num/den| <= 1/2."""
    s_lo = s_hi = 1 << W                             # j = 0 term
    t_lo = t_hi = 1 << W
    j = 0
    while True:
        j += 1
        d = den * j
        if num >= 0:
            t_lo, t_hi = (t_lo * num) // d, _ceil_div(t_hi * num, d)
        else:
            t_lo, t_hi = (t_hi * num) // d, _ceil_div(t_lo * num, d)
        s_lo += t_lo
        s_hi += t_hi
        bound = max(abs(t_lo), abs(t_hi))
        if 2 * bound + 1 < 8:                       # tail <= 2*|next term|, down to ulp level
            rem = 2 * bound + 1
            return s_lo - rem, s_hi + rem


def _grid_normalize(lo: int, hi: int, W: int, precision_bits: int,
                    scale_exp: int = 0) -> Enclosure:
    """Pad a tight enclosure [lo, hi] * 2^-W, lo and hi integer mantissas, to
    width exactly 2^(scale_exp - precision_bits), for scale_exp >= 0.

    Requires hi - lo <= 4 quanta of 2^(scale_exp - precision_bits - 3), and
    raises ArithmeticError otherwise; the midpoint is floored to that quantum
    so rebuilding at higher precision always yields a strictly narrower
    interval.
    """
    e = scale_exp - precision_bits - 3              # one quantum is 2^e
    shift = W + e                                   # and 2^shift ulp
    if shift < 0 or hi - lo > 4 << shift:
        raise ArithmeticError(f"interval of {hi - lo} ulp at 2^-{W} is wider than 4 quanta "
                              f"of 2^{e}")
    mid = (lo + hi) >> (shift + 1)
    # the endpoints are (mid -+ 4) * 2^e
    up, den = max(0, e), 1 << max(0, -e)
    return Enclosure(Fraction((mid - 4) << up, den), Fraction((mid + 4) << up, den),
                     precision_bits)


def _check_precision(precision_bits: int) -> None:
    # the PRECISION_CAP is enforced by the comparisons' refinement loop (_refine);
    # constructors only validate the documented minimum
    if precision_bits < _MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {_MIN_PRECISION_BITS}")


# ---------------------------------------------------------------------------
# Enclosure constructors
# ---------------------------------------------------------------------------

def ln_enclosure(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Certified enclosure of ln(x) for rational x > 0, width exactly 2^-precision_bits."""
    _check_precision(precision_bits)
    x = as_fraction(x)
    if x <= 0:
        raise ValueError("ln requires x > 0")
    # reduce x = 2^e * m, m = a/b with 1/2 <= m^2 < 2; m starts in (1/2, 2)
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    a, b = a << max(0, -e), b << max(0, e)
    if 2 * a * a < b * b:
        e, a = e - 1, 2 * a
    elif a * a >= 2 * b * b:
        e, b = e + 1, 2 * b
    t = Fraction(a - b, a + b)                       # |t| <= 3 - 2*sqrt(2) < 0.172
    part_bits = precision_bits + 8 + abs(e).bit_length()
    # ln = 2 atanh(t) + e ln 2, on mantissas at 2^-(part_bits + 24)
    at_lo, at_hi = _atanh_dyadic(abs(t.numerator), t.denominator, part_bits)
    if t < 0:
        at_lo, at_hi = -at_hi, -at_lo
    lo = 2 * at_lo
    hi = 2 * at_hi
    if e != 0:
        l2_lo, l2_hi = _ln2_tight(part_bits)
        if e > 0:
            lo, hi = lo + e * l2_lo, hi + e * l2_hi
        else:
            lo, hi = lo + e * l2_hi, hi + e * l2_lo
    return _grid_normalize(lo, hi, part_bits + _ATANH_GUARD_BITS, precision_bits)


def exp_enclosure(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Certified enclosure of e^x for rational x.

    Width is exactly 2^(k - precision_bits) where 2^k is the largest power
    of two not exceeding max(1, e^x), i.e. the usual relative-style bound.
    """
    _check_precision(precision_bits)
    x = as_fraction(x)
    # power-of-two scale 2^k <= max(1, e^x)
    if x <= 0:
        k = 0
    else:
        _, l2_hi = _ln2_tight(16)                   # ln 2 <= l2_hi * 2^-(16 + 24)
        # k = floor(x / (l2_hi * 2^-(16 + 24))), so k*ln2 <= x and 2^k <= e^x
        k = (x.numerator << (16 + _ATANH_GUARD_BITS)) // (x.denominator * l2_hi)
    # halve the argument until |y| <= 1/2
    s = 0
    y = x
    while abs(y) > Fraction(1, 2):
        y /= 2
        s += 1
    W = precision_bits + k + 2 * s + 32
    lo_m, hi_m = _exp_taylor_dyadic(y.numerator, y.denominator, W)
    for _ in range(s):
        lo_m, hi_m = (lo_m * lo_m) >> W, _ceil_div(hi_m * hi_m, 1 << W)
    return _grid_normalize(lo_m, hi_m, W, precision_bits, scale_exp=k)


def sqrt_enclosure(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Certified enclosure of sqrt(x) for rational x >= 0.

    Exact point interval when x is the square of a rational; otherwise
    width exactly 2^-precision_bits.
    """
    _check_precision(precision_bits)
    x = as_fraction(x)
    if x < 0:
        raise ValueError("sqrt requires x >= 0")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        r = Fraction(rn, rd)
        return Enclosure(r, r, precision_bits)
    W = precision_bits
    scaled = (x.numerator << (2 * W)) // x.denominator
    root = math.isqrt(scaled)
    return Enclosure(Fraction(root, 1 << W), Fraction(root + 1, 1 << W), precision_bits)


def c_enclosure(precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of the threshold constant ln(4/3) = 0.28768..."""
    return _c_cached(precision_bits)


@lru_cache(maxsize=32)
def _c_cached(precision_bits: int) -> Enclosure:
    return ln_enclosure(Fraction(4, 3), precision_bits)


def b_enclosure(precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Enclosure of (1 - e^-ln(4/3)) / ln(4/3) = (1/4) / ln(4/3) = 0.86901..."""
    return _b_cached(precision_bits)


@lru_cache(maxsize=32)
def _b_cached(precision_bits: int) -> Enclosure:
    _check_precision(precision_bits)
    c = c_enclosure(precision_bits + 8)
    # 1/(4c) rounded outwards to mantissas at 2^-W, each end moved by under
    # 2^-W, far below the 2^-(precision_bits + 3) quantum
    W = precision_bits + 64
    lo = (c.hi.denominator << W) // (4 * c.hi.numerator)
    hi = _ceil_div(c.lo.denominator << W, 4 * c.lo.numerator)
    return _grid_normalize(lo, hi, W, precision_bits)


# ---------------------------------------------------------------------------
# Certified comparison
# ---------------------------------------------------------------------------

Refinable = Callable[[int], Enclosure]
Operand = Union[int, Fraction, Enclosure, Refinable]

_RELATIONS = ("<", "<=", ">", ">=", "=")


def _decide(rel: str, a_lo, a_hi, b_lo, b_hi) -> Union[bool, None]:
    # `a rel b` for a in [a_lo, a_hi] and b in [b_lo, b_hi], read off the
    # endpoints: the signs of d = a - b in [a_lo - b_hi, a_hi - b_lo], with no
    # difference formed.  None means the intervals do not separate yet.
    if rel == "<":
        if a_hi < b_lo:
            return True
        if a_lo >= b_hi:
            return False
    elif rel == "<=":
        if a_hi <= b_lo:
            return True
        if a_lo > b_hi:
            return False
    elif rel == ">":
        if a_lo > b_hi:
            return True
        if a_hi <= b_lo:
            return False
    elif rel == ">=":
        if a_lo >= b_hi:
            return True
        if a_hi < b_lo:
            return False
    else:  # "="
        if a_lo == b_hi and a_hi == b_lo:
            return True
        if a_lo > b_hi or a_hi < b_lo:
            return False
    return None


def _difference(x, y, bits: int) -> Union[Enclosure, Fraction]:
    """x - y for x, y as `_refine` returns them: exact when both are exact,
    else the Enclosure that `Enclosure.__sub__` gives, with an exact operand
    as the point at `bits`, formed from the endpoints in one step."""
    if not isinstance(x, Enclosure) and not isinstance(y, Enclosure):
        return x - y
    x_lo, x_hi, x_bits = ((x.lo, x.hi, x.precision_bits) if isinstance(x, Enclosure)
                          else (x, x, bits))
    y_lo, y_hi, y_bits = ((y.lo, y.hi, y.precision_bits) if isinstance(y, Enclosure)
                          else (y, y, bits))
    # Fraction endpoints with x_lo <= x_hi and y_lo <= y_hi, so lo <= hi and
    # the constructor's coercions and check would only repeat what holds
    d = object.__new__(Enclosure)
    object.__setattr__(d, "lo", x_lo - y_hi)
    object.__setattr__(d, "hi", x_hi - y_lo)
    object.__setattr__(d, "precision_bits", min(x_bits, y_bits))
    return d


def _refine(a: Operand, relation: str, b: Operand,
            max_precision_bits: int, start_bits: int) -> tuple:
    """The refinement loop of `compare_certified` and `decide_certified`.

    Returns (outcome, x, y, bits): `a relation b` is `outcome`, decided at
    precision `bits`, where x and y are a and b at that precision, each an
    Enclosure, or the Fraction value of an exact operand.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    exact_a = not isinstance(a, Enclosure) and not callable(a)
    exact_b = not isinstance(b, Enclosure) and not callable(b)
    if not (exact_a and exact_b) and max_precision_bits < start_bits:
        raise ValueError("max_precision_bits must be >= start_bits")
    if exact_a:
        a = as_fraction(a)
    if exact_b:
        b = as_fraction(b)
    refinable = callable(a) or callable(b)
    bits = max(start_bits, _MIN_PRECISION_BITS)
    while True:
        x = a(bits) if callable(a) else a
        y = b(bits) if callable(b) else b
        # an exact operand enters as its own value at both ends
        a_lo, a_hi = (x, x) if exact_a else (x.lo, x.hi)
        b_lo, b_hi = (y, y) if exact_b else (y.lo, y.hi)
        outcome = _decide(relation, a_lo, a_hi, b_lo, b_hi)
        if outcome is not None:
            return outcome, x, y, bits
        if not refinable:
            raise UndecidedComparisonError("intervals overlap and neither operand is "
                                           f"refinable: {_difference(x, y, bits)}")
        if bits >= max_precision_bits:
            raise UndecidedComparisonError(f"undecided at max precision {max_precision_bits}: "
                                           f"{_difference(x, y, bits)}")
        bits = min(2 * bits, max_precision_bits)


def compare_certified(a: Operand, relation: str, b: Operand,
                      max_precision_bits: int = PRECISION_CAP,
                      start_bits: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Rigorously decide `a relation b`.

    Operands may be exact rationals, fixed enclosures, or callables
    precision_bits -> Enclosure (e.g. `c_enclosure`), which are refined by
    doubling the precision until the intervals separate.  Raises
    UndecidedComparisonError when the cap is reached (or when fixed
    intervals overlap and nothing can be refined).  The witness is a - b,
    exact when both operands are, else its enclosure at the deciding
    precision; `decide_certified` decides the same without forming it.
    """
    outcome, x, y, bits = _refine(a, relation, b, max_precision_bits, start_bits)
    return Verdict(outcome, witness=_difference(x, y, bits))


def decide_certified(a: Operand, relation: str, b: Operand,
                     max_precision_bits: int = PRECISION_CAP,
                     start_bits: int = DEFAULT_PRECISION_BITS) -> bool:
    """`compare_certified(...).value`, with no witness formed: the same
    refinement, the same precision reached, the same errors."""
    return _refine(a, relation, b, max_precision_bits, start_bits)[0]
