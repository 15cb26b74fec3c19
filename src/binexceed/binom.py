"""Exact binomial pmf and tail probabilities for rational success probability.

Everything here is exact; there is no floating point anywhere.  The central
quantity is the strict exceedance probability P(X > E X) = P(X >= floor(np)
+ 1), returned as an exact fraction with the threshold that realizes it.
Tails are integer numerators over b^n for p = a/b, so a sweep compares them
by cross-multiplication without building a fraction: summed by binary
splitting, on leaves of at most _BLOCK terms joined by balanced products, or,
for a grid sweep, carried from n - 1 trials to n by Pascal's rule in one
generator per grid column.  The summing kernel returns the numerator
factored, as x^e * s or b^n - x^e * s, so a caller can form the powers as
ints or, to print them, as decimals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .enclosure import _FrozenRecord, as_fraction


class BinomialSpec(_FrozenRecord):
    """Number of trials n >= 1 and exact rational success probability p in [0, 1]."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p):
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        p = as_fraction(p)
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> Fraction:
        return 1 - self.p

    @property
    def mean(self) -> Fraction:
        return self.n * self.p


class ExceedanceRecord(NamedTuple):
    """Exact record of P(X > E X) for one (n, p).

    mean = n*p, m = floor(n*p) + 1 and tail = P(X >= m), all exact; the
    floor is taken by integer division of numerators, never through a
    real-valued intermediate.
    """

    spec: BinomialSpec
    mean: Fraction
    m: int
    tail: Fraction


def pmf(spec: BinomialSpec, k: int) -> Fraction:
    """P(X = k) = C(n,k) p^k (1-p)^(n-k), exact."""
    n = spec.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    a = spec.p.numerator
    b = spec.p.denominator
    return Fraction(math.comb(n, k) * a**k * (b - a) ** (n - k), b**n)


def survival(spec: BinomialSpec, k: int) -> Fraction:
    """P(X >= k), exact, for 0 <= k <= n+1: _survival_numerator over b^n."""
    n = spec.n
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must lie in [0, {n + 1}]")
    b = spec.p.denominator
    return Fraction(_survival_numerator(n, spec.p.numerator, b, k), b**n)


def _survival_numerator(n: int, a: int, b: int, k: int) -> int:
    """The integer T with P(X >= k) = T / b^n for p = a/b, reduced or not:
    _tail_form evaluated on ints."""
    lower, e, s = _tail_form(n, a, b, k)
    return b**n - (b - a) ** e * s if lower else a**e * s


def _tail_form(n: int, a: int, b: int, k: int) -> tuple[bool, int, int]:
    """(lower, e, s) with T = b^n P(X >= k) for p = a/b equal to a^e * s, or
    with lower to b^n - (b-a)^e * s; s = 0 where T is 0 or b^n.

    Sums whichever of {k..n} and {0..k-1} has fewer terms and complements.
    With qa = b - a, T = a^k * sum_{j>=k} C(n,j) qa^(n-j) a^(j-k), or T = b^n
    - qa^(n-k+1) * sum_{j<k} C(n,j) a^j qa^(k-1-j).  Both sums go to
    _binomial_sum from j = 0: the lower as it stands, and the upper with i =
    n - j and C(n,j) = C(n,i), as sum_{i<n-k+1} C(n,i) qa^i a^(n-k-i).  The
    power and b^n are left to the caller, which forms them as ints or, for
    text, as decimals.
    """
    if k == n + 1 or (a == 0 and k > 0):
        return False, 1, 0
    if k == 0 or a == b:
        return True, 1, 0
    if n - k + 1 <= k:
        return False, k, _binomial_sum(n, b - a, a, n - k + 1)
    return True, n - k + 1, _binomial_sum(n, a, b - a, k)


# the longest leaf of _halves.  Kernel time of the 804 queries of perfbench
# point_block(4..7) (n <= 5000, mostly 20-bit b) on a 2-core Xeon, medians of
# 11 alternated passes in three runs, at 48 / 64 / 80 / 96 / 128: 187-210 /
# 195-199 / 180-199 / 190-197 / 176-202 ms, so no size is measurably better.
# A chain value of the sweep (n <= 40) sums at most 20 terms, in one leaf.
_BLOCK = 64


def _grid_tail_rows(n_max: int, grid: int, ks: range):
    """An iterator over n = 1..n_max of the rows of tails T = grid^n P(X >=
    floor(n*k/grid) + 1) of X ~ Bin(n, k/grid), k in ks, each row a fresh list
    read off one _grid_column generator per column.  A row resumes each
    column's frame once, and no list is read or rewritten cell by cell; between
    rows a column keeps only its suspended frame."""
    if not ks:
        return ([] for _ in range(n_max))
    return map(list, zip(*[_grid_column(n_max, grid, k) for k in ks]))


def _grid_column(n_max: int, grid: int, k: int):
    """Yield for n = 1..n_max the tail T = grid^n P(X >= m), m = floor(n*k/grid)
    + 1, of X ~ Bin(n, k/grid), carried from row n - 1 with P, the pmf term at
    m - 1, from T = 0 and P = 1 at n = 0.  Pascal's rule: T <- grid*T + k*P,
    P <- P*n*(grid-k)/(n-m+1), or, when m steps up, P <- P*n*k/m and T <- T -
    P.  Each quotient is an integer term, so a cell costs O(1) operations; the
    small factors are multiplied first, so P meets one small product."""
    t, p, m, qa = 0, 1, 1, grid - k     # m = floor((n-1)*k/grid) + 1
    for n in range(1, n_max + 1):
        if n * k // grid == m:
            q = p * (n * k) // m
            t, p, m = grid * t + k * p - q, q, m + 1
        else:
            t, p = grid * t + k * p, p * (n * qa) // (n - m + 1)
        yield t


def _binomial_sum(n: int, x: int, y: int, hi: int) -> int:
    """sum_{j<hi} C(n,j) x^j y^(hi-1-j), exact, for 0 < hi <= n+1.

    Halves the range while it has more than _BLOCK terms, so big operands meet
    in balanced products (binary splitting: Brent & Zimmermann, *Modern
    Computer Arithmetic*, section 4.9), and joins the halves as left *
    y^(hi-mid) + x^mid * right.
    """
    return _halves(n, x, y, 0, hi, 1, False)[0]


def _halves(n: int, x: int, y: int, lo: int, hi: int, c: int,
            more: bool) -> tuple[int, int | None]:
    """(sum_{lo<=j<hi} C(n,j) x^(j-lo) y^(hi-1-j), C(n, hi) if more else None)
    from c = C(n, lo), for 0 <= lo < hi <= n+1.

    A leaf's terms are C(n,j) x^(j-lo) = c * r_j / q_j, with r_j the product
    of (n-i+1)*x and q_j of i over lo < i <= j.  Horner on acc <- acc * (j*y)
    + r_j sums them times q = q_(hi-1), so the leaf is c * acc / q, an exact
    division: its operands are small products of d = hi - lo factors, where
    a Horner step on C(n,j) itself costs n bits.  A leaf that is not the last
    hands on C(n, hi) = c * C(n-lo, d) / C(hi, d), where math.comb(n, hi) at
    n = 5000 takes 5 to 12 times as long."""
    if hi - lo > _BLOCK:
        mid = (lo + hi) // 2
        left, c = _halves(n, x, y, lo, mid, c, True)
        right, c = _halves(n, x, y, mid, hi, c, more)
        return left * y ** (hi - mid) + x ** (mid - lo) * right, c
    r = acc = q = 1
    for j in range(lo + 1, hi):
        r *= (n - j + 1) * x
        q *= j
        acc = acc * (j * y) + r
    d = hi - lo
    return c * acc // q, c * math.comb(n - lo, d) // math.comb(hi, d) if more else None


def _exceedance(n: int, a: int, b: int) -> tuple[int, int, int]:
    """(m, T, b^n): P(X > E X) = P(X >= m) = T / b^n for p = a/b, m = floor(n*a/b) + 1."""
    m = n * a // b + 1
    return m, _survival_numerator(n, a, b, m), b**n


def _lowest_terms(t: int, b: int, n: int) -> tuple[int, int]:
    """(t / g, g) for g = gcd(t, b^n), stripping only b's primes from t: t / b^n
    in lowest terms is (t / g) / (b^n / g).

    Each strip h = gcd(t, b) is linear in t's size, where math.gcd(t, b^n) is
    quadratic, and takes min(v_r(t), v_r(b)) of each prime r of b; n strips
    take min(v_r(t), n*v_r(b)), so the cap stops t's excess over b^n (2 in 6^n)."""
    g = 1
    while n > 0 and (h := math.gcd(t, b)) > 1:
        t, g, n = t // h, g * h, n - 1
    return t, g


def tail_gt_mean(spec: BinomialSpec) -> ExceedanceRecord:
    """Exact P(X > E X) together with mean and threshold m = floor(np) + 1.

    For p = 1 the mean is n, m = n + 1 and the tail is 0.
    """
    m, tail, den = _exceedance(spec.n, spec.p.numerator, spec.p.denominator)
    return ExceedanceRecord(spec, spec.mean, m, Fraction(tail, den))
