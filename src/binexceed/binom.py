"""Exact binomial pmf and tail probabilities for rational success probability.

Everything here is exact; there is no floating point anywhere.  The central
quantity is the strict exceedance probability P(X > E X) = P(X >= floor(np)
+ 1), returned as an exact fraction with the threshold that realizes it.
Tails are integer numerators over b^n for p = a/b, so a sweep compares them
by cross-multiplication without building a fraction: summed in Horner form,
in halves joined by balanced products once the operands would outgrow the
binomial coefficients, or, for a grid sweep, carried from n - 1 trials to n
by Pascal's rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .enclosure import Verdict, _FrozenRecord, as_fraction


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
    """The integer T with P(X >= k) = T / b^n for p = a/b, reduced or not.

    Sums whichever of {k..n} and {0..k-1} has fewer terms, in Horner form, and
    complements.  With qa = b - a, T = a^k * sum_{j>=k} c_j a^(j-k) with
    c_j = C(n,j) qa^(n-j), run from j = n down, or T = b^n - qa^(n-k+1) *
    sum_{j<k} c_j qa^(k-1-j) with c_j = C(n,j) a^j, run from j = 0 up.  Each
    c_j is c_(j+1) * (j+1)*qa / (n-j), or c_(j-1) * (n-j+1)*a / j: exact, as
    the quotient is the integer c_j, and by a divisor of one 30-bit digit.
    Operands grow from one limb; the only big x big product is the last.

    Past _BLOCK terms, a sum whose operands would grow by more than n bits
    (terms * bits(b) > n), more than the largest C(n,j) holds, goes to
    _binomial_sum from j = 0: the lower sum is sum_{j<k} C(n,j) a^j
    qa^(k-1-j) as it stands, and with i = n - j and C(n,j) = C(n,i) the upper
    is sum_{i<n-k+1} C(n,i) qa^i a^(n-k-i).  _binomial_sum splits the range
    at mid and scales the left half by y^(hi-mid) and the right half by
    x^(mid-lo); that regroups the same integer terms, so T is the same
    integer.  Halving saves only the growth, so below n bits of it one loop
    is faster (n = 20000, p = 1/2: 57 ms as one loop, 77 ms in halves).
    """
    if k == n + 1 or (a == 0 and k > 0):
        return 0
    if k == 0 or a == b:
        return b**n
    qa = b - a
    if n > 2 * _BLOCK:                              # else at most _BLOCK terms
        terms = min(n - k + 1, k)
        if terms > _BLOCK and terms * b.bit_length() > n:
            if n - k + 1 <= k:
                return a**k * _binomial_sum(n, qa, a, 0, n - k + 1)
            return b**n - qa ** (n - k + 1) * _binomial_sum(n, a, qa, 0, k)
    c = acc = 1
    if n - k + 1 <= k:
        for j in range(n - 1, k - 1, -1):
            c = c * ((j + 1) * qa) // (n - j)       # C(n,j) qa^(n-j)
            acc = acc * a + c
        return a**k * acc
    for j in range(1, k):
        c = c * ((n - j + 1) * a) // j              # C(n,j) a^j
        acc = acc * qa + c
    return b**n - qa ** (n - k + 1) * acc


# the longest sum run as one Horner loop.  Against one loop, for p = 361046/960047
# in blocks of 64 / 128 / 256: n = 300 0.86 / 0.99 / 0.98 of its time, n = 500
# 0.72 / 0.82 / 1.00, n = 5000 0.41 / 0.43 / 0.50.  A chain value of the sweep
# (n <= 40) sums at most 20 terms and never splits.
_BLOCK = 64


def _grid_tail_rows(n_max: int, grid: int, ks: range):
    """Yield for n = 1..n_max the tails T = grid^n P(X >= floor(n*k/grid) + 1)
    of X ~ Bin(n, k/grid), k in ks, each carried from row n - 1 with P, the pmf
    term at m - 1, from T = 0 and P = 1 at n = 0.  Pascal's rule: T <- grid*T +
    k*P, P <- P*n*(grid-k)/(n-m+1), or, when m steps up, P <- P*n*k/m and T <-
    T - P.  Each quotient is an integer term, so a cell costs O(1) operations."""
    tails, pmfs = [0] * len(ks), [1] * len(ks)
    for n in range(1, n_max + 1):
        for i, k in enumerate(ks):
            m, p = (n - 1) * k // grid + 1, pmfs[i]
            up = n * k // grid == m
            pmfs[i] = p * n * k // m if up else p * n * (grid - k) // (n - m + 1)
            tails[i] = grid * tails[i] + k * p - (pmfs[i] if up else 0)
        yield tails[:]


def _binomial_sum(n: int, x: int, y: int, lo: int, hi: int) -> int:
    """sum_{lo<=j<hi} C(n,j) x^(j-lo) y^(hi-1-j), exact, for 0 <= lo < hi <= n+1.

    Halves the range while it has more than _BLOCK terms, so big operands meet
    in balanced products (Brent & Zimmermann, *Modern Computer Arithmetic*,
    ch. 4), and joins the halves as left * y^(hi-mid) + x^(mid-lo) * right.
    """
    return _halves(n, x, y, lo, hi, math.comb(n, lo))[0]


def _halves(n: int, x: int, y: int, lo: int, hi: int, c: int) -> tuple[int, int]:
    """(_binomial_sum(n, x, y, lo, hi), C(n, hi)) from c = C(n, lo).

    Each leaf runs Horner from C(n, lo), its terms c_j = C(n,j) x^(j-lo) =
    c_(j-1) * (n-j+1)*x / j exact as in _survival_numerator, and hands the
    next leaf C(n, hi) = C(n, lo) * C(n-lo, d) / C(hi, d), d = hi - lo: a
    division by a d-term product, where math.comb(n, hi) at n = 5000 takes
    5 to 12 times as long."""
    if hi - lo > _BLOCK:
        mid = (lo + hi) // 2
        left, c = _halves(n, x, y, lo, mid, c)
        right, c = _halves(n, x, y, mid, hi, c)
        return left * y ** (hi - mid) + x ** (mid - lo) * right, c
    term = acc = c
    for j in range(lo + 1, hi):
        term = term * ((n - j + 1) * x) // j        # C(n,j) x^(j-lo)
        acc = acc * y + term
    d = hi - lo
    return acc, c * math.comb(n - lo, d) // math.comb(hi, d)


def _exceedance(n: int, a: int, b: int) -> tuple[int, int, int]:
    """(m, T, b^n): P(X > E X) = P(X >= m) = T / b^n for p = a/b, m = floor(n*a/b) + 1."""
    m = n * a // b + 1
    return m, _survival_numerator(n, a, b, m), b**n


def _lowest_terms(t: int, den: int, b: int, n: int) -> tuple[int, int]:
    """t / den with den = b^n in lowest terms, stripping only b's primes from t.

    Each strip h = gcd(t, b) is linear in t's size, where math.gcd(t, b^n) is
    quadratic, and takes min(v_r(t), v_r(b)) of each prime r of b; n strips
    take min(v_r(t), n*v_r(b)), so the cap stops t's excess over b^n (2 in 6^n)."""
    g = 1
    while n > 0 and (h := math.gcd(t, b)) > 1:
        t, g, n = t // h, g * h, n - 1
    return t, den // g


def tail_gt_mean(spec: BinomialSpec) -> ExceedanceRecord:
    """Exact P(X > E X) together with mean and threshold m = floor(np) + 1.

    For p = 1 the mean is n, m = n + 1 and the tail is 0.
    """
    m, tail, den = _exceedance(spec.n, spec.p.numerator, spec.p.denominator)
    return ExceedanceRecord(spec, spec.mean, m, Fraction(tail, den))


def stochastic_dominance_check(n: int, p1, p2, k: int) -> Verdict:
    """TRUE iff P(X_{n,p1} >= k) <= P(X_{n,p2} >= k); exact comparison.

    With p1 <= p2 this is the stochastic monotonicity of the binomial
    family in p, returned as a Verdict so tests can assert it wholesale.
    """
    p1 = as_fraction(p1)
    p2 = as_fraction(p2)
    if not 0 <= p1 <= p2 <= 1:
        raise ValueError("need 0 <= p1 <= p2 <= 1")
    s1 = survival(BinomialSpec(n, p1), k)
    s2 = survival(BinomialSpec(n, p2), k)
    return Verdict(s1 <= s2, witness=s2 - s1)
