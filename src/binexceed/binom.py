"""Exact binomial pmf and tail probabilities for rational success probability.

Everything here is exact; there is no floating point anywhere.  The central
quantity is the strict exceedance probability P(X > E X) = P(X >= floor(np)
+ 1), returned as an exact fraction with the threshold that realizes it.
Tails are integer numerators over b^n for p = a/b, so a sweep compares them
by cross-multiplication without building a fraction: summed in Horner form
up to _BLOCK terms, past that in halves joined by balanced products, or, for
a grid sweep, carried from n - 1 trials to n by Pascal's rule in one
generator per grid column.  The summing kernel returns the numerator
factored, as x^e * s or b^n - x^e * s, so a caller can form the powers as
ints or, to print them, as decimals.
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
    """The integer T with P(X >= k) = T / b^n for p = a/b, reduced or not:
    _tail_form evaluated on ints."""
    lower, e, s = _tail_form(n, a, b, k)
    return b**n - (b - a) ** e * s if lower else a**e * s


def _tail_form(n: int, a: int, b: int, k: int) -> tuple[bool, int, int]:
    """(lower, e, s) with T = b^n P(X >= k) for p = a/b equal to a^e * s, or
    with lower to b^n - (b-a)^e * s; s = 0 where T is 0 or b^n.

    Sums whichever of {k..n} and {0..k-1} has fewer terms and complements.
    With qa = b - a, T = a^k * sum_{j>=k} c_j a^(j-k) with c_j = C(n,j)
    qa^(n-j), or T = b^n - qa^(n-k+1) * sum_{j<k} c_j qa^(k-1-j) with c_j =
    C(n,j) a^j.  The power and b^n are left to the caller, which forms them as
    ints or, for text, as decimals.

    A sum of at most _BLOCK terms runs in Horner form, from j = n down or
    from j = 0 up, each c_j being c_(j+1) * (j+1)*qa / (n-j), or c_(j-1) *
    (n-j+1)*a / j: exact, as the quotient is the integer c_j, and by a
    divisor of one 30-bit digit.  A longer sum goes to _binomial_sum from j =
    0: the lower sum is sum_{j<k} C(n,j) a^j qa^(k-1-j) as it stands, and
    with i = n - j and C(n,j) = C(n,i) the upper is sum_{i<n-k+1} C(n,i) qa^i
    a^(n-k-i).  Its leaves carry products of small factors in place of the
    n-bit C(n,j), so 10^5 trials at p = 1/2 take 0.3 to 0.37 s where one
    loop took 1.2 to 1.3 s.
    """
    if k == n + 1 or (a == 0 and k > 0):
        return False, 1, 0
    if k == 0 or a == b:
        return True, 1, 0
    qa = b - a
    if min(n - k + 1, k) > _BLOCK:
        if n - k + 1 <= k:
            return False, k, _binomial_sum(n, qa, a, 0, n - k + 1)
        return True, n - k + 1, _binomial_sum(n, a, qa, 0, k)
    c = acc = 1
    if n - k + 1 <= k:
        for j in range(n - 1, k - 1, -1):
            c = c * ((j + 1) * qa) // (n - j)       # C(n,j) qa^(n-j)
            acc = acc * a + c
        return False, k, acc
    for j in range(1, k):
        c = c * ((n - j + 1) * a) // j              # C(n,j) a^j
        acc = acc * qa + c
    return True, n - k + 1, acc


# the longest sum run as one Horner loop, and the longest leaf of _halves.
# Kernel time of the 804 queries of perfbench point_block(4..7) (n <= 5000,
# mostly 20-bit b), median of 11 alternated passes, at 48 / 64 / 80 / 96 /
# 128: 92.5 / 91.1 / 90.9 / 92.2 / 94.1 ms, and 128.6 ms with n-bit leaves.
# At 128 a sum of 65 to 128 terms runs as one loop, which at n = 200 to 300
# and 20-bit b takes 1.3 to 1.8 times as long as two leaves; 10^5 trials at
# p = 1/2 take 0.29 s there and 0.34 s at 64.  A chain value of the sweep
# (n <= 40) sums at most 20 terms and never splits.
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


def _binomial_sum(n: int, x: int, y: int, lo: int, hi: int) -> int:
    """sum_{lo<=j<hi} C(n,j) x^(j-lo) y^(hi-1-j), exact, for 0 <= lo < hi <= n+1.

    Halves the range while it has more than _BLOCK terms, so big operands meet
    in balanced products (binary splitting: Brent & Zimmermann, *Modern
    Computer Arithmetic*, section 4.9), and joins the halves as left *
    y^(hi-mid) + x^(mid-lo) * right.
    """
    return _halves(n, x, y, lo, hi, math.comb(n, lo), False)[0]


def _halves(n: int, x: int, y: int, lo: int, hi: int, c: int,
            more: bool) -> tuple[int, int | None]:
    """(_binomial_sum(n, x, y, lo, hi), C(n, hi) if more else None) from c = C(n, lo).

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
