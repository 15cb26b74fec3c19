"""Independent reference evaluations for the test suite.

These deliberately avoid the library's own code paths: tails come from a
direct per-outcome enumeration, elementary functions from mpmath (a separate
arbitrary-precision implementation), and the threshold constant from a plain
Fraction power series.  `grid_tail_rows` is the sweep's grid tails carried
row by row, two lists rewritten at every cell, as the library carried them
before each column got a generator of its own.  `_decide` reads a certified comparison off the signs
of d = a - b, as the library did before it compared endpoints; `verdict_digest`
fingerprints certified verdicts for the tests that pin them.
`stochastic_dominance_check` and `main_proof_sweep_one_n` read the library:
the first samples the monotonicity in p of `binom.survival` itself, the second
runs the chain sweep's row step on one n alone.  `_theorem_sweep_one_n` and
`_proposition_sweep_one_n` are the two cross-check sweeps of one n as the
library ran them cell by cell before they read integer rows: one summed tail
per theorem cell, and `Fraction` sides against hi(b) per proposition cell.
"""

from collections import deque
from fractions import Fraction
import hashlib
import math
from typing import Union

import mpmath

from binexceed import binom, proofs
from binexceed.binom import BinomialSpec, _survival_numerator, survival
from binexceed.bounds import SweepResult, check_proposition, theorem_grid
from binexceed.enclosure import Enclosure, Verdict, as_fraction


def tail_by_enumeration(n: int, p: Fraction) -> Fraction:
    """P(X > n*p) as a literal sum of pmf terms over {k : k > n*p}."""
    p = Fraction(p)
    mean = n * p
    return sum(
        (Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
         for k in range(n + 1) if k > mean),
        Fraction(0),
    )


def survival_by_enumeration(n: int, p: Fraction, k0: int) -> Fraction:
    p = Fraction(p)
    return sum(
        (Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)
         for k in range(k0, n + 1)),
        Fraction(0),
    )


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


def mp_point(fn_name: str, x: Fraction, prec: int = 200) -> Fraction:
    """fn(x) evaluated by mpmath, floored to the 2^-prec grid.

    The result is within 2^-prec of the true value, far tighter than any
    enclosure the tests compare against.
    """
    fn = {"ln": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt,
          "atanh": mpmath.atanh}[fn_name]
    with mpmath.workprec(prec + 40):
        value = fn(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
        scaled = int(mpmath.floor(value * mpmath.power(2, prec)))
    return Fraction(scaled, 2**prec)


def ln43_series_lower(terms: int = 60) -> Fraction:
    """Partial sum of ln(4/3) = 2*atanh(1/7); a strict lower bound.

    The truncation error is below (1/7)^(2*terms+1), i.e. far beyond any
    digit count asserted in the tests.
    """
    t = Fraction(1, 7)
    total = Fraction(0)
    power = t
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= t * t
    return 2 * total


def grid_tail_rows(n_max: int, grid: int, ks: range):
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


def main_proof_sweep_one_n(n: int, grid: int) -> SweepResult:
    """Every cell k/grid of one n, then the failing links into n that none read."""
    ks = theorem_grid(n, grid)
    tails, = deque(binom._grid_tail_rows(n, grid, ks), maxlen=1)      # row n alone
    return proofs._main_proof_row(n, grid, ks, tails, {})[0]


def _theorem_sweep_one_n(n: int, grid: int) -> SweepResult:
    # the exact tail of each cell is T / grid^n: compare 4T with grid^n
    cells = theorem_grid(n, grid)
    result = SweepResult(len(cells), [], [])
    bn = grid**n
    for k in cells:
        tail = _survival_numerator(n, k, grid, n * k // grid + 1)
        if 4 * tail < bn:
            result.violations.append((n, Fraction(k, grid), Fraction(tail, bn)))
        elif 4 * tail == bn:
            result.equalities.append((n, Fraction(k, grid)))
    return result


def _proposition_sweep_one_n(n: int, grid: int, k_max: int,
                             b: Enclosure) -> SweepResult:
    result = SweepResult(k_max, [], [])
    for k in range(1, k_max + 1):
        p = Fraction(k, grid * n)
        lhs = 1 - (1 - p) ** n
        if n == 1:
            # max(1, b) = 1: the two sides are identically equal to p
            if lhs < p:
                result.violations.append((n, p, lhs))
            continue
        if lhs >= b.hi * n * p:
            continue
        # not accepted against hi(b): decide the cell with certified refinement
        if not check_proposition(BinomialSpec(n, p)):
            result.violations.append((n, p, lhs))
    return result


def _decide(rel: str, d: Enclosure) -> Union[bool, None]:
    # d encloses (a - b); None means the interval does not separate yet
    if rel == "<":
        if d.hi < 0:
            return True
        if d.lo >= 0:
            return False
    elif rel == "<=":
        if d.hi <= 0:
            return True
        if d.lo > 0:
            return False
    elif rel == ">":
        if d.lo > 0:
            return True
        if d.hi <= 0:
            return False
    elif rel == ">=":
        if d.lo >= 0:
            return True
        if d.hi < 0:
            return False
    return None


def verdict_digest(verdicts) -> str:
    """sha256 over each verdict's value and its witness enclosure's endpoints
    and precision, in hex, so that no digit limit applies."""
    h = hashlib.sha256()
    for v in verdicts:
        w = v.witness
        h.update(f"{v.value} {w.lo.numerator:x}/{w.lo.denominator:x} "
                 f"{w.hi.numerator:x}/{w.hi.denominator:x} {w.precision_bits};".encode())
    return h.hexdigest()
