"""Deciders for the two lower bounds on P(X > E X).

* Theorem regime 1 > p >= ln(4/3)/n: the tail is at least 1/4, strictly
  except at (n, p) = (2, 1/2).
* Proposition regime 0 <= p <= ln(4/3)/n: 1 - (1-p)^n >= max(1, b*n) * p
  with b = (1/4)/ln(4/3).

The hypothesis boundary p = ln(4/3)/n is irrational, so for rational p the
certified comparison always terminates given enough precision; the
refinement cap is a safety valve, never a silent guess.  `optimality_search`
exhibits counterexamples for any smaller threshold constant, plus the
certified limit 1 - e^(-c1) < 1/4.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Optional

from .enclosure import (
    Enclosure,
    PreconditionError,
    Verdict,
    as_fraction,
    b_enclosure,
    c_enclosure,
    compare_certified,
    exp_enclosure,
)
from .binom import BinomialSpec, _exceedance, _survival_numerator, tail_gt_mean
from .digits import clip, fraction_str

ONE_QUARTER = Fraction(1, 4)


class TheoremVerdict(NamedTuple):
    """Certified verdicts for one (n, p) against the 1/4 tail bound."""

    spec: BinomialSpec
    hypothesis_holds: Verdict      # 1 > p >= c/n ?
    bound_holds: Verdict           # tail >= 1/4 ?
    strict: Verdict                # tail > 1/4 ?
    is_equality_case: bool         # n = 2 and p = 1/2
    tail: Fraction


class OptimalityWitness(NamedTuple):
    """Evidence that a candidate constant c1 < ln(4/3) fails.

    Either a finite counterexample (smallest n with tail < 1/4 at p = c1/n,
    in which case n, p, tail are set) or the limit-only certificate; the
    enclosure of 1 - e^(-c1) with hi < 1/4 is always attached.
    """

    c1: Fraction
    n: Optional[int]
    p: Optional[Fraction]
    tail: Optional[Fraction]
    limit_enclosure: Enclosure


def _theorem_core(spec: BinomialSpec, regime: Verdict) -> tuple:
    """(hypothesis, T, b^n, tail >= 1/4, tail > 1/4, (n, p) = (2, 1/2)) on integers:
    tail = T / b^n, unreduced, against 1/4 as 4T against b^n.  The hypothesis
    1 > p >= c/n is `regime`, the certified n*p >= c, except FALSE at p = 1."""
    _, tail, den = _exceedance(spec.n, spec.p.numerator, spec.p.denominator)
    hypothesis = Verdict(False, witness=spec.p - 1) if spec.p == 1 else regime
    return (hypothesis, tail, den, 4 * tail >= den, 4 * tail > den,
            spec.n == 2 and spec.p == Fraction(1, 2))


def check_theorem(spec: BinomialSpec) -> TheoremVerdict:
    """Decide hypothesis and bound for one (n, p); all tail comparisons exact."""
    hypothesis, tail, den, bound, strict, equality = _theorem_core(
        spec, compare_certified(spec.mean, ">=", c_enclosure))
    tail = Fraction(tail, den)
    return TheoremVerdict(spec, hypothesis, Verdict(bound, witness=tail - ONE_QUARTER),
                          Verdict(strict, witness=tail - ONE_QUARTER), equality, tail)


def check_proposition(spec: BinomialSpec) -> Verdict:
    """Decide 1 - (1-p)^n >= max(1, b*n) * p in the small-p regime.

    Requires certified p <= c/n.  The left side is exact; for n >= 2 the
    right side goes through the enclosure of b with refinement on overlap.
    """
    if not compare_certified(spec.mean, "<=", c_enclosure):
        raise PreconditionError(f"need p <= c/n; got n*p = {spec.mean}")
    return compare_certified(1 - spec.q**spec.n, ">=", _proposition_rhs(spec))


def _proposition_rhs(spec: BinomialSpec):
    """The right side max(1, b*n)*p of the proposition, as a comparison operand."""
    if spec.n == 1:
        # max(1, b) = 1 exactly: the right side is p
        return spec.p
    # b*n > 1 for n >= 2 (b = 0.869...), so the active branch is b*n*p
    def rhs(bits: int) -> Enclosure:
        return b_enclosure(bits) * spec.mean
    return rhs


def optimality_search(c1, n_max: int) -> OptimalityWitness:
    """Smallest n <= n_max with tail < 1/4 at p = c1/n, for a candidate c1 < c.

    Scans n upward (small witnesses are cheap and persuasive); always
    attaches the certified enclosure of the limit 1 - e^(-c1), whose upper
    endpoint below 1/4 proves failure even when no finite witness exists.
    """
    c1 = as_fraction(c1)
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if not compare_certified(c1, "<", c_enclosure):
        raise PreconditionError(f"candidate constant {clip(fraction_str(c1))} >= ln(4/3)")
    if c1 <= 0:
        raise PreconditionError("candidate constant must be positive")

    # c1 < c certified, so 1 - e^(-c1) < 1/4; a FALSE verdict is impossible
    below = compare_certified(lambda bits: 1 - exp_enclosure(-c1, bits), "<",
                              ONE_QUARTER)
    if not below:
        shown = clip(fraction_str(c1))
        raise ArithmeticError(f"enclosure of 1 - e^(-{shown}) contradicts {shown} < ln(4/3)")
    limit_enc = below.witness + ONE_QUARTER

    for n in range(1, n_max + 1):
        p = c1 / n
        _, tail, den = _exceedance(n, p.numerator, p.denominator)
        if 4 * tail < den:
            return OptimalityWitness(c1=c1, n=n, p=p, tail=Fraction(tail, den),
                                     limit_enclosure=limit_enc)
    return OptimalityWitness(c1=c1, n=None, p=None, tail=None,
                             limit_enclosure=limit_enc)


# ---------------------------------------------------------------------------
# Grid sweeps.  Cells are independent, so they parallelize over n; the
# theorem side of each n is decided once, at its boundary cell.
# ---------------------------------------------------------------------------

def theorem_grid(n: int, grid: int) -> range:
    """The k in [1, grid) with certified n*k/grid >= ln(4/3).

    n*k/grid increases with k, so the certified comparison at the first k
    that passes decides the whole range; below it every k fails.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    k = int(c_enclosure().lo * grid / n) + 1    # smaller k have n*k/grid <= lo(c) < c
    while not compare_certified(Fraction(n * k, grid), ">=", c_enclosure):
        k += 1
    return range(k, grid)


def sweep_over_n(one_n, n_max, jobs: Optional[int]) -> list:
    """[one_n(n) for n in 1..n_max] on `jobs` processes (default: cpu count), or
    [one_n(item) for item in n_max] when n_max is a list of items; `one_n`
    must pickle, e.g. a partial of a module-level function."""
    items = range(1, n_max + 1) if isinstance(n_max, int) else n_max
    if not items:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs <= 1 or len(items) <= 1:
        return [one_n(item) for item in items]
    # imported here: concurrent.futures loads multiprocessing, socket and
    # logging, which no single-process command needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(one_n, items, chunksize=max(1, len(items) // (4 * jobs))))


class SweepResult(NamedTuple):
    cells: int
    violations: list          # (n, p, value) triples that failed
    equalities: list          # (n, p) where the bound is attained exactly

    @classmethod
    def merged(cls, parts) -> "SweepResult":
        parts = list(parts)
        return cls(sum(part.cells for part in parts),
                   [v for part in parts for v in part.violations],
                   [e for part in parts for e in part.equalities])


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


def theorem_sweep(n_max: int, grid: int = 1000,
                  jobs: Optional[int] = None) -> SweepResult:
    """Exact tail >= 1/4 over all n <= n_max and grid rationals p with p >= c/n."""
    return SweepResult.merged(
        sweep_over_n(partial(_theorem_sweep_one_n, grid=grid), n_max, jobs))


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


def proposition_sweep(n_max: int, grid: int = 1000,
                      jobs: Optional[int] = None) -> SweepResult:
    """Exact-vs-enclosure check of the proposition over p = k/(grid*n), p <= c/n."""
    # p <= c/n iff k/grid <= c, the same k threshold for every n
    k_max = theorem_grid(1, grid).start - 1
    one_n = partial(_proposition_sweep_one_n, grid=grid, k_max=k_max,
                    b=b_enclosure())
    return SweepResult.merged(sweep_over_n(one_n, n_max, jobs))


class CurvePoint(NamedTuple):
    """One row of the tail-vs-p curve.

    segment: LOW for p below the ln(4/3)/n threshold (certified), MID
    between the threshold and 1/n, HIGH from 1/n up (the point p = 1/n
    belongs to HIGH).
    """

    p: Fraction
    tail: Fraction
    segment: str


def figure_points(n: int, points: int) -> list[CurvePoint]:
    """Exact curve rows at p = k/points for k = 1..points-1, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if points < 10:
        raise ValueError("points must be >= 10")
    one_over_n = Fraction(1, n)
    above_threshold = theorem_grid(n, points)
    rows = []
    for k in range(1, points):
        p = Fraction(k, points)
        tail = tail_gt_mean(BinomialSpec(n, p)).tail
        if p >= one_over_n:
            segment = "HIGH"
        elif k in above_threshold:
            segment = "MID"
        else:
            segment = "LOW"
        rows.append(CurvePoint(p, tail, segment))
    return rows
