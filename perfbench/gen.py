"""Seeded inputs for the benchmark workloads.

Nothing here imports binexceed, so generating inputs warms none of its
caches.  The side of ln(4/3) on which each query lies is decided from an
integer bracket of ln(4/3) * 2^4600 that mpmath computes at two working
precisions (>= 4700 bits) and must agree on.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from functools import lru_cache

import mpmath

SCALE_BITS = 4600                # ln(4/3) is bracketed as C / 2^SCALE_BITS
BLOCK = 200                      # queries per point_queries session
THRESHOLD_PER_BLOCK = 20         # fixed ratio: 1 threshold query in 10
BULK_N_MAX = 5000
BULK_DEN_MAX = 10**6
THRESHOLD_N_MAX = 20             # larger n with 4000-bit p runs for minutes
THRESHOLD_K = (64, 4000)         # |n*p - ln(4/3)| lies in (2^-(k+1), 2^-k]
COLD_K = 4000
COLD_N = 10                      # the cold query costs ~25 % more at n = 20 than at n = 2
_OFFSET_BITS = 20                # p = a / (n * 2^(k + _OFFSET_BITS))

THEOREM = "theorem"
PROPOSITION = "proposition"


@lru_cache(maxsize=None)
def ln43_scaled() -> int:
    """C = floor(ln(4/3) * 2^SCALE_BITS), agreed at two precisions."""
    values = set()
    for prec in (SCALE_BITS + 100, SCALE_BITS + 300):
        with mpmath.workprec(prec):
            scaled = mpmath.ldexp(mpmath.log(mpmath.mpf(4) / 3), SCALE_BITS)
            values.add(int(mpmath.floor(scaled)))
    if len(values) != 1:
        raise ArithmeticError("ln(4/3) bracket differs between precisions")
    return values.pop()


def side_of(n: int, p: Fraction) -> str | None:
    """THEOREM if n*p > ln(4/3), PROPOSITION if n*p < ln(4/3), None if too close."""
    c = ln43_scaled()
    lhs = n * p.numerator << SCALE_BITS
    if lhs >= (c + 1) * p.denominator:
        return THEOREM
    if lhs <= c * p.denominator:
        return PROPOSITION
    return None


def _lattice(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """`count` points in the unit square, one in each row and each column.

    Row i is paired with column i * g mod count, g near count / golden
    ratio, so that neighbouring rows get columns spread over the whole
    range (a rank-1 lattice), and each point is drawn uniformly within its
    cell.  The costliest queries sit in the top rows of n; with this
    pairing two seeds' blocks differ in every value but hardly in the cost
    of those queries, which a random pairing would leave to chance (it
    moved a block's wall time by 30 %).
    """
    g = round(count / 1.618033988749895)
    while math.gcd(g, count) != 1:
        g += 1
    return [((i + rng.random()) / count, ((i * g) % count + rng.random()) / count)
            for i in range(count)]


def threshold_query(rng: random.Random, n: int, k: int, side: str, cls: str) -> dict:
    """p with n*p within 2^-k of ln(4/3), on the given side."""
    shift = k + _OFFSET_BITS
    base = ln43_scaled() >> (SCALE_BITS - shift)       # floor(ln(4/3) * 2^shift)
    j = rng.randint(1 << (_OFFSET_BITS - 1), 1 << _OFFSET_BITS)
    a = base + j if side == THEOREM else base - j + 1
    p = Fraction(a, n << shift)
    if side_of(n, p) != side:
        raise ArithmeticError(f"threshold point on the wrong side: n={n}, k={k}")
    return {"cls": cls, "n": n, "p": str(p), "side": side, "k": k}


def bulk_query(rng: random.Random, u_n: float, u_p: float) -> dict:
    """n log-uniform on [1, BULK_N_MAX]; p = a/d in lowest terms near u_p.

    d is drawn from [2^19, BULK_DEN_MAX] and a coprime to it, so every p
    has a 19- or 20-bit denominator: the cost of a large-n query grows
    with those bits, and a reduced fraction must not make it cheaper by
    chance.
    """
    n = min(BULK_N_MAX, max(1, int(BULK_N_MAX ** u_n)))
    while True:
        d = rng.randint(1 << 19, BULK_DEN_MAX)
        a = min(d - 1, max(1, int(u_p * d)))
        if math.gcd(a, d) != 1:
            continue
        p = Fraction(a, d)
        side = side_of(n, p)
        if side is not None:
            return {"cls": "bulk", "n": n, "p": str(p), "side": side, "k": None}


def point_block(seed: int) -> list[dict]:
    """A session's queries: a cold threshold query, then BLOCK queries.

    The block holds THRESHOLD_PER_BLOCK threshold queries and the rest
    bulk, in random order.  The (n, p) draws of the bulk queries and the
    (n, k) draws of the threshold queries come from `_lattice`.
    """
    rng = random.Random(f"point_queries/{seed}")
    cold = threshold_query(rng, COLD_N, COLD_K, rng.choice((THEOREM, PROPOSITION)), "cold")
    n_bulk = BLOCK - THRESHOLD_PER_BLOCK
    bulk = [bulk_query(rng, u_n, u_p) for u_n, u_p in _lattice(rng, n_bulk)]
    lo_k, hi_k = THRESHOLD_K
    sides = [THEOREM, PROPOSITION] * (THRESHOLD_PER_BLOCK // 2)
    rng.shuffle(sides)
    threshold = [
        threshold_query(rng, 1 + int(u_n * THRESHOLD_N_MAX),
                        lo_k + int(u_k * (hi_k - lo_k + 1)), side, "threshold")
        for (u_n, u_k), side in zip(_lattice(rng, THRESHOLD_PER_BLOCK), sides)]
    queries = bulk + threshold
    rng.shuffle(queries)
    return [cold] + queries


def chain_input(seed: int) -> dict:
    """main_proof_sweep arguments; the grid stays even so (2, 1/2) is a cell."""
    n_max = 40
    grid = 990 + 2 * (seed % 11)
    return {"n_max": n_max, "grid": grid, "expected_cells": chain_cells(n_max, grid)}


def chain_cells(n_max: int, grid: int) -> int:
    """Cells (n, k/grid), 1 <= k < grid, with n*k/grid >= ln(4/3) (never equal)."""
    c = ln43_scaled()
    total = 0
    for n in range(1, n_max + 1):
        k_min = (c * grid) // (n << SCALE_BITS) + 1
        total += max(0, grid - k_min)
    return total


def describe_queries(queries: list[dict]) -> dict:
    """Class shares, n distribution and bit sizes of p, for the results."""
    out = {"queries": len(queries), "classes": {}}
    for cls in ("cold", "bulk", "threshold"):
        group = [q for q in queries if q["cls"] == cls]
        if not group:
            continue
        ns = sorted(q["n"] for q in group)
        bits = sorted(max(Fraction(q["p"]).numerator.bit_length(),
                          Fraction(q["p"]).denominator.bit_length()) for q in group)
        out["classes"][cls] = {
            "count": len(group),
            "share": round(len(group) / len(queries), 4),
            "theorem_share": round(sum(q["side"] == THEOREM for q in group) / len(group), 4),
            "n_quartiles": _quartiles(ns),
            "n_ge_1000_share": round(sum(n >= 1000 for n in ns) / len(ns), 4),
            "p_bits_quartiles": _quartiles(bits),
        }
    return out


def _quartiles(values: list[int]) -> list:
    # min, q1, median, q3, max
    if len(values) == 1:
        return values * 5
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [values[0], q1, q2, q3, values[-1]]

