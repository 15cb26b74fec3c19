"""Machine checks for every step of both proofs of the 1/4 tail bound.

Two independent routes are verified:

* the monotone-chain argument: reduce P(X_{n,p} >= m) to p = (m-1)/n, walk
  the strictly increasing chain P(X_{j,(m-1)/j} >= m) down to j = m, and
  evaluate the terminal value (1-1/m)^m >= 1/4 exactly;
* the five-case split whose main case is a Berry-Esseen estimate
  P(X > np) >= 1/2 - eps(n,p) with eps(n,p) = c3/sqrt(n) * (rho/sigma^3 + c2),
  rho = p^3 q + q^3 p, sigma = sqrt(pq), c3 = 33477/100000, c2 = 429/1000.

The five-case route holds for every n.  The case split is checked exactly on
the pieces between its breakpoints, at n <= 5, whose order every larger n
shares.  The real-variable claims of cases 1 and 3-5 (rho/sigma^3 convex in p;
f_3, f~_1 and (1-1/n)^n increasing in n; the f~_1 identity) are exact
rational-function identities and signs on a half-line (`algebra`), with the
limits and derivatives in p they use stated as analytic; case 2 reads only
the certified c < 1.  eps_*(n) = eps(n, 2/n) < 0.24413 holds for every real
n >= 4 from one exact root count, with no enclosure compared.  Every check
lands in a ProofReport step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .enclosure import (
    DEFAULT_PRECISION_BITS,
    Enclosure,
    PreconditionError,
    as_fraction,
    c_enclosure,
    compare_certified,
    sqrt_enclosure,
)
from .algebra import X
from .binom import BinomialSpec, _grid_tail_rows, _survival_numerator, tail_gt_mean
from .bounds import SweepResult, theorem_grid
from .report import ProofReport

ONE_QUARTER = Fraction(1, 4)

# Berry-Esseen constants and the thresholds of the main-case conclusion
# 1/2 - eps_*(n) > 1/2 - 0.24413 = 0.25587 > 1/4, for every real n >= 4.
C3 = Fraction(33477, 100000)
C2 = Fraction(429, 1000)
EPSILON_STAR_CEILING = Fraction(24413, 100000)
CASE1_TAIL_FLOOR = Fraction(25587, 100000)


class BerryEsseenEval(NamedTuple):
    """Exact moments and certified enclosures for eps(n, p)."""

    n: int
    p: Fraction
    sigma_sq: Fraction     # pq
    rho: Fraction          # p^3 q + q^3 p = pq (p^2 + q^2)
    ratio: Enclosure       # rho / sigma^3
    epsilon: Enclosure     # c3/sqrt(n) * (ratio + c2)


# ---------------------------------------------------------------------------
# Monotone chain
# ---------------------------------------------------------------------------

def _chain_value(m: int, j: int) -> tuple[int, int]:
    # V(m, j) = P(X_{j, (m-1)/j} >= m) = T / j^j as the pair (T, j^j); callers
    # read each pair with its own denominator, so a reduced pair reads the same
    return _survival_numerator(j, m - 1, j, m), j**j


def _chain_links(n: int, m_max: int, m_min: int, prev: dict) -> tuple[dict, dict]:
    """Row n of the chain, {m: V(m, n) as (num, den)}, and its links, {m: ok},
    m_min <= m <= m_max: V(m, n-1) < V(m, n) for m < n, and the chain start
    V(n, n) = (n-1)^n / n^n >= 1/4, equal only at n = 2, all by cross-
    multiplication.  Rows 2..N check each link of every chain (m, n <= N) once;
    V(m, n-1) is evaluated only where prev, the row n - 1 returned, lacks it."""
    row = {m: _chain_value(m, n) for m in range(max(2, m_min), min(n, m_max) + 1)}
    prev = {m: prev[m] if m in prev else _chain_value(m, n - 1) for m in row if m < n}
    ok = {m: t * row[m][1] < row[m][0] * d for m, (t, d) in prev.items()}  # t/d = V(m, n-1)
    if n in row:
        (num, den), base, nn = row[n], (n - 1) ** n, n**n
        ok[n] = num * nn == base * den and (4 * base == nn if n == 2 else 4 * base > nn)
    return row, ok


def verify_main_proof(spec: BinomialSpec) -> ProofReport:
    """Check every step of the monotone-chain proof for one (n, p).

    Requires 1 > p and certified n*p >= ln(4/3).  For n*p < 1 the tail is
    1 - (1-p)^n and is compared with 1/4 exactly; otherwise the reduction
    to p_n = (m-1)/n, the strict chain increase, the terminal identity
    (1-1/m)^m and its bound are all verified with exact arithmetic.
    """
    n, p = spec.n, spec.p
    report = ProofReport(f"monotone-chain proof for n={n}, p={p}")
    if p >= 1:
        raise PreconditionError("hypothesis requires p < 1")
    if not compare_certified(spec.mean, ">=", c_enclosure):
        raise PreconditionError(f"hypothesis requires n*p >= ln(4/3); n*p = {spec.mean}")
    report.add("hypothesis", "1 > p and n*p >= ln(4/3), certified", True,
               [("n*p", spec.mean)])
    bn, m = p.denominator**n, n * p.numerator // p.denominator + 1
    # rows j = m..n of the chain m, each with its link into j; links[0] is the
    # chain start, which the terminal steps check on their own; row n holds V(m, n)
    values, links, row = [], [], {}
    for j in range(m, n + 1) if m >= 2 else ():
        row, ok = _chain_links(j, m, m, row)
        values.append((f"value at j={j}", Fraction(*row[m])))
        links.append(ok[m])
    _, tail_num, (first, second, conclusion) = _cell_verdicts(
        n, p.numerator, p.denominator, bn, row.__getitem__)
    tail = Fraction(tail_num, bn)
    if m == 1:
        report.add("small_mean_formula",
                   "P(X > n*p) = 1 - (1-p)^n when n*p < 1",
                   first, [("tail", tail)])
        report.add("small_mean_bound",
                   "1 - (1-p)^n > 1/4 when ln(4/3) <= n*p < 1",
                   second,
                   [("tail_minus_quarter", 1 - spec.q**n - ONE_QUARTER)])
    else:
        report.add("threshold_range", "m = floor(n*p) + 1 lies in [2, n]",
                   first, [("m", m)])
        report.add("reduce_to_pn",
                   "P(X_{n,p} >= m) >= P(X_{n,(m-1)/n} >= m), "
                   "strict iff n*p is not an integer",
                   second,
                   [("P(X_{n,p} >= m)", tail),
                    ("P(X_{n,p_n} >= m)", values[-1][1])])
        report.add("chain_strict_increase",
                   "P(X_{j+1,(m-1)/(j+1)} >= m) > P(X_{j,(m-1)/j} >= m) "
                   "for all j in {m,...,n-1}",
                   all(links[1:]), values)
        terminal = values[0][1]
        base = Fraction(m - 1, m) ** m
        report.add("terminal_identity",
                   "P(X_{m,(m-1)/m} >= m) = (1-1/m)^m",
                   terminal == base, [("(1-1/m)^m", base)])
        report.add("terminal_bound",
                   "(1-1/m)^m >= 1/4 with equality iff m = 2",
                   base == ONE_QUARTER if m == 2 else base > ONE_QUARTER,
                   [("terminal", base)])
        # the strict-exceedance event {X > m} in m trials is empty, so the
        # "strictly above 1/4 unless m = 2" claim is checked for {X >= m}
        report.add("terminal_strict_reading",
                   "{X_{m,p_m} > m} is empty; strictness is checked for "
                   "P(X_{m,p_m} >= m) > 1/4 unless m = 2",
                   m == 2 or terminal > ONE_QUARTER,
                   [("terminal", terminal)])
    report.add("conclusion", "P(X > E X) >= 1/4, equality only at n=2, p=1/2",
               conclusion, [("tail", tail)])
    return report


def _cell_verdicts(n: int, a: int, b: int, bn: int, chain, tail=None) -> tuple:
    """Decide the claims of the cell p = a/b (reduced or not) on integers.

    Returns (m, T, (first, second, conclusion)) with m = floor(n*p) + 1 and
    P(X_{n,p} >= m) = T / bn; bn = b^n, and T if given, come from the caller.
    For m = 1 first and second are small_mean_formula and small_mean_bound,
    otherwise threshold_range and reduce_to_pn.  The tail is compared by cross-
    multiplication with 1/4, 1 - (1-p)^n and V(m, n) = num / den from the
    caller's chain(m) -> (num, den).
    """
    m = n * a // b + 1
    tail = _survival_numerator(n, a, b, m) if tail is None else tail
    if m == 1:      # n*p < 1
        small = bn - (b - a) ** n
        first, second = tail == small, 4 * small > bn
    else:
        num, den = chain(m)
        lhs, rhs = tail * den, num * bn
        first = 2 <= m <= n
        # equal iff p == p_n exactly, i.e. n*p is an integer
        second = lhs == rhs if n * a % b == 0 else lhs > rhs
    conclusion = 4 * tail == bn if n == 2 and 2 * a == b else 4 * tail > bn
    return m, tail, (first, second, conclusion)


def anderson_samuels_sweep(m_max: int, n_max: int) -> ProofReport:
    """Exact strict-increase check of the chain values over a rectangle.

    For every m in [2, m_max] and j in [m, n_max - 1] verifies
    P(X_{j+1,(m-1)/(j+1)} >= m) > P(X_{j,(m-1)/j} >= m), and the chain start
    P(X_{m,(m-1)/m} >= m) = (1-1/m)^m >= 1/4, from _chain_links(2..n_max).
    """
    if not 2 <= m_max <= n_max:
        raise PreconditionError("need 2 <= m_max <= n_max")
    report = ProofReport(f"chain monotonicity sweep, m <= {m_max}, n <= {n_max}")
    failed, row = set(), {}
    for n in range(2, n_max + 1):
        row, links = _chain_links(n, m_max, 2, row)
        failed |= {(m, n) for m, ok in links.items() if not ok}
    for m in range(2, m_max + 1):
        report.add(f"chain_start_m{m}",
                   f"P(X_{{{m},(m-1)/{m}}} >= {m}) = (1-1/{m})^{m}",
                   (m, m) not in failed, [("value", Fraction(*_chain_value(m, m)))])
        bad = [j for j in range(m, n_max) if (m, j + 1) in failed]
        witnesses = [("pairs_checked", n_max - m)]
        witnesses += [(f"violation at j={j}", Fraction(*_chain_value(m, j)))
                      for j in bad[:5]]
        report.add(f"strict_increase_m{m}",
                   f"values strictly increase in j for m = {m}",
                   not bad, witnesses)
    return report


# ---------------------------------------------------------------------------
# Proposition route
# ---------------------------------------------------------------------------

def verify_proposition_proof() -> ProofReport:
    """1 - (1-p)^n >= max(1, b*n)*p for every n >= 1 and real 0 <= p <= c/n.

    The only certified fact is 1/4 < c < 1/2, so b = (1/4)/c lies in (1/2, 1);
    every step that uses c or b reads it.  g(p) = (1 - (1-p)^n)/(n p) does not increase
    and 1 - x < e^-x, both analytic, give g(c/n) > (1 - e^-c)/c = b.
    """
    report = ProofReport("proposition proof, every n >= 1 and 0 <= p <= c/n")
    in_range = (compare_certified(ONE_QUARTER, "<", c_enclosure)
                and compare_certified(c_enclosure, "<", Fraction(1, 2)))
    report.add("constant_range", "1/4 < c = ln(4/3) < 1/2, certified, so 1/2 < b < 1",
               in_range, [("c", c_enclosure())])
    report.add("single_trial",
               "n = 1: 1 - (1-p) = p = max(1, b)*p, as b < 1 (constant_range)", in_range)
    report.add("active_branch",
               "n >= 2: b*n >= 2b > 1 (constant_range), so max(1, b*n) = b*n", in_range)
    report.add("g_non_increasing",
               "g(p) = (1 - (1-p)^n)/(n p) = (1/n) sum_{k<n} (1-p)^k is non-increasing "
               "in p on (0, 1] (analytic)", True)
    report.add("g_dominates_b_at_threshold",
               "0 < c/n < 1 (constant_range) and 1 - x < e^-x give (1 - c/n)^n < e^-c "
               "= 3/4, so g(c/n) > (1/4)/c = b (analytic)", in_range)
    report.add("conclusion",
               "1 - (1-p)^n = n p g(p) >= n p g(c/n) > b*n*p for n >= 2 and "
               "0 < p <= c/n; with n = 1 and p = 0 (both sides 0), "
               "1 - (1-p)^n >= max(1, b*n)*p for every n >= 1 and 0 <= p <= c/n",
               report.passed)
    return report


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------

def applicable_cases(spec: BinomialSpec) -> list[int]:
    """All case ids whose condition (n, p) satisfies, in increasing order."""
    n = spec.n
    np_value = spec.mean
    nq_value = n * spec.q
    out = []
    if np_value >= 2 and nq_value >= 2:
        out.append(1)
    if np_value < 1:
        out.append(2)                   # n*p >= c holds under the hypothesis
    if 1 <= np_value < 2 and n >= 3:
        out.append(3)
    if 1 < nq_value <= 2 and n >= 3:
        out.append(4)
    if 0 < nq_value <= 1 and n >= 2:
        out.append(5)
    return out


def _case_split_holds(spec: BinomialSpec) -> bool:
    """Some case applies, and each of cases 2-5 that does reads P(X > n*p) as
    P(X >= m) at its own m = 1, 2, n-1, n, which must be floor(n*p) + 1."""
    m = {2: 1, 3: 2, 4: spec.n - 1, 5: spec.n}
    cases = applicable_cases(spec)
    return bool(cases) and all(m[k] == spec.mean // 1 + 1 for k in cases if k > 1)


# ---------------------------------------------------------------------------
# Berry-Esseen quantities
# ---------------------------------------------------------------------------

def berry_esseen_epsilon(n: int, p, precision_bits: int = DEFAULT_PRECISION_BITS) -> BerryEsseenEval:
    """Exact rho, sigma^2 and certified enclosures of rho/sigma^3 and eps(n,p)."""
    p = as_fraction(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1 (sigma vanishes at the endpoints)")
    q = 1 - p
    sigma_sq, rho = p * q, p * q * (p * p + q * q)
    ratio = rho / (sqrt_enclosure(sigma_sq, precision_bits) * sigma_sq)
    epsilon = (ratio + C2) * C3 / sqrt_enclosure(n, precision_bits)
    return BerryEsseenEval(n=n, p=p, sigma_sq=sigma_sq, rho=rho, ratio=ratio, epsilon=epsilon)


def epsilon_star(n: int, precision_bits: int = 200) -> Enclosure:
    """Enclosure of eps_*(n) = eps(n, 2/n), the worst case of the main case."""
    if n < 3:
        raise ValueError("eps_* needs n >= 3 so that p = 2/n < 1")
    return berry_esseen_epsilon(n, Fraction(2, n), precision_bits).epsilon


def epsilon_star_branch() -> tuple:
    """(a, b, eps_*) in t, a = sqrt(n) = 2 + h and b = sqrt(2n - 4) = 2 + t h with
    h = (8 - 4t)/(t^2 - 2), where the line of slope t through (2, 2) meets
    b^2 = 2a^2 - 4 again, and eps_*(n) = c3 (a/b - 2b/a^3 + c2/a)."""
    h = (8 - 4 * X) / (X * X - 2)
    a, b = 2 + h, 2 + X * h
    return a, b, C3 * (a / b - 2 * b / a**3 + C2 / a)


# ---------------------------------------------------------------------------
# The five cases
# ---------------------------------------------------------------------------

def verify_case1() -> ProofReport:
    """Main case n*p >= 2, n*q >= 2 via the Berry-Esseen estimate, every n >= 4:
    rho/sigma^3 is convex in p, and eps_*(n) = eps(n, 2/n) is below 0.24413 for
    every real n >= 4 by one exact sign in t; no enclosure is compared."""
    report = ProofReport("case 1 (n*p >= 2, n*q >= 2), every n >= 4")

    # (a) convexity of rho/sigma^3 in p, exactly as polynomials in p = X
    p, q = X, 1 - X
    s, curvature = p * q, (p * q).d().d()
    report.add("ratio_convexity",
               "rho = s(1-2s) with s = pq, so rho/sigma^3 = s^(-1/2) - 2 s^(1/2) is "
               "convex and decreasing in s, and s is concave in p (s'' = -2): "
               "rho/sigma^3 is convex in p (composition, analytic)",
               p * q * (p * p + q * q) == s * (1 - 2 * s) and curvature == -2,
               [("s''(p)", curvature(0))])
    report.add("epsilon_convexity_inherited",
               "eps(n, p) = c3/sqrt(n) * (rho/sigma^3 + c2) is convex in p "
               "since the scaling is positive",
               C3 > 0, [("c3", C3)])

    # (b) eps_* along t, with sqrt(n) = a and sigma = b/a^2 at p = 2/n
    a, b, eps_t = epsilon_star_branch()
    n_t, sigma, t2_minus_2 = a * a, b / a**2, X * X - 2
    p, q = 2 / n_t, 1 - 2 / n_t
    sigma_sq, rho = p * q, p * q * (p * p + q * q)
    report.add("eps_star_parametrization",
               "n = a^2 has b^2 = 2n - 4, pq = (b/a^2)^2 at p = 2/n, dn/dt = -4ab/(t^2 - 2) "
               "and a (t^2 - 2), b (t^2 - 2) > 0 on [1.4, 2]; so on t in (sqrt 2, 2], with "
               "n(2) = 4 and n -> oo as t -> sqrt 2 (analytic), n runs over [4, oo) and "
               "eps_*(n) = c3/a (rho/sigma^3 + c2) = c3 (a/b - 2b/a^3 + c2/a), exact",
               b * b == 2 * n_t - 4 and sigma_sq == sigma**2 and n_t(2) == 4
               and n_t.d() == -4 * a * b / t2_minus_2 and eps_t == C3 * (rho / sigma**3 + C2) / a
               and all((r * t2_minus_2).sign_on(Fraction(7, 5), 2) == 1 for r in (a, b)),
               [("n(2)", n_t(2)), ("n(3/2)", n_t(Fraction(3, 2)))])

    # (c) one exact sign on t in [1.4142135, 2], which holds (sqrt 2, 2]
    ceiling, t_lo = EPSILON_STAR_CEILING, "1.4142135"
    ceiling_ok = (ceiling - eps_t).sign_on(Fraction(t_lo), 2) == 1
    report.add("eps_star_ceiling",
               f"eps_*(n) < {ceiling} for every real n >= 4, stronger than the paper's "
               f"argmax over the integers (n = 90): {ceiling} - eps_*(n(t)), gcd-reduced, "
               f"has no root or pole on t in [{t_lo}, 2], which holds (sqrt 2, 2] (exact "
               "root count), and is positive there",
               ceiling_ok, [("eps_*(4)", eps_t(2))])

    # (d) conclusion: 1/2 - eps_*(n) > 1/2 - 0.24413 >= 0.25587 > 1/4, exact
    floor = Fraction(1, 2) - ceiling
    report.add("conclusion",
               f"1/2 - eps_*(n) > 1/2 - {ceiling} (eps_star_ceiling) >= {CASE1_TAIL_FLOOR} "
               "> 1/4 (exact)",
               ceiling_ok and floor >= CASE1_TAIL_FLOOR > ONE_QUARTER, [("tail_floor", floor)])
    return report


def verify_case2() -> ProofReport:
    """Small-mean case ln(4/3) <= n*p < 1, every n: the tail 1 - (1-p)^n > 1/4."""
    report = ProofReport("case 2 (ln(4/3) <= n*p < 1), every n")
    report.add("strict_bound",
               "for c/n <= p, 1 - (1-p)^n >= 1 - (1 - c/n)^n as it increases in p, and "
               "0 < c/n < 1 (c < 1, certified) with 1 - x < e^-x gives (1 - c/n)^n < "
               "e^-c = 3/4 (analytic)",
               compare_certified(c_enclosure, "<", 1), [("c", c_enclosure())])
    return report


def verify_case3() -> ProofReport:
    """Case 1 <= n*p < 2, n >= 3: reduce to p = 1/n and grow f_3(n) from 7/27."""
    report = ProofReport("case 3 (1 <= n*p < 2, n >= 3), every n")
    f3_at_3 = 1 - (2 - Fraction(1, 3)) * (1 - Fraction(1, 3)) ** 2    # f_3(n) at n = 3
    report.add("wlog_p_at_1_over_n",
               "the tail P(X >= 2) is smallest at p = 1/n: its derivative in p is "
               "n(n-1) p q^(n-2) >= 0 (analytic)", True)
    report.add("anchor_value", "f_3(3) = 7/27 > 1/4",
               f3_at_3 == Fraction(7, 27) and Fraction(7, 27) > ONE_QUARTER,
               [("f_3(3)", f3_at_3)])
    # ln(1 - f_3(x)) = ln(2 - 1/x) + (x - 1) ln(1 - 1/x), and b = (ln(1 - 1/x))'
    b = (1 - 1 / X).dlog()
    second = (2 - 1 / X).dlog().d() + 2 * b + (X - 1) * b.d()
    report.add("f3_increasing",
               "f_3(n) = 1 - (2-1/n)(1-1/n)^(n-1) increasing on every integer n >= 3: "
               "(ln(1-f_3))'' > 0 certified on [3, oo), ln(1-f_3(n)) -> ln 2 - 1 (analytic)",
               second.positive_from(3), [("f_3(3)", f3_at_3)])
    report.add("log_second_derivative_identity",
               "(d^2/dn^2) ln(1-f_3(n)) = 1/((2n-1)^2 (n-1) n), an exact "
               "rational-function identity",
               second == 1 / ((2 * X - 1) ** 2 * (X - 1) * X),
               [("(ln(1-f_3))''(3)", second(3))])
    return report


def verify_case4() -> ProofReport:
    """Case 1 < n*q <= 2, n >= 3: reduce to p = 1-2/n and grow f~_1(n) from 7/27."""
    report = ProofReport("case 4 (1 < n*q <= 2, n >= 3), every n")

    def f1_tilde(n: int) -> Fraction:
        return Fraction(3 * n - 2, n - 2) * (1 - Fraction(2, n)) ** n

    report.add("f1_increasing_in_p",
               "f_1(p, n) = p^n + n p^(n-1) q increasing in p on [1-2/n, 1): its "
               "derivative in p is n(n-1) p^(n-2) q >= 0 (analytic)", True)
    # f_1(p, n) / p^(n-1) = p + n q at p = 1 - 2/n, rational in n
    p = 1 - 2 / X
    reduced = p + X * (2 / X)
    report.add("f1_tilde_identity",
               "f~_1(n) = (3n-2)/(n-2) (1-2/n)^n equals f_1(1-2/n, n) for every real n > 2: "
               "divided by (1-2/n)^(n-1) > 0, (1-2/n) + n (2/n) = (3n-2)/(n-2) (1-2/n), "
               "an exact rational-function identity",
               reduced == (3 * X - 2) / (X - 2) * (1 - 2 / X),
               [("f_1(1-2/n, n) / (1-2/n)^(n-1) at n=3", reduced(3))])
    report.add("anchor_value", "f~_1(3) = 7/27 > 1/4",
               f1_tilde(3) == Fraction(7, 27),
               [("f~_1(3)", f1_tilde(3))])
    # ln f~_1(x) = ln((3x-2)/(x-2)) + x ln(1-2/x) has derivative ln(1-2/x) + r(x)
    r = ((3 * X - 2) / (X - 2)).dlog() + X * (1 - 2 / X).dlog()
    form_ok = r == (6 * X - 8) / ((X - 2) * (3 * X - 2))
    report.add("log_derivative_form",
               "Df~_1(n) = ln(1-2/n) + (6n-8)/((n-2)(3n-2)) is (ln f~_1)'(n): "
               "exact once the shared ln(1-2/n) term cancels",
               form_ok, [("Df~_1(3) - ln(1/3)", r(3))])
    slope = (1 - 2 / X).dlog() + r.d()
    decreasing = (-slope).positive_from(3)
    report.add("f1_tilde_increasing",
               "f~_1(n) increasing on every integer n >= 3: (ln f~_1)' = Df~_1 > 0 "
               "on [3, oo)",
               form_ok and decreasing, [("f~_1(3)", f1_tilde(3))])
    report.add("log_derivative_positive_decreasing",
               "Df~_1(n) is positive and decreasing on [3, oo): (Df~_1)' < 0 is "
               "certified there and Df~_1(n) -> 0 (analytic)",
               decreasing, [("(Df~_1)'(3)", slope(3))])
    report.add("derivative_identity",
               "(Df~_1)'(n) = -4(3n^2-4n+4)/((3n-2)^2 (n-2)^2 n), an exact "
               "rational-function identity",
               slope == -4 * (3 * X**2 - 4 * X + 4) / ((3 * X - 2) ** 2 * (X - 2) ** 2 * X),
               [("(Df~_1)'(3)", slope(3))])
    return report


def verify_case5() -> ProofReport:
    """Case 0 < n*q <= 1, n >= 2: the tail is p^n >= (1-1/n)^n, growing from 1/4."""
    report = ProofReport("case 5 (0 < n*q <= 1, n >= 2), every n")
    report.add("lower_bound_at_p_extreme",
               "p^n >= (1-1/n)^n since p >= 1-1/n and p^n increases in p (analytic)", True)
    report.add("anchor_value", "(1-1/2)^2 = 1/4 exactly",
               (1 - Fraction(1, 2)) ** 2 == ONE_QUARTER,
               [("(1/2)^2", Fraction(1, 4))])
    # x ln(1 - 1/x) for real x > 1: its derivative ln(1 - 1/x) + x b tends to 0
    b = (1 - 1 / X).dlog()
    second = b + (X * b).d()
    report.add("power_sequence_increasing",
               "(1-1/n)^n strictly increasing on every integer n >= 2, from 1/4: "
               "(x ln(1-1/x))'' = -1/(x(x-1)^2) exactly, certified < 0 on [2, oo), "
               "and the first derivative tends to 0 (analytic), so it stays positive",
               second == -1 / (X * (X - 1) ** 2) and (-second).positive_from(2)
               and (1 - Fraction(1, 2)) ** 2 == ONE_QUARTER,
               [("(1-1/2)^2", (1 - Fraction(1, 2)) ** 2)])
    report.add("equality_case",
               "n = 2, p = 1/2 lands here with tail exactly 1/4",
               tail_gt_mean(BinomialSpec(2, Fraction(1, 2))).tail == ONE_QUARTER,
               [("tail", tail_gt_mean(BinomialSpec(2, Fraction(1, 2))).tail)])
    return report


def verify_appendix() -> ProofReport:
    """All five cases plus the exhaustiveness of the case split, for every n: the
    split is exact on the pieces between its breakpoints, and cases 1-5 certify
    their claims or state them as analytic."""
    report = ProofReport("five-case proof, every n")

    # the cases are constant between the breakpoints 1, 2, n-2, n-1 of n*p in (0, n)
    pieces = []
    for n in range(1, 6):
        cuts = sorted({1, 2, n - 2, n - 1} & set(range(1, n)))
        ends = [0, *cuts, n]
        pieces += [BinomialSpec(n, Fraction(x, n)) for x in cuts]
        pieces += [BinomialSpec(n, Fraction(a + b, 2 * n)) for a, b in zip(ends, ends[1:])]
    report.add("case_coverage",
               "every (n, p) with c/n <= p < 1 falls in at least one of the five cases, "
               "and cases 2-5 read P(X > n*p) = P(X >= m) at m = floor(n*p) + 1 = 1, 2, "
               "n-1, n: the cases compare n*p with the breakpoints 1, 2, n-2, n-1 and n "
               "with 2 and 3, so they are constant on each piece between breakpoints, "
               "and no integer lies inside a piece of cases 2-5; checked at every "
               "breakpoint and one point of each gap for n = 1..5, and every n >= 5 has "
               "n = 5's order 1 < 2 < n-2 < n-1 < n, pieces and cases (exact)",
               all(map(_case_split_holds, pieces)), [("pieces", len(pieces))])

    specs = [BinomialSpec(n, Fraction(k, 37))
             for n, k in ((2, 18), (3, 12), (5, 7), (10, 30), (40, 36))]
    report.add("cross_proof_consistency",
               "sampled specs verify through both the chain proof and the "
               "case classification",
               all(applicable_cases(s) and verify_main_proof(s).passed
                   for s in specs),
               [("cells", len(specs)), *((f"p at n={s.n}", s.p) for s in specs)])

    for verify in (verify_case1, verify_case2, verify_case3, verify_case4, verify_case5):
        report.extend(verify())
    return report


def _main_proof_row(n: int, grid: int, ks: range, tails: list, prev: dict) -> tuple:
    """Row n over the columns ks with their tails T = b^n P(X >= m), b = grid: a
    SweepResult of the cells from theorem_grid(n, grid), then one of each failing
    link into n that no cell read, at p = (m-1)/n, and the chain row n.  The m = 1
    segment passes when every T = b^n - (b-a)^n and 4 T > b^n; the cells of a
    segment m >= 2 whose link holds, but its integer-mean column, pass when all
    T > L = max(floor(b^n/4), floor(V(m, n) b^n)); _cell_verdicts decides the rest."""
    row, links = _chain_links(n, n, 2, prev)
    unread = {m for m, ok in links.items() if not ok}
    cells = range(max(ks.start, theorem_grid(n, grid).start), ks.stop)
    result, bn = SweepResult(len(cells), [], []), grid**n
    k = cells.start
    while k < cells.stop:
        # m <= n as k < grid, m = 1 has no link, and the segment m ends at ceil(m grid / n)
        m, exact = n * k // grid + 1, n * k % grid == 0     # reduce_to_pn claims T = V b^n
        end = k + 1 if exact else min(cells.stop, -(-m * grid // n))
        seg = tails[k - ks.start:end - ks.start]
        if m == 1:
            slow = seg != [bn - (grid - a) ** n for a in range(k, end)] or 4 * min(seg) <= bn
        else:
            slow = exact or not links[m] or min(seg) <= max(bn // 4, row[m][0] * bn // row[m][1])
        if slow:
            for a, tail in enumerate(seg, k):
                ok = _cell_verdicts(n, a, grid, bn, row.__getitem__, tail)[2]
                if not all(ok) or m > 1 and not links[m]:
                    unread.discard(m)
                    result.violations.append((n, Fraction(a, grid), Fraction(tail, bn)))
                if 4 * tail == bn:
                    result.equalities.append((n, Fraction(a, grid)))
        k = end
    result.violations.extend((n, Fraction(m - 1, n), Fraction(*row[m])) for m in sorted(unread))
    return result, row


def main_proof_sweep(n_max: int, grid: int = 1000, jobs: int = 1) -> ProofReport:
    """Run the full chain verification over every (n, p-grid) cell under the
    hypothesis, n <= n_max; one aggregated report step per n.  Step n checks
    only the chain links into n (and the chain start at m = n), so a chain
    (m, n) is certified by steps 2..n together; `passed` reads every step.
    One walk of _grid_tail_rows over the columns theorem_grid(n_max, grid)
    carries the chain row from n to n + 1, in this process; `jobs` takes only 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ks = theorem_grid(n_max, grid)
    report = ProofReport(f"monotone-chain sweep, n <= {n_max}, p-grid {grid}")
    per_n, row = [], {}
    for n, tails in enumerate(_grid_tail_rows(n_max, grid, ks), start=1):
        part, row = _main_proof_row(n, grid, ks, tails, row)
        per_n.append(part)
        witnesses = [("cells", part.cells)]
        witnesses += [(f"failed at p={p}", 0)
                      for _, p, _ in part.violations[:5]]
        report.add(f"all_steps_verified_n{n}",
                   f"every proof step holds for n = {n} across the p-grid",
                   not part.violations, witnesses)
    total = SweepResult.merged(per_n)
    expected_equalities = ([(2, Fraction(1, 2))]
                           if n_max >= 2 and grid % 2 == 0 else [])
    report.add("equality_census",
               "the tail equals 1/4 only at n = 2, p = 1/2 on the grid",
               total.equalities == expected_equalities,
               [("total_cells", total.cells)]
               + [(f"equality at n={n}, p={p}", 0)
                  for n, p in total.equalities])
    return report
