"""Command-line front end.

Subcommands: exact tail queries, bound checks for one (n, p), full proof
verification runs with serialized reports, optimality counterexample search,
and CSV emission of the tail-vs-p curve.

Each `verify` target declares only the flags it reads, and flags follow the
target (`verify main --nmax 50`); `check` and `tail` take no flags.  The
parser, built once, is the only flag check.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
violation, 3 comparison undecided at the precision cap, 4 I/O failure.
All decimal output is rendered from exact rationals with round-half-even,
never through binary floating point.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from fractions import Fraction

from ..enclosure import (
    PreconditionError,
    UndecidedComparisonError,
    Verdict,
    c_enclosure,
    compare_certified,
    decide_certified,
)
from ..binom import BinomialSpec, _exceedance, _lowest_terms
from ..bounds import (
    _proposition_rhs,
    _theorem_core,
    figure_points,
    optimality_search,
)
from ..proofs import (
    anderson_samuels_sweep,
    main_proof_sweep,
    verify_appendix,
    verify_proposition_proof,
)
from ..digits import (MAX_EXPONENT, clip, fraction_str, int_str, parse_fraction,
                      power_pair_str, power_str)

def format_decimal(x: Fraction, digits: int) -> str:
    """Decimal string with exactly `digits` fractional digits, round-half-even.
    Reads only x.numerator and x.denominator > 0, so a `_Pair` serves too."""
    scale = 10**digits
    q, r = divmod(x.numerator * scale, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2 == 1):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


_Pair = namedtuple("_Pair", "numerator denominator")   # all fraction_str reads


def _rational_with_decimal(x) -> str:
    return f"{fraction_str(x)} ({format_decimal(x, 15)})"


def _texts_with_decimal(x, num_text: str, den_text: str) -> str:
    """_rational_with_decimal(x), given the texts of x.numerator and x.denominator."""
    text = num_text if x.denominator == 1 else f"{num_text}/{den_text}"
    return f"{text} ({format_decimal(x, 15)})"


def _tail_with_decimal(tail: int, den: int, b: int, n: int) -> str:
    """T / b^n in lowest terms t / d, with d = b^n / g rendered as a power of b."""
    t, d = _lowest_terms(tail, den, b, n)
    return _texts_with_decimal(_Pair(t, d), int_str(t), power_str(d, b, n, g=den // d))


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a finite decimal, of any length, into an exact Fraction."""
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {clip(text)!r}")


def _parse_probability(text: str) -> Fraction:
    p = parse_rational(text)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {clip(fraction_str(p))}")
    return p


# the tail kernel costs up to ~0.18 ns per unit of min(m, n-m+1) * n * bits(b),
# where b is small and the sum runs as one loop (10^5 trials at p = 1/3: 6.7e9
# units, 0.98-1.0 s; at p = 1/2: 1e10 units, 1.75-1.83 s); a long sum in halves
# costs less (2*10^4 trials, 20-bit b: 0.04 ns), so this caps a query near 2 s
MAX_TAIL_WORK = 10**10


def _query_spec(args) -> BinomialSpec:
    """(n, p), refused before any power is built if b^n passes 4*MAX_EXPONENT bits
    (n = 1 always passes), which bounds the rationals built, or if the tail
    kernel's work passes MAX_TAIL_WORK units, which bounds its time."""
    spec = BinomialSpec(args.n, _parse_probability(args.p))
    n, a, b = spec.n, spec.p.numerator, spec.p.denominator
    bits = n * b.bit_length()
    if n > 1 and bits > 4 * MAX_EXPONENT:
        raise ValueError(f"b^n for p = a/b would have {bits} bits, over {4 * MAX_EXPONENT}")
    m = n * a // b + 1
    work = min(m, n - m + 1) * bits
    if work > MAX_TAIL_WORK:
        raise ValueError(f"the tail would take {work} units of work "
                         f"(min(m, n-m+1)*n*bits(b)), over {MAX_TAIL_WORK}")
    return spec


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tail(args) -> int:
    spec = _query_spec(args)
    n, b = spec.n, spec.p.denominator
    m, tail, den = _exceedance(n, spec.p.numerator, b)
    print(f"n = {n}")
    print(f"p = {fraction_str(spec.p)}")
    print(f"mean = {_rational_with_decimal(spec.mean)}")
    print(f"m = {m}")
    print(f"tail = {_tail_with_decimal(tail, den, b, n)}")
    return 0


def cmd_check(args) -> int:
    spec = _query_spec(args)
    n, b = spec.n, spec.p.denominator
    print(f"n = {n}")
    print(f"p = {fraction_str(spec.p)}")
    # the regime's witness is one difference at the deciding precision, whose
    # precision_bits perfbench's tracer reads as the refinement depth
    regime = compare_certified(spec.mean, ">=", c_enclosure)
    if regime:
        print("regime = theorem (certified n*p >= ln(4/3))")
        hypothesis, tail, den, bound, strict, equality = _theorem_core(spec, regime)
        print(f"hypothesis 1 > p >= ln(4/3)/n: {hypothesis.text}")
        print(f"tail = {_tail_with_decimal(tail, den, b, n)}")
        print(f"tail >= 1/4: {Verdict(bound).text}")
        print(f"tail > 1/4: {Verdict(strict).text}")
        print(f"equality case (n = 2, p = 1/2): {Verdict(equality).text}")
        return 0 if bound else 1
    print("regime = proposition (certified n*p <= ln(4/3))")
    lhs = 1 - spec.q**n         # in lowest terms: no prime of b divides b^n - (b-a)^n
    num, den = power_pair_str(b, n, b - spec.p.numerator)
    print(f"1 - (1-p)^n = {_texts_with_decimal(lhs, num, den)}")
    # only the verdict's word is printed: no witness from the ~n*bits(b)-bit lhs
    holds = decide_certified(lhs, ">=", _proposition_rhs(spec))
    print(f"1 - (1-p)^n >= max(1, b*n)*p: {Verdict(holds).text}")
    return 0 if holds else 1


def cmd_verify(args) -> int:
    if args.target == "main":
        report = main_proof_sweep(args.nmax, grid=args.grid, jobs=args.jobs)
    elif args.target == "appendix":
        report = verify_appendix()
    elif args.target == "proposition":
        report = verify_proposition_proof()
    else:
        report = anderson_samuels_sweep(args.mmax, args.nmax)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(report.to_text())
    if args.target == "appendix":
        conclusion = next(s for s in report.steps if s.step_id == "conclusion")
        print(f"summary: {conclusion.paper_anchor}: {conclusion.verdict}")
    print(f"report written to {args.out}")
    return 0 if report.passed else 1


def cmd_optimality(args) -> int:
    c1 = parse_rational(args.c1)
    witness = optimality_search(c1, args.nmax)
    print(f"candidate constant c1 = {fraction_str(witness.c1)}")
    enc = witness.limit_enclosure
    print(f"limit 1 - e^(-c1) in {enc}")
    print(f"limit upper bound {format_decimal(enc.hi, 15)} < 1/4: certified")
    if witness.n is not None:
        print(f"counterexample: n = {witness.n}, p = {fraction_str(witness.p)}, "
              f"tail = {_rational_with_decimal(witness.tail)} < 1/4")
    else:
        print(f"no finite counterexample up to n = {args.nmax}; "
              f"the limit enclosure certifies failure asymptotically")
    return 0


def cmd_figure(args) -> int:
    out = args.out or f"figure_n{args.n}.csv"
    rows = figure_points(args.n, args.points)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("p,tail,segment\n")
        for row in rows:
            fh.write(f"{format_decimal(row.p, 12)},"
                     f"{format_decimal(row.tail, 12)},{row.segment}\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError: `main` prints one `error: ...` line, exits 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="binexceed",
        description="Exact verification of P(X > E X) >= 1/4 for binomial X "
                    "with 1 > p >= ln(4/3)/n.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tail = sub.add_parser("tail", help="exact P(X > E X) for one (n, p)")
    p_tail.add_argument("n", type=int)
    p_tail.add_argument("p", help='probability as "num/den" or finite decimal')

    p_check = sub.add_parser("check", help="decide the applicable bound for (n, p)")
    p_check.add_argument("n", type=int)
    p_check.add_argument("p")

    p_verify = sub.add_parser("verify", help="machine-check one of the proofs")
    targets = p_verify.add_subparsers(dest="target", required=True)

    def target(name: str, nmax=None) -> argparse.ArgumentParser:
        t = targets.add_parser(name)
        if nmax is not None:
            t.add_argument("--nmax", type=int, default=nmax, help="default %(default)s")
        t.add_argument("--out", default=f"verify_{name}.json", help="default %(default)s")
        return t

    t = target("main", 200)
    t.add_argument("--grid", type=int, default=1000, help="p-grid (default %(default)s)")
    t.add_argument("--jobs", type=int, help="parallel workers (default: cpu count)")
    target("proposition")       # one fixed report covers every n
    target("appendix")          # and one covers every n of all five cases
    t = target("anderson-samuels", 100)
    t.add_argument("--mmax", type=int, default=20, help="largest m (default %(default)s)")

    p_opt = sub.add_parser("optimality",
                           help="counterexample search for a smaller constant")
    p_opt.add_argument("c1", help="candidate constant, must be below ln(4/3)")
    p_opt.add_argument("--nmax", type=int, default=100)

    p_fig = sub.add_parser("figure", help="emit the tail-vs-p curve as CSV")
    p_fig.add_argument("n", type=int)
    p_fig.add_argument("--points", type=int, default=1000)
    p_fig.add_argument("--out", default=None)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    # looked up per call, so a caller that replaces a module-level cmd_* is obeyed
    commands = {"tail": cmd_tail, "check": cmd_check, "verify": cmd_verify,
                "optimality": cmd_optimality, "figure": cmd_figure}
    try:
        args = _PARSER.parse_args(argv)
        return commands[args.command](args)
    except UndecidedComparisonError as exc:
        print(f"undecided at precision cap: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
