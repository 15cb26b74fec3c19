"""Command-line front end.

Subcommands: exact tail queries, bound checks for one (n, p), full proof
verification runs with serialized reports, optimality counterexample search,
and CSV emission of the tail-vs-p curve.

Each `verify` target declares only the flags it reads, and flags follow the
target (`verify main --nmax 50`); `check` and `tail` take no flags.  A
well-formed `check n p` or `tail n p` runs without the parser; every other
argv goes to it, built once on first use, so it is the only source of usage
errors and help text.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
violation, 3 comparison undecided at the precision cap, 4 I/O failure.
All decimal output is rendered from exact rationals with round-half-even,
never through binary floating point.
"""

from __future__ import annotations

import decimal
import functools
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
from ..binom import BinomialSpec, _lowest_terms, _tail_form
from ..bounds import (
    _hypothesis,
    _proposition_rhs,
    figure_points,
    optimality_search,
)
from ..proofs import (
    anderson_samuels_sweep,
    main_proof_sweep,
    verify_appendix,
    verify_proposition_proof,
)
from ..digits import (_EXACT, MAX_EXPONENT, _mul, _pow, _to_decimal, clip, fraction_str,
                      parse_fraction)

def format_decimal(x: Fraction, digits: int) -> str:
    """Decimal string with exactly `digits` fractional digits, round-half-even.
    Reads only x.numerator and x.denominator > 0, so a `_Pair` of integral
    Decimals x >= 0 serves too, in the exact context."""
    scale = 10**digits
    q, r = divmod(x.numerator * scale, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2 == 1):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(int(q)), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


_Pair = namedtuple("_Pair", "numerator denominator")   # all format_decimal reads


def _rational_with_decimal(x) -> str:
    return f"{fraction_str(x)} ({format_decimal(x, 15)})"


def _exact_tail(n: int, a: int, b: int, k: int) -> tuple:
    """(t, d): P(X >= k) = t / d in lowest terms for p = a/b in lowest terms, t
    and d exact Decimals formed from the tail kernel's factors, so neither T
    nor b^n is built as an int and converted.  Call it, and use t and d, in
    _EXACT.  a and b - a are prime to b, so gcd(T, b^n) = gcd(s, b^n): the
    strip reads s alone.  Only a, b, s and g are converted, each once: libmpdec
    converts an int operand of a mixed operation in quadratic time.  b^n, x^e
    and x^e * s go through digits._pow and _mul, which keep their squares and
    products out of libmpdec's schoolbook band."""
    lower, e, s = _tail_form(n, a, b, k)
    s, g = _lowest_terms(s, b, n)
    big_a, big_b = _to_decimal(a), _to_decimal(b)
    d = _pow(big_b, n)
    if g > 1:
        d //= _to_decimal(g)
    part = _mul(_pow(big_b - big_a if lower else big_a, e), _to_decimal(s))
    return d - part if lower else part, d


def _print_tail(label: str, n: int, a: int, b: int, k: int) -> tuple[bool, bool]:
    """Print `label = t/d (decimal)` for P(X >= k) = t / d from _exact_tail, and
    return (4T >= b^n, 4T > b^n), decided on the decimals."""
    with decimal.localcontext(_EXACT):
        t, d = _exact_tail(n, a, b, k)
        text = str(t) if d == 1 else f"{t}/{d}"
        print(f"{label} = {text} ({format_decimal(_Pair(t, d), 15)})")
        return 4 * t >= d, 4 * t > d


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


# the tail kernel costs about 0.035 ns per unit of min(m, n-m+1) * n * bits(b)
# where b is small (10^5 trials at p = 1/2: 1e10 units, 0.37 s; at p = 1/3:
# 6.7e9 units, 0.24 s), so this caps it near 0.4 s.  A unit of a large b costs
# more: at n = 1000, a 3999-bit b and p near 1/2 (2e9 units) the kernel takes
# 0.9-1.2 s, about 0.5 ns a unit, and the whole query 1.3-1.8 s, but there the
# b^n guard binds first.  The decimal text of that tail takes 0.2-0.4 s
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
    n, a, b = spec.n, spec.p.numerator, spec.p.denominator
    print(f"n = {n}")
    print(f"p = {fraction_str(spec.p)}")
    print(f"mean = {_rational_with_decimal(spec.mean)}")
    m = n * a // b + 1
    print(f"m = {m}")
    _print_tail("tail", n, a, b, m)
    return 0


def cmd_check(args) -> int:
    spec = _query_spec(args)
    n, a, b = spec.n, spec.p.numerator, spec.p.denominator
    print(f"n = {n}")
    print(f"p = {fraction_str(spec.p)}")
    # the regime's witness is one difference at the deciding precision, whose
    # precision_bits perfbench's tracer reads as the refinement depth
    regime = compare_certified(spec.mean, ">=", c_enclosure)
    if regime:
        print("regime = theorem (certified n*p >= ln(4/3))")
        print(f"hypothesis 1 > p >= ln(4/3)/n: {_hypothesis(spec, regime).text}")
        bound, strict = _print_tail("tail", n, a, b, n * a // b + 1)
        print(f"tail >= 1/4: {Verdict(bound).text}")
        print(f"tail > 1/4: {Verdict(strict).text}")
        equality = n == 2 and spec.p == Fraction(1, 2)
        print(f"equality case (n = 2, p = 1/2): {Verdict(equality).text}")
        return 0 if bound else 1
    print("regime = proposition (certified n*p <= ln(4/3))")
    # n*p <= ln(4/3) < 1, so m = 1 and the tail is P(X >= 1) = 1 - (1-p)^n
    _print_tail("1 - (1-p)^n", n, a, b, 1)
    lhs = 1 - spec.q**n
    # only the verdict's word is printed: no witness from the ~n*bits(b)-bit lhs
    holds = decide_certified(lhs, ">=", _proposition_rhs(spec))
    print(f"1 - (1-p)^n >= max(1, b*n)*p: {Verdict(holds).text}")
    return 0 if holds else 1


def cmd_verify(args) -> int:
    if args.target == "main":
        report = main_proof_sweep(args.nmax, grid=args.grid)
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

@functools.lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of every subcommand, built on first use.  Usage
    errors raise ValueError: `main` prints one `error: ...` line and exits 2."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

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

    def target(name: str, nmax=None):
        t = targets.add_parser(name)
        if nmax is not None:
            t.add_argument("--nmax", type=int, default=nmax, help="default %(default)s")
        t.add_argument("--out", default=f"verify_{name}.json", help="default %(default)s")
        return t

    t = target("main", 200)
    t.add_argument("--grid", type=int, default=1000, help="p-grid (default %(default)s)")
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


_Query = namedtuple("_Query", "command n p")


def _query(argv) -> _Query | None:
    """argv as the parser would read it when it is exactly `check n p` or `tail
    n p`, with neither n nor p an option and n an int; else None."""
    if (len(argv) == 3 and argv[0] in ("check", "tail")
            and all(isinstance(t, str) and not t.startswith("-") for t in argv[1:])):
        try:
            return _Query(argv[0], int(argv[1]), argv[2])
        except ValueError:
            pass
    return None


def main(argv=None) -> int:
    # looked up per call, so a caller that replaces a module-level cmd_* is obeyed
    commands = {"tail": cmd_tail, "check": cmd_check, "verify": cmd_verify,
                "optimality": cmd_optimality, "figure": cmd_figure}
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _query(argv) or build_parser().parse_args(argv)
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
