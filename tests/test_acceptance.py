"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact or certified: zero tolerance unless a
criterion states one.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from binexceed.binom import BinomialSpec, pmf, survival, tail_gt_mean
from binexceed.bounds import optimality_search, proposition_sweep, theorem_sweep
from binexceed.proofs import EPSILON_STAR_CEILING, anderson_samuels_sweep, epsilon_star

from oracles import tail_by_enumeration

QUARTER = Fraction(1, 4)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "binexceed.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_criterion_1_equality_case():
    tail = tail_gt_mean(BinomialSpec(2, Fraction(1, 2))).tail
    _report(1, "tail_gt_mean((2, 1/2)) = 1/4 exactly", tail == QUARTER, str(tail))


def test_criterion_2_theorem_sweep():
    result = theorem_sweep(200, grid=1000)
    ok = (not result.violations
          and result.equalities == [(2, Fraction(1, 2))]
          and result.cells > 190000)
    _report(2, "n <= 200, p-grid 1/1000: tail >= 1/4 under the hypothesis, "
               "strict except (2, 1/2)", ok,
            f"cells={result.cells} violations={result.violations[:3]}")


def test_criterion_3_proposition_sweep():
    result = proposition_sweep(200, grid=1000)
    ok = not result.violations and result.cells == 200 * 287
    _report(3, "n <= 200, p = k/(1000n) <= c/n: 1-(1-p)^n >= max(1, b n) p",
            ok, f"cells={result.cells} violations={result.violations[:3]}")


def test_criterion_4_optimality():
    w1 = optimality_search(Fraction(1, 4), 100)
    finite_ok = (w1.n == 2 and w1.tail == Fraction(15, 64)
                 and w1.tail == tail_by_enumeration(2, Fraction(1, 8))
                 and w1.tail < QUARTER)
    w2 = optimality_search(Fraction(28, 100), 100)
    limit_ok = w2.limit_enclosure.hi < QUARTER
    _report(4, "optimality: c1 = 1/4 fails at n = 2 with tail 15/64; "
               "c1 = 28/100 has certified limit 1 - e^(-c1) < 1/4",
            finite_ok and limit_ok)


def test_criterion_5_berry_esseen_anchors():
    encs = {n: epsilon_star(n, 200) for n in (4, 89, 90)}
    ok = all(enc.hi < EPSILON_STAR_CEILING for enc in encs.values())
    peak_hi = max(enc.hi for enc in encs.values())
    margin = Fraction(1, 2) - peak_hi
    ok = ok and margin > Fraction(25587, 100000)
    _report(5, "eps_*(4), eps_*(89), eps_*(90) all < 0.24413, so "
               "1/2 - max > 0.25587 > 1/4 (interval separation)", ok,
            f"margin={float(margin):.9f}")


def test_criterion_6_seven_twenty_sevenths_anchors():
    from_survival = survival(BinomialSpec(3, Fraction(1, 3)), 2)
    f3_at_3 = 1 - (2 - Fraction(1, 3)) * (1 - Fraction(1, 3)) ** 2
    f1_tilde_at_3 = Fraction(3 * 3 - 2, 3 - 2) * (1 - Fraction(2, 3)) ** 3
    ok = from_survival == f3_at_3 == f1_tilde_at_3 == Fraction(7, 27)
    _report(6, "survival((3,1/3),2) = f_3(3) = f~_1(3) = 7/27, three "
               "independent computations", ok,
            f"{from_survival}, {f3_at_3}, {f1_tilde_at_3}")


def test_criterion_7_full_verification(tmp_path):
    main_out = tmp_path / "verify_main.json"
    res_main = run_cli("verify", "main", "--nmax", "50",
                       "--out", str(main_out))
    appx_out = tmp_path / "verify_appendix.json"
    res_appx = run_cli("verify", "appendix", "--out", str(appx_out))
    chain = anderson_samuels_sweep(20, 100)
    ok = res_main.returncode == 0 and res_appx.returncode == 0 and chain.passed
    detail = f"main rc={res_main.returncode} appendix rc={res_appx.returncode}"
    if ok:
        steps = {s["step_id"]: s["verdict"]
                 for s in json.loads(appx_out.read_text())["steps"]}
        ok = (steps.get("log_second_derivative_identity") == "TRUE"
              and steps.get("derivative_identity") == "TRUE")
        detail += " the two exact rational-function identities hold"
    _report(7, "verify main --nmax 50 and verify appendix exit 0; "
               "chain sweep m <= 20, n <= 100 strict; the two exact "
               "rational-function derivative identities hold", ok, detail)


def test_criterion_8_figure_reproduction(tmp_path):
    out1, out2 = tmp_path / "fig1.csv", tmp_path / "fig2.csv"
    rc1 = run_cli("figure", "5", "--points", "1000", "--out", str(out1)).returncode
    rc2 = run_cli("figure", "5", "--points", "1000", "--out", str(out2)).returncode
    raw1, raw2 = out1.read_bytes(), out2.read_bytes()
    lines = raw1.decode("utf-8").splitlines()
    anchor_ok = "0.200000000000,0.262720000000,HIGH" in lines
    # sawtooth: tails strictly increase while floor(5p) is constant and drop
    # when it increments
    runs_ok = True
    drops_ok = True
    previous_m = None
    previous_tail = None
    for line in lines[1:]:
        p_text, tail_text, _segment = line.split(",")
        p = Fraction(p_text)
        tail = Fraction(tail_text)
        m = (5 * p.numerator) // p.denominator + 1
        if previous_m == m:
            runs_ok &= tail >= previous_tail
        elif previous_m is not None:
            drops_ok &= tail < previous_tail
        previous_m, previous_tail = m, tail
    ok = (rc1 == rc2 == 0 and raw1 == raw2 and anchor_ok
          and runs_ok and drops_ok)
    _report(8, "figure 5 --points 1000: anchor row present, sawtooth "
               "monotone-within-run, byte-identical across runs", ok)


def test_criterion_9_property_suites():
    rng = random.Random(20260809)
    trials = 10**4

    def random_p(lo=0, hi=1):
        den = rng.randint(1, 400)
        num = rng.randint(0, den)
        p = Fraction(num, den)
        return p if lo <= p <= hi else Fraction(1, 2)

    normalization_ok = complement_ok = symmetry_ok = monotone_ok = True
    for _ in range(trials):
        n = rng.randint(1, 20)
        spec = BinomialSpec(n, random_p())
        normalization_ok &= sum(pmf(spec, k) for k in range(n + 1)) == 1

        k = rng.randint(0, n + 1)
        below = sum(pmf(spec, j) for j in range(k))
        complement_ok &= survival(spec, k) + below == 1

        k = rng.randint(0, n)
        symmetry_ok &= pmf(spec, k) == pmf(BinomialSpec(n, spec.q), n - k)

        a = Fraction(rng.randint(1, 399), 400)
        b = Fraction(rng.randint(1, 399), 400)
        if a == b:
            b = a + Fraction(1, 800)
        p1, p2 = sorted((a, b))
        k = rng.randint(1, n)
        monotone_ok &= (survival(BinomialSpec(n, p1), k)
                        < survival(BinomialSpec(n, p2), k))

    ok = normalization_ok and complement_ok and symmetry_ok and monotone_ok
    _report(9, f"{trials} randomized exact instances each: normalization, "
               f"survival complement, p<->q symmetry, strict stochastic "
               f"monotonicity", ok)
