"""Proof-kit verifiers: chain proof, case split, Berry-Esseen quantities."""

import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from binexceed.binom import BinomialSpec, tail_gt_mean
from binexceed import algebra, proofs
from binexceed.cli import main as cli_main
from binexceed.bounds import theorem_grid
from binexceed.enclosure import (
    PreconditionError,
    UndecidedComparisonError,
    Verdict,
    c_enclosure,
)
from binexceed.proofs import (
    C2,
    C3,
    EPSILON_STAR_CEILING,
    anderson_samuels_sweep,
    applicable_cases,
    berry_esseen_epsilon,
    case_coverage_holds,
    chain_steps,
    classify_case,
    epsilon_star,
    main_proof_sweep,
    verify_appendix,
    verify_case1,
    verify_case2,
    verify_case3,
    verify_case4,
    verify_case5,
    verify_main_proof,
    verify_proposition_proof,
)
from binexceed import report as report_module
from binexceed.enclosure import Enclosure
from binexceed.report import ProofReport, fraction_str
from oracles import survival_by_enumeration

QUARTER = Fraction(1, 4)
CHAIN_PROOF_IDS = ["threshold_range", "reduce_to_pn", "chain_strict_increase",
                   "terminal_identity", "terminal_bound", "terminal_strict_reading"]


def step(report, step_id):
    return next(s for s in report.steps if s.step_id == step_id)


class TestMainProof:
    def test_equality_case_all_nonstrict(self):
        report = verify_main_proof(BinomialSpec(2, Fraction(1, 2)))
        assert report.passed
        assert step(report, "terminal_identity").ok
        # single-node chain: j runs over {2} only
        assert [s.value for s in chain_steps(2, 2)] == [Fraction(1, 4)]
        assert tail_gt_mean(BinomialSpec(2, Fraction(1, 2))).tail == QUARTER

    def test_three_trials_chain(self):
        report = verify_main_proof(BinomialSpec(3, Fraction(1, 3)))
        assert report.passed
        steps = chain_steps(2, 3)
        assert [s.value for s in steps] == [Fraction(1, 4), Fraction(7, 27)]
        assert [s.p_j for s in steps] == [Fraction(1, 2), Fraction(1, 3)]

    def test_high_p_strictness(self):
        report = verify_main_proof(BinomialSpec(5, Fraction(9, 10)))
        assert report.passed
        record = tail_gt_mean(BinomialSpec(5, Fraction(9, 10)))
        assert record.m == 5
        assert record.tail == Fraction(59049, 100000)
        assert record.tail > Fraction(1024, 3125)  # strict: np = 4.5 not integral

    def test_small_mean_branch(self):
        report = verify_main_proof(BinomialSpec(10, Fraction(3, 100)))
        assert report.passed
        assert step(report, "small_mean_formula").ok

    def test_rejects_out_of_hypothesis(self):
        with pytest.raises(PreconditionError):
            verify_main_proof(BinomialSpec(3, Fraction(1)))
        with pytest.raises(PreconditionError):
            verify_main_proof(BinomialSpec(10, Fraction(1, 100)))

    @pytest.mark.parametrize("n, p, middle", [
        (3, Fraction(1, 5), ["small_mean_formula", "small_mean_bound"]),
        (4, Fraction(1, 2), CHAIN_PROOF_IDS),        # n*p = 2, an integer
        (5, Fraction(3, 10), CHAIN_PROOF_IDS),
    ])
    def test_step_id_sequence(self, n, p, middle):
        report = verify_main_proof(BinomialSpec(n, p))
        assert [s.step_id for s in report.steps] == ["hypothesis", *middle, "conclusion"]

    @given(st.integers(1, 25), st.integers(1, 199))
    @settings(max_examples=60)
    def test_passes_across_hypothesis_grid(self, n, k):
        p = Fraction(k, 200)
        if p == 1 or n * p <= c_enclosure(128).hi:
            return
        assert verify_main_proof(BinomialSpec(n, p)).passed


class TestChain:
    def test_chain_start_identity(self):
        for m in (2, 3, 5, 8):
            assert chain_steps(m, m)[0].value == Fraction(m - 1, m) ** m

    def test_anchor_pair(self):
        values = [s.value for s in chain_steps(2, 3)]
        assert values == [Fraction(1, 4), Fraction(7, 27)]

    def test_anderson_samuels_sweep(self):
        report = anderson_samuels_sweep(6, 40)
        assert report.passed

    def test_sweep_rejects_bad_rectangle(self):
        with pytest.raises(PreconditionError):
            anderson_samuels_sweep(10, 5)

    def test_anderson_samuels_sweep_names_a_broken_link(self, monkeypatch):
        # V(3, 8) := V(3, 7) breaks only the link j = 7 -> 8 of the chain m = 3
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        report = anderson_samuels_sweep(6, 12)
        assert [s.step_id for s in report.failed_steps()] == ["strict_increase_m3"]
        names = [w["name"] for w in step(report, "strict_increase_m3").witnesses]
        assert names == ["pairs_checked", "violation at j=7"]

    def test_chain_value_is_the_integer_pair_over_j_to_the_j(self):
        # gcd(m - 1, j) > 1 at (3, 4), (5, 8), (7, 12), ...
        for j in range(2, 13):
            for m in range(2, j + 1):
                num, den = proofs._chain_value(m, j)
                assert den == j**j
                assert Fraction(num, den) == survival_by_enumeration(j, Fraction(m - 1, j), m)

    def test_chain_sweeps_build_no_binomial_spec(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the chain value is read as an integer pair")

        monkeypatch.setattr(proofs, "survival", refuse)
        monkeypatch.setattr(proofs, "BinomialSpec", refuse)
        assert not proofs._main_proof_sweep_one_n(20, 97).violations
        assert anderson_samuels_sweep(6, 12).passed

    def test_chain_start_is_decided_on_integers(self, monkeypatch):
        # V(4, 4) := 80/256 breaks the identity V(4, 4) = (3/4)^4 = 81/256
        # while the bound V(4, 4) > 1/4 and every link still hold
        real = proofs._chain_value

        def lowered(m, j):
            num, den = real(m, j)
            return (num - 1, den) if (m, j) == (4, 4) else (num, den)

        monkeypatch.setattr(proofs, "_chain_value", lowered)
        report = anderson_samuels_sweep(6, 12)
        assert [s.step_id for s in report.failed_steps()] == ["chain_start_m4"]
        report = main_proof_sweep(6, grid=97, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n4"]
        names = [w["name"] for w in step(report, "all_steps_verified_n4").witnesses]
        assert names[1:] == [f"failed at p={k}/97" for k in range(73, 78)]
        cell = verify_main_proof(BinomialSpec(4, Fraction(80, 97)))
        assert [s.step_id for s in cell.failed_steps()] == ["terminal_identity"]

    @given(st.integers(2, 12), st.integers(0, 20))
    def test_strict_increase_property(self, m, extra):
        n = m + extra
        values = [s.value for s in chain_steps(m, n)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestPropositionProof:
    """One fixed report covers every n >= 1 and every real 0 <= p <= c/n."""

    STEP_IDS = ["constant_range", "single_trial", "active_branch", "g_non_increasing",
                "g_dominates_b_at_threshold", "conclusion"]
    # every step but the analytic monotonicity of g reads constant_range
    READ_CONSTANT_RANGE = set(STEP_IDS) - {"g_non_increasing"}

    def test_fixed_steps_pass(self):
        report = verify_proposition_proof()
        assert [s.step_id for s in report.steps] == self.STEP_IDS
        assert report.passed
        assert step(report, "constant_range").values == [("c", c_enclosure())]
        for step_id in ("g_non_increasing", "g_dominates_b_at_threshold"):
            assert step(report, step_id).paper_anchor.endswith("(analytic)")

    def test_json_digest(self):
        text = verify_proposition_proof().to_json()
        assert len(text) < 4096
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "baffb42871f17163077efa86c51f740d420e41cf097d9e43c339964fd1904512")

    @given(st.integers(1, 80), st.fractions(min_value=Fraction(1, 10**4),
                                             max_value=Fraction(1), max_denominator=10**4))
    def test_analytic_steps_hold_at_sample_points(self, n, t):
        # the analytic steps at sample points: g(p) is the mean of the sum of
        # (1-p)^k, k < n, and does not increase up to c/n; (1 - c/n)^n < 3/4,
        # read at lo(c), which only raises the left side
        g = lambda p: (1 - (1 - p) ** n) / (n * p)
        p = t * c_enclosure().lo / n
        assert g(p) == sum((1 - p) ** k for k in range(n)) / n
        assert g(p) >= g(c_enclosure().lo / n)
        assert (1 - c_enclosure().lo / n) ** n < Fraction(3, 4)

    @pytest.mark.parametrize("c_near", [Fraction(3, 5), Fraction(1, 5)])
    def test_constant_outside_range_fails_every_step_that_reads_it(
            self, c_near, monkeypatch, tmp_path, capsys):
        # c near 3/5 puts b below 1/2, c near 1/5 puts b above 1
        wrong = Enclosure(c_near - Fraction(1, 2**64), c_near + Fraction(1, 2**64))
        monkeypatch.setattr(proofs, "c_enclosure", lambda bits=64: wrong)
        report = verify_proposition_proof()
        assert {s.step_id for s in report.failed_steps()} == self.READ_CONSTANT_RANGE
        out = tmp_path / "prop.json"
        assert cli_main(["verify", "proposition", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["passed"] is False
        assert capsys.readouterr().out.splitlines()[-2] == "result: FAIL (6 steps)"


class TestClassification:
    def test_examples(self):
        assert classify_case(BinomialSpec(10, Fraction(1, 2))).case_id == 1
        assert classify_case(BinomialSpec(2, Fraction(1, 2))).case_id == 5
        assert classify_case(BinomialSpec(3, Fraction(1, 2))).case_id == 3

    def test_rejects_out_of_hypothesis(self):
        with pytest.raises(PreconditionError):
            classify_case(BinomialSpec(10, Fraction(1, 1000)))
        with pytest.raises(PreconditionError):
            classify_case(BinomialSpec(2, Fraction(1)))

    def test_lowest_case_wins_on_overlap(self):
        # n*p = 1, n = 3: cases 3 and 4 both apply (n*q = 2)
        spec = BinomialSpec(3, Fraction(1, 3))
        assert applicable_cases(spec) == [3, 4]
        assert classify_case(spec).case_id == 3

    @given(st.integers(1, 500), st.fractions(min_value=0, max_value=1,
                                             max_denominator=997))
    def test_coverage_under_hypothesis(self, n, p):
        if p >= 1 or n * p <= c_enclosure(128).hi:
            return
        assert case_coverage_holds(BinomialSpec(n, p))

    def test_coverage_ten_thousand_random(self):
        import random

        rng = random.Random(58085)
        c_hi = c_enclosure(128).hi
        checked = 0
        while checked < 10**4:
            n = rng.randint(1, 500)
            den = rng.randint(2, 10**4)
            p = Fraction(rng.randint(1, den - 1), den)
            if n * p <= c_hi:
                continue
            assert case_coverage_holds(BinomialSpec(n, p))
            checked += 1


class TestBerryEsseen:
    def test_four_fair_trials_exact(self):
        ev = berry_esseen_epsilon(4, Fraction(1, 2), 64)
        assert ev.rho == Fraction(1, 8) and ev.sigma_sq == Fraction(1, 4)
        assert ev.ratio.is_point and ev.ratio.lo == 1
        assert ev.epsilon.is_point
        assert ev.epsilon.lo == C3 * (1 + C2) / 2 == Fraction(47838633, 200000000)

    def test_symmetry_in_p(self):
        a = berry_esseen_epsilon(7, Fraction(2, 7), 64)
        b = berry_esseen_epsilon(7, Fraction(5, 7), 64)
        assert a.epsilon == b.epsilon and a.ratio == b.ratio

    def test_rho_identity(self):
        p, q = Fraction(3, 11), Fraction(8, 11)
        ev = berry_esseen_epsilon(9, p, 64)
        assert ev.rho == p**3 * q + q**3 * p

    def test_89_trials(self):
        enc = berry_esseen_epsilon(89, Fraction(2, 89), 200).epsilon
        oracle = Fraction("0.244128076997342695694641")     # 200-bit evaluation
        assert abs(enc.mid - oracle) < Fraction(1, 10**20)
        assert enc.width < Fraction(1, 10**50)

    def test_rejects_degenerate_p(self):
        with pytest.raises(ValueError):
            berry_esseen_epsilon(5, Fraction(0), 64)
        with pytest.raises(ValueError):
            berry_esseen_epsilon(5, Fraction(1), 64)


class TestEpsilonStar:
    def test_at_four(self):
        enc = epsilon_star(4, 200)
        assert Fraction("0.239") < enc.lo and enc.hi < Fraction("0.240")

    def test_three_comparison_points_below_ceiling(self):
        for n in (4, 89, 90):
            assert epsilon_star(n, 200).hi < EPSILON_STAR_CEILING

    def test_90_beats_89(self):
        assert epsilon_star(90, 200).lo > epsilon_star(89, 200).hi


class TestCaseVerifiers:
    def test_case1_passes(self):
        report = verify_case1()
        assert report.passed and len(report.steps) == 9
        assert not any(s.step_id.startswith("dominating_bound") for s in report.steps)

    @pytest.mark.parametrize("false_at, undecided_at", [(89, 90), (90, 89)])
    def test_case1_ceiling_reads_false_over_undecided(self, false_at, undecided_at,
                                                      monkeypatch):
        # a refuted n must not be hidden by an undecided comparison at another n
        real = proofs.compare_certified

        def patched(a, relation, b, **kwargs):
            if b is EPSILON_STAR_CEILING:
                if a.args == (false_at,):
                    return Verdict(False)
                if a.args == (undecided_at,):
                    raise UndecidedComparisonError("forced")
            return real(a, relation, b, **kwargs)

        monkeypatch.setattr(proofs, "compare_certified", patched)
        assert step(verify_case1(), "eps_star_ceiling").verdict == "FALSE"

    def test_case2(self):
        assert verify_case2(30).passed

    def test_case3_anchors(self):
        report = verify_case3(60)
        assert report.passed
        f3 = lambda n: 1 - (2 - Fraction(1, n)) * (1 - Fraction(1, n)) ** (n - 1)
        assert f3(3) == Fraction(7, 27)
        assert f3(4) == Fraction(67, 256)
        assert f3(4) > f3(3)

    def test_case4_anchors(self):
        report = verify_case4(60)
        assert report.passed
        f1t = lambda n: Fraction(3 * n - 2, n - 2) * (1 - Fraction(2, n)) ** n
        assert f1t(3) == Fraction(7, 27)
        assert f1t(4) == Fraction(5, 16)

    def test_case5_anchors(self):
        report = verify_case5(60)
        assert report.passed
        assert (1 - Fraction(1, 2)) ** 2 == QUARTER
        assert (1 - Fraction(1, 3)) ** 3 == Fraction(8, 27)

    def test_appendix_composition(self):
        report = verify_appendix()
        assert report.passed and len(report.steps) == 31
        assert step(report, "conclusion").ok


class TestMainSweep:
    def test_small_sweep(self):
        report = main_proof_sweep(10, grid=60, jobs=1)
        assert report.passed

    def test_equality_census_needs_even_grid(self):
        report = main_proof_sweep(3, grid=50, jobs=1)
        assert report.passed        # (2, 1/2) present: 25/50

    def test_sweep_checks_every_chain(self, monkeypatch):
        # V(3, 8) := V(3, 7) breaks only the chain (m, n) = (3, 8): the
        # reduction P(X_{8,p} >= 3) > V(3, 8) still holds, and the prime
        # grid has no cell with an integer mean
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        cell = verify_main_proof(BinomialSpec(8, Fraction(25, 97)))
        assert [s.step_id for s in cell.failed_steps()] == ["chain_strict_increase"]
        report = main_proof_sweep(8, grid=97, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n8"]
        names = [w["name"] for w in step(report, "all_steps_verified_n8").witnesses]
        assert names[1:] == [f"failed at p={k}/97" for k in range(25, 30)]

    @pytest.mark.parametrize("grid", [60, 97])
    def test_sweep_verdicts_match_cell_reports(self, grid):
        # grid 60 has cells with an integer mean, where reduce_to_pn is an
        # equality; the theorem holds at every cell, so both must pass it
        sweep, cells, integer_means = [], [], 0
        for n in range(1, 13):
            failed = {p for _, p, _ in proofs._main_proof_sweep_one_n(n, grid).violations}
            for k in theorem_grid(n, grid):
                spec = BinomialSpec(n, Fraction(k, grid))
                sweep.append(spec.p not in failed)
                cells.append(verify_main_proof(spec).passed)
                integer_means += n * k % grid == 0
        assert sweep == cells == [True] * len(cells)
        assert (integer_means > 0) == (grid == 60)

    def test_sweep_names_the_first_failing_cells(self, monkeypatch):
        # V(m, 12) raised by 20 %: reduce_to_pn fails near each segment start
        real = proofs._chain_value

        def raised(m, j):
            num, den = real(m, j)
            return (6 * num, 5 * den) if j == 12 else (num, den)

        monkeypatch.setattr(proofs, "_chain_value", raised)
        report = main_proof_sweep(12, grid=97, jobs=1)
        reduce_failed = []
        for n in range(1, 13):
            failing = []
            for k in theorem_grid(n, 97):
                cell = verify_main_proof(BinomialSpec(n, Fraction(k, 97)))
                if not cell.passed:
                    failing.append(k)
                if n * k >= 97 and not step(cell, "reduce_to_pn").ok:
                    reduce_failed.append((n, k))
            names = [w["name"] for w in step(report, f"all_steps_verified_n{n}").witnesses]
            assert names[1:] == [f"failed at p={k}/97" for k in failing[:5]]
        assert len(reduce_failed) > 5 and {n for n, _ in reduce_failed} == {12}

    def test_sweep_reports_a_broken_link_that_no_cell_reads(self, monkeypatch):
        # on the grid 5 no cell of n = 8 has m = 3, yet every chain (3, n > 8)
        # passes through the link V(3, 7) < V(3, 8); it fails at p = 2/8
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        assert 3 not in {8 * k // 5 + 1 for k in theorem_grid(8, 5)}
        report = main_proof_sweep(8, grid=5, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n8"]
        names = [w["name"] for w in step(report, "all_steps_verified_n8").witnesses]
        assert names[1:] == ["failed at p=1/4"]

    def test_each_step_evaluates_only_two_chain_rows(self, monkeypatch):
        # rows n - 1 and n: 2n - 3 values, where the whole chains took 282
        calls = []
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: calls.append((m, j)) or real(m, j))
        assert not proofs._main_proof_sweep_one_n(20, 97).violations
        assert len(calls) <= 3 * 20

    def test_passing_cells_build_no_report(self, monkeypatch):
        built = []
        real = proofs.ProofReport
        monkeypatch.setattr(proofs, "ProofReport",
                            lambda title: built.append(title) or real(title))
        report = main_proof_sweep(10, grid=60, jobs=1)
        assert report.passed
        chains = {(n, n * k // 60 + 1) for n in range(1, 11)
                  for k in theorem_grid(n, 60) if n * k >= 60}
        assert len(built) <= len(chains) + 1

    def test_a_lowered_carried_tail_fails_only_its_row(self, monkeypatch):
        # the cell (9, 50/97) gets floor(97^9 / 4) < 97^9 / 4 from the rows
        real = proofs._grid_tail_rows

        def lowered(n_max, grid, ks):
            for n, tails in enumerate(real(n_max, grid, ks), start=1):
                if n == 9 and 50 in ks:
                    tails[ks.index(50)] = grid**n // 4
                yield tails

        monkeypatch.setattr(proofs, "_grid_tail_rows", lowered)
        report = main_proof_sweep(12, grid=97, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n9"]
        names = [w["name"] for w in step(report, "all_steps_verified_n9").witnesses]
        assert names[1] == "failed at p=50/97"

    @staticmethod
    def set_tail(monkeypatch, n, k, new_tail):
        real = proofs._grid_tail_rows

        def patched(n_max, grid, ks):
            for row, tails in enumerate(real(n_max, grid, ks), start=1):
                if row == n and k in ks:
                    tails[ks.index(k)] = new_tail(tails[ks.index(k)])
                yield tails

        monkeypatch.setattr(proofs, "_grid_tail_rows", patched)

    @pytest.mark.parametrize("above", [0, 1])
    def test_the_segment_limit_is_tight(self, above, monkeypatch):
        # (9, 50/97) lies in the segment m = 5 of a prime grid, which has no
        # integer-mean column; the tail floor(V(5, 9) 97^9) still clears 1/4
        # but fails the strict reduce_to_pn, and one more passes both
        num, den = proofs._chain_value(5, 9)
        tail = num * 97**9 // den + above
        self.set_tail(monkeypatch, 9, 50, lambda _: tail)
        chain = lambda m: proofs._chain_value(m, 9)
        assert proofs._cell_verdicts(9, 50, 97, 97**9, chain, tail) == (
            5, tail, (True, bool(above), True))
        report = main_proof_sweep(12, grid=97, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == (
            [] if above else ["all_steps_verified_n9"])
        names = [w["name"] for w in step(report, "all_steps_verified_n9").witnesses]
        assert names[1:2] == ([] if above else ["failed at p=50/97"])

    def test_the_segment_limit_keeps_the_quarter_below_a_lowered_chain(self, monkeypatch):
        # V(m, j) / 8 for j >= 8 breaks the links into 8 and the chain starts
        # from 8 on, and keeps the links m < 8 into 9; at n = 9 the tail
        # floor(97^9 / 4) then passes reduce_to_pn but not the conclusion
        real = proofs._chain_value

        def lowered(m, j):
            num, den = real(m, j)
            return (num, 8 * den) if j >= 8 else (num, den)

        monkeypatch.setattr(proofs, "_chain_value", lowered)
        self.set_tail(monkeypatch, 9, 50, lambda _: 97**9 // 4)
        chain = lambda m: lowered(m, 9)
        assert proofs._cell_verdicts(9, 50, 97, 97**9, chain, 97**9 // 4)[2] == (
            True, True, False)
        report = main_proof_sweep(9, grid=97, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == [
            "all_steps_verified_n8", "all_steps_verified_n9"]
        names = [w["name"] for w in step(report, "all_steps_verified_n9").witnesses]
        assert names[1] == "failed at p=50/97"

    def test_a_raised_integer_mean_tail_fails_its_equality(self, monkeypatch):
        # at (6, 20/60) n*p = 2, so reduce_to_pn claims T = V(3, 6) 60^6:
        # T + 1 clears the segment limit, yet the cell must fail
        self.set_tail(monkeypatch, 6, 20, lambda tail: tail + 1)
        report = main_proof_sweep(10, grid=60, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n6"]
        names = [w["name"] for w in step(report, "all_steps_verified_n6").witnesses]
        assert names[1:] == ["failed at p=1/3"]

    def test_only_small_mean_and_integer_mean_cells_reach_the_cell_decider(
            self, monkeypatch):
        calls = []
        real = proofs._cell_verdicts
        monkeypatch.setattr(proofs, "_cell_verdicts",
                            lambda *args: calls.append(args[:2]) or real(*args))
        assert main_proof_sweep(40, grid=1000, jobs=1).passed
        bypass = [(n, k) for n in range(1, 41) for k in theorem_grid(n, 1000)
                  if n * k < 1000 or n * k % 1000 == 0]
        assert len(calls) <= len(bypass) == 3207        # of 38,753 cells

    def test_each_chain_value_is_evaluated_once(self, monkeypatch):
        # row n - 1 is carried to step n: the sweep reads the 780 pairs
        # 2 <= m <= j <= 40 once each, and the Anderson-Samuels sweep its
        # 1,710 link values and the 19 chain-start witnesses
        calls = []
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: calls.append((m, j)) or real(m, j))
        assert main_proof_sweep(40, grid=1000, jobs=1).passed
        assert sorted(calls) == [(m, j) for m in range(2, 41) for j in range(m, 41)]
        calls.clear()
        assert anderson_samuels_sweep(20, 100).passed
        links = [(m, j) for m in range(2, 21) for j in range(m, 101)]
        assert len(links) == 1710
        assert sorted(calls) == sorted(links + [(m, m) for m in range(2, 21)])

    def test_a_coarse_grid_checks_the_links_below_its_first_cell(self, monkeypatch):
        # on the grid 2 the one cell of n = 8 is 1/2, in segment m = 5
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        report = main_proof_sweep(8, grid=2, jobs=1)
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n8"]
        names = [w["name"] for w in step(report, "all_steps_verified_n8").witnesses]
        assert names[1:] == ["failed at p=1/4"]

    @pytest.mark.parametrize("n_max, grid", [(12, 97), (8, 5), (8, 3)])
    def test_same_bytes_for_any_jobs(self, n_max, grid):
        # grid 3 has two columns at n_max 8, fewer than jobs = 3 and 4
        texts = {main_proof_sweep(n_max, grid=grid, jobs=j).to_json() for j in range(1, 5)}
        assert len(texts) == 1

    @staticmethod
    def in_process(monkeypatch):
        items = []

        def run_here(one_n, chunks, jobs):
            items.append(chunks)
            return [one_n(chunk) for chunk in chunks]

        monkeypatch.setattr(proofs, "sweep_over_n", run_here)
        return items

    def test_two_chunks_report_an_unread_broken_link_once(self, monkeypatch):
        # V(3, 8) := V(3, 7) on the grid 5, as in the one-chunk test above
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        chunks = self.in_process(monkeypatch)
        report = main_proof_sweep(8, grid=5, jobs=2)
        assert chunks == [[range(1, 3), range(3, 5)]]
        assert [s.step_id for s in report.failed_steps()] == ["all_steps_verified_n8"]
        names = [w["name"] for w in step(report, "all_steps_verified_n8").witnesses]
        assert names[1:] == ["failed at p=1/4"]

    def test_a_link_read_in_the_next_chunk_is_not_reported_again(self, monkeypatch):
        # on the grid 16 with five chunks, [1, 4) checks the broken link 3 but
        # has no cell in its segment, and [4, 7) reads it in the cells 4 and 5
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        one_chunk = main_proof_sweep(8, grid=16, jobs=1).to_json()
        chunks = self.in_process(monkeypatch)
        report = main_proof_sweep(8, grid=16, jobs=5)
        assert chunks[0][:2] == [range(1, 4), range(4, 7)]
        assert report.to_json() == one_chunk
        names = [w["name"] for w in step(report, "all_steps_verified_n8").witnesses]
        assert names[1:] == ["failed at p=1/4", "failed at p=5/16"]


class TestCellDeciderOracle:
    """The one integer cell decider, and both its callers, against verdicts
    computed in Fraction by enumeration, with V(m, n) from the oracle too."""

    @staticmethod
    def oracle_chain_value(m, j):
        # reduced, so no reader may assume the denominator j^j
        return survival_by_enumeration(j, Fraction(m - 1, j), m).as_integer_ratio()

    def expected(self, n, p):
        m = math.floor(n * p) + 1
        tail = survival_by_enumeration(n, p, m)
        if m == 1:
            small = 1 - (1 - p) ** n
            first, second = tail == small, small > QUARTER
        else:
            v = Fraction(*self.oracle_chain_value(m, n))
            first = 2 <= m <= n
            second = tail == v if (n * p).denominator == 1 else tail > v
        conclusion = tail == QUARTER if (n, p) == (2, Fraction(1, 2)) else tail > QUARTER
        return m, tail, (first, second, conclusion)

    @pytest.mark.parametrize("grid", [60, 97])
    def test_verdicts_match_enumeration(self, grid, monkeypatch):
        # every k/grid, below the hypothesis too: only at (1, 15/60) and
        # (2, 30/60) is the tail exactly 1/4, so only there does 4T > b^n
        # show its strictness
        monkeypatch.setattr(proofs, "_chain_value", self.oracle_chain_value)
        quarter_cells, small_mean, integer_means = [], 0, 0
        for n in range(1, 13):
            failed = {p for _, p, _ in proofs._main_proof_sweep_one_n(n, grid).violations}
            above = theorem_grid(n, grid)
            chain = lambda m: self.oracle_chain_value(m, n)
            for k in range(1, grid):
                p = Fraction(k, grid)
                m, tail, verdicts = self.expected(n, p)
                got_m, got_tail, got = proofs._cell_verdicts(n, k, grid, grid**n, chain)
                assert (got_m, Fraction(got_tail, grid**n), got) == (m, tail, verdicts)
                if tail == QUARTER:
                    quarter_cells.append((n, k))
                if k not in above:
                    continue
                ids = (("small_mean_formula", "small_mean_bound") if m == 1
                       else ("threshold_range", "reduce_to_pn")) + ("conclusion",)
                report = verify_main_proof(BinomialSpec(n, p))
                assert tuple(step(report, i).ok for i in ids) == verdicts
                assert (p not in failed) == all(verdicts)
                small_mean += m == 1
                integer_means += m > 1 and n * k % grid == 0
        assert quarter_cells == ([(1, 15), (2, 30)] if grid == 60 else [])
        assert small_mean > 0 and (integer_means > 0) == (grid == 60)


class TestPinnedReports:
    """sha256 of the JSON report of the sweep and of single cells, byte for byte."""

    def test_sweep_json_digest(self):
        text = main_proof_sweep(20, grid=97, jobs=1).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6d0110463cfbc6a807b01f90c3f185a65694e6c577c1924b3155e0caacc12ab5")

    @pytest.mark.parametrize("n_max, grid, digest", [
        # the benchmark's inputs
        (40, 990, "71da955dfa0b240638b499769ad40d6087353c5679ae178a1ca77d376ae8d94d"),
        (40, 1000, "d4c068021bad6ce80d3a4dd2a8471603fc19dd9532ddf4872142588c2c4edbf9"),
        (40, 1010, "aaff5fcae548d599e4f2f9ca560a049fd66161bcef09c6c850f8425c7f4eb7d3"),
        # grids with no column (1), one or two columns, and segments with no cell
        (1, 1, "5a871219af103da5320b4d28f80d96b2b7dd878e74d34a736543f16fe706b3dd"),
        (1, 2, "2187163427f607f4c7cdc86ddf32343cba53b369e143baab7f5bd5282ae31101"),
        (1, 3, "1d6c43a9f051ce88f58a140ea61d4f842fbeabcd90414f8ead4c55429c440dfc"),
        (1, 5, "d5758f36a9344fc07e7ab92f94ed092841a9004531ee58fb8ab3873d59c7f236"),
        (3, 1, "7aba64a69bc0d5b762c9b46a81146dc29927b4c4b3b137010a2d56f386e2c261"),
        (3, 2, "2c882528f8f93144cc793134a640160eaa043f9e416041ab486482d0398735e0"),
        (3, 3, "840dc3bc4b5909545eb4ea9eda3adc708508438f808d485d05f2bd6cffd05015"),
        (3, 5, "18794319bc6bcda76ca309e4081ba2dc52225d9f023ce12dc804c5cf6b023ab3"),
        (8, 1, "839f6adacd4ac6243febff25e0e63fc5d9cacc446fb6d67ed66e21889f823089"),
        (8, 2, "7cc5bab689b1009649d9ccc5833ddefc46ef3b8d8b995c7683999441c13f3200"),
        (8, 3, "92455384f79be60564693ccdcf380bd034131fe4c079822b9d60b1e3e020613e"),
        (8, 5, "f2a0407cfc91e25dc8b30f7cb02f8146bfbab8567541232ce52290a73b638050"),
    ])
    def test_sweep_json_digest_at_benchmark_and_edge_inputs(self, n_max, grid, digest):
        text = main_proof_sweep(n_max, grid=grid, jobs=1).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_chunks_that_split_segments_give_the_pinned_bytes(self, jobs):
        # the chunk edges fall inside segments, so a segment's slice of
        # tails starts or stops between two of its columns
        text = main_proof_sweep(40, grid=990, jobs=jobs).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "71da955dfa0b240638b499769ad40d6087353c5679ae178a1ca77d376ae8d94d")

    @pytest.mark.parametrize("n, p, digest", [
        (8, "25/97", "8a4dae5334fe80a667a4815d88ed925f6a3e90bce47da6e7a2bf2923694bfe99"),
        (2, "1/2", "dd333661184aafcf9eafe9f50c5289f14808fb16997d152f35f78d1e8ce97e2b"),
        (12, "5/60", "29f81de7da0c71820cd398f59d05cba9a58c968cf9c8eb89a640e2c7e3b4aa51"),
        (3, "1/5", "d5bdc1886a00b639f0f9bd986c74ea8d150d492daef55ef61d95e855baf16685"),
    ])
    def test_cell_json_digest(self, n, p, digest):
        text = verify_main_proof(BinomialSpec(n, Fraction(p))).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("m_max, n_max, digest", [
        (6, 40, "878a2c95ac2a17dfdf3d53bd282c74875b770ba1ccb0a2dac5511f4e20b4c34d"),
        (20, 100, "30a2aea1ddc424f30ab2646a767fb48fcb58a54445e79842516fe51a84ca5862"),
    ])
    def test_anderson_samuels_json_digest(self, m_max, n_max, digest):
        text = anderson_samuels_sweep(m_max, n_max).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unreduced_chain_pairs_give_the_same_bytes(self, monkeypatch):
        # every reader takes a pair with its own denominator: 3T / (3 j^j)
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: tuple(3 * x for x in real(m, j)))
        self.test_sweep_json_digest()
        self.test_anderson_samuels_json_digest(
            6, 40, "878a2c95ac2a17dfdf3d53bd282c74875b770ba1ccb0a2dac5511f4e20b4c34d")
        self.test_cell_json_digest(
            8, "25/97", "8a4dae5334fe80a667a4815d88ed925f6a3e90bce47da6e7a2bf2923694bfe99")

    def test_anderson_samuels_violation_json_digest(self, monkeypatch):
        # V(3, 8) := V(3, 7): the violation witness carries a chain value
        real = proofs._chain_value
        monkeypatch.setattr(proofs, "_chain_value",
                            lambda m, j: real(m, 7 if (m, j) == (3, 8) else j))
        text = anderson_samuels_sweep(6, 12).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "adf7e7fff3776510f726597e4a43b8677921191c50941a299e6aa5a30a5580a9")


class TestCrossProofConsistency:
    @given(st.integers(1, 60), st.fractions(min_value=Fraction(1, 100),
                                            max_value=Fraction(99, 100),
                                            max_denominator=300))
    @settings(max_examples=50)
    def test_both_routes_agree(self, n, p):
        if n * p <= c_enclosure(128).hi:
            return
        spec = BinomialSpec(n, p)
        assert classify_case(spec).case_id in (1, 2, 3, 4, 5)
        assert verify_main_proof(spec).passed
        tail = tail_gt_mean(spec).tail
        if (n, p) == (2, Fraction(1, 2)):
            assert tail == QUARTER
        else:
            assert tail > QUARTER


class TestReportSerialization:
    def test_json_schema_and_roundtrip(self):
        report = verify_main_proof(BinomialSpec(3, Fraction(1, 3)))
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        for record in payload["steps"]:
            assert set(record) == {"step_id", "paper_anchor", "verdict", "witnesses"}
            assert record["verdict"] in ("TRUE", "FALSE", "UNDECIDED")
            for witness in record["witnesses"]:
                if "rational" in witness:
                    assert str(Fraction(witness["rational"])) == witness["rational"]
                else:
                    lo, hi = witness["enclosure"]
                    assert Fraction(lo) <= Fraction(hi)

    def test_nothing_rendered_before_serialization(self, monkeypatch):
        calls = []
        real = report_module.fraction_str
        monkeypatch.setattr(report_module, "fraction_str",
                            lambda value: calls.append(value) or real(value))
        report = main_proof_sweep(10, grid=60, jobs=1)
        assert calls == []
        payload = json.loads(report.to_json())
        endpoints = sum(1 if "rational" in w else len(w["enclosure"])
                        for s in payload["steps"] for w in s["witnesses"])
        assert len(calls) == endpoints == 12

    def test_values_stay_typed_and_render_exactly(self):
        cell = verify_main_proof(BinomialSpec(3, Fraction(1, 3)))
        assert step(cell, "conclusion").values == [("tail", Fraction(7, 27))]
        report = ProofReport("typed")
        report.add("s", "anchor", True,
                   [("k", 8), ("t", Fraction(7, 27)),
                    ("e", Enclosure(Fraction(1, 3), Fraction(1, 2)))])
        assert report.to_dict()["steps"][0]["witnesses"] == [
            {"name": "k", "rational": "8"},
            {"name": "t", "rational": "7/27"},
            {"name": "e", "enclosure": ["1/3", "1/2"]},
        ]

    def test_huge_rational_leaves_digit_limit_unchanged(self):
        value = Fraction(3**20000, 2**7 + 1)      # ~9543 digits
        limit = sys.get_int_max_str_digits()
        text = fraction_str(value)
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(text) == value
        finally:
            sys.set_int_max_str_digits(limit)

    def test_rendering_equals_str_without_touching_the_digit_limit(self, monkeypatch):
        big = [3**k for k in (1291, 1292, 2583, 2584, 20000, 209590)]   # 2047..332193 bits
        values = [0, 7, -7, 2**2048 - 1, 2**2048, -(2**2049), *big, -big[4],
                  Fraction(big[2], 1), Fraction(-big[5], big[3] + 2), Fraction(1, big[4] - 2)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(value) for value in values]
        finally:
            sys.set_int_max_str_digits(limit)

        def refuse(_):
            raise AssertionError("the digit limit is interpreter-wide")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert [fraction_str(value) for value in values] == expected
        assert str(Enclosure(-big[4], big[5])) == f"[{expected[12]}, {expected[11]}]"

    def test_text_rendering(self):
        report = verify_case5(10)
        text = report.to_text()
        assert "PASS" in text and "anchor_value" in text


class TestPinnedAppendix:
    """`verify appendix` keeps its bytes; the steps outside case 1's eps_* steps
    kept them through the change that made those steps exact."""

    def test_whole_report_digest(self):
        text = verify_appendix().to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ef828e08f514244c0c97539c65315f5173e29f353258d7ef5734b42c50c0a8a7")

    # case 1's eps_* steps, which an exact certificate over every real n replaces
    EPS_STAR = {"eps_star_parametrization", "eps_star_decreasing_4_6",
                "eps_star_increasing_7_89", "eps_star_decreasing_beyond_90",
                "eps_star_integer_argmax", "eps_star_ceiling", "dominating_bound_valid",
                "dominating_bound_decreasing", "dominating_bound_below_ceiling"}

    def test_steps_outside_eps_star_digest(self):
        kept = [s.to_dict() for s in verify_appendix().steps
                if s.step_id not in self.EPS_STAR]
        assert len(kept) == 25
        assert hashlib.sha256(json.dumps(kept, indent=2).encode()).hexdigest() == (
            "57ed4764b7068add15d88ef86e0f0335cff43bfa9057bac0083a3f4dcb11beb3")


class TestExactCertificates:
    """Cases 3-5 rest on exact rational-function identities and half-line
    signs from `algebra`; case 1's convexity needs no grid."""

    IDENTITIES = {"log_second_derivative_identity", "log_derivative_form",
                  "derivative_identity", "power_sequence_increasing"}

    def test_dropping_the_quotient_rule_term_fails_the_identities(self, monkeypatch):
        # N'D / D^2 in place of (N'D - ND') / D^2
        monkeypatch.setattr(algebra.Rational, "d",
                            lambda r: algebra.Rational(algebra._diff(r.num), r.den))
        report = verify_appendix()
        failed = {s.step_id for s in report.steps if not s.ok}
        assert self.IDENTITIES <= failed and not report.passed

    def test_refused_signs_fail_exactly_the_monotonicity_steps(self, monkeypatch):
        monkeypatch.setattr(algebra.Rational, "positive_from", lambda r, a: False)
        report = verify_appendix()
        assert [s.step_id for s in report.steps if s.verdict != "TRUE"] == [
            "f3_increasing", "f1_tilde_increasing", "log_derivative_positive_decreasing",
            "power_sequence_increasing"]
        assert {s.verdict for s in report.failed_steps()} == {"FALSE"}

    @pytest.mark.parametrize("verify", [verify_case3, verify_case4, verify_case5])
    def test_cases_3_to_5_refine_no_enclosure(self, verify, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cases 3-5 compare no enclosure")

        monkeypatch.setattr(proofs, "compare_certified", refuse)
        assert verify(600).passed

    def test_case1_makes_no_grid_comparison(self, monkeypatch):
        # convexity and the shape of eps_* are exact, so only the argmax and the
        # ceiling at n = 4, 89 and 90 compare enclosures
        real, calls = proofs.compare_certified, []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(proofs, "compare_certified", counted)
        assert verify_case1().passed
        assert len(calls) <= 6 and ">=" not in calls


class TestEpsilonStarCertificate:
    """Case 1's shape of eps_* for every real n >= 4, from one rational function
    of t and exact root counts; each mutation fails the step that reads it."""

    def failed(self):
        return [s.step_id for s in verify_case1().steps if s.verdict != "TRUE"]

    @pytest.mark.parametrize("t, n", [(Fraction(2), 4), (Fraction(3, 2), 100)])
    def test_anchors_lie_in_the_certified_enclosure(self, t, n):
        a, b, eps = proofs.epsilon_star_branch()
        assert (a * a)(t) == n and b(t) ** 2 == 2 * n - 4 and a(t) > 0 and b(t) > 0
        enc = epsilon_star(n, 200)
        assert enc.lo <= eps(t) <= enc.hi

    def test_parametrization_matches_the_definition_at_rational_n(self):
        # eps(n, 2/n) from the exact moments, with sqrt(n) = a and sigma = b/a^2
        a, b, eps = proofs.epsilon_star_branch()
        for t in (Fraction(3, 2), Fraction(7, 4), Fraction(19, 10)):
            n, root_n, sigma = (a * a)(t), a(t), b(t) / a(t) ** 2
            p = 2 / n
            assert sigma * sigma == p * (1 - p)
            ratio = p * (1 - p) * (p * p + (1 - p) ** 2) / sigma**3
            assert eps(t) == C3 / root_n * (ratio + C2)

    def mutate(self, monkeypatch, eps_of):
        real = proofs.epsilon_star_branch

        def mutated():
            a, b, eps = real()
            return a, b, eps_of(a, b, eps)

        monkeypatch.setattr(proofs, "epsilon_star_branch", mutated)

    def test_a_wrong_constant_fails_only_the_parametrization(self, monkeypatch):
        # a scaled c3 moves no root of d eps_*/dt: only the identity sees it
        self.mutate(monkeypatch, lambda a, b, eps: Fraction(33478, 33477) * eps)
        assert self.failed() == ["eps_star_parametrization"]

    def test_dropping_the_c2_term_fails_the_parametrization(self, monkeypatch):
        # without c2/a, d eps_*/dt gains a root on t in [1.83, 2] and on
        # [1.4142135, 1.50487], so two monotonicity steps fail with it
        self.mutate(monkeypatch, lambda a, b, eps: C3 * (a / b - 2 * b / a**3))
        assert self.failed() == ["eps_star_parametrization", "eps_star_decreasing_4_6",
                                 "eps_star_decreasing_beyond_90"]

    def test_an_interval_over_the_root_near_90_fails_its_step(self, monkeypatch):
        intervals = list(proofs.CASE1_T_INTERVALS)
        intervals[1] = ("1.5048", "1.8")          # takes in the root at n ~ 89.88
        monkeypatch.setattr(proofs, "CASE1_T_INTERVALS", tuple(intervals))
        assert self.failed() == ["eps_star_increasing_7_89"]

    @pytest.mark.parametrize("index, interval, step_id", [
        (1, ("1.55", "1.8"), "eps_star_increasing_7_89"),      # n(1.55) < 89
        (0, ("1.9", "2"), "eps_star_decreasing_4_6"),          # n(1.9) < 6
        (2, ("1.4142136", "1.50487"), "eps_star_decreasing_beyond_90"),  # above sqrt 2
    ])
    def test_an_interval_short_of_its_integers_fails_its_step(self, index, interval,
                                                             step_id, monkeypatch):
        intervals = list(proofs.CASE1_T_INTERVALS)
        intervals[index] = interval
        monkeypatch.setattr(proofs, "CASE1_T_INTERVALS", tuple(intervals))
        assert self.failed() == [step_id]

    def test_a_ceiling_below_eps_star_90_fails_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(proofs, "EPSILON_STAR_CEILING", epsilon_star(90, 200).lo)
        assert self.failed() == ["eps_star_ceiling"]

    def test_the_last_step_claims_every_n_beyond_90(self):
        claim = step(verify_case1(), "eps_star_decreasing_beyond_90").paper_anchor
        assert "every real n = n(t), sqrt 2 < t in [1.4142135, 1.50487]" in claim
        assert "integers 90..oo" in claim
        assert "every integer n >= 4" in step(verify_case1(), "eps_star_ceiling").paper_anchor
