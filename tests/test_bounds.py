"""Theorem/proposition deciders and the optimality counterexample search."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
import hypothesis.strategies as st

from binexceed import bounds
from binexceed.binom import BinomialSpec, survival, tail_gt_mean
from binexceed.bounds import (
    check_proposition,
    check_theorem,
    optimality_search,
    proposition_sweep,
    theorem_grid,
    theorem_sweep,
)
from binexceed.enclosure import (
    Enclosure,
    PreconditionError,
    b_enclosure,
    c_enclosure,
    exp_enclosure,
)

from oracles import (
    _proposition_sweep_one_n,
    _theorem_sweep_one_n,
    tail_by_enumeration,
    verdict_digest,
)

QUARTER = Fraction(1, 4)


class TestCheckTheorem:
    def test_equality_case(self):
        v = check_theorem(BinomialSpec(2, Fraction(1, 2)))
        assert v.hypothesis_holds.value and v.bound_holds.value
        assert not v.strict.value
        assert v.is_equality_case

    def test_single_trial(self):
        v = check_theorem(BinomialSpec(1, Fraction(3, 10)))
        assert v.hypothesis_holds.value and v.strict.value
        assert v.tail == Fraction(3, 10)

    def test_three_trials_third(self):
        v = check_theorem(BinomialSpec(3, Fraction(1, 3)))
        assert v.hypothesis_holds.value and v.strict.value
        assert v.tail == Fraction(7, 27)

    def test_p_one_fails_hypothesis(self):
        v = check_theorem(BinomialSpec(3, Fraction(1)))
        assert not v.hypothesis_holds.value
        assert not v.bound_holds.value          # tail is 0

    def test_below_threshold_fails_hypothesis(self):
        v = check_theorem(BinomialSpec(10, Fraction(1, 100)))
        assert not v.hypothesis_holds.value

    @given(st.integers(1, 40), st.fractions(min_value=0, max_value=1,
                                            max_denominator=200))
    def test_hypothesis_implies_bound(self, n, p):
        v = check_theorem(BinomialSpec(n, p))
        if v.hypothesis_holds.value:
            assert v.bound_holds.value
            if not v.is_equality_case:
                assert v.strict.value


class TestCheckProposition:
    def test_ten_trials_fortieth(self):
        assert check_proposition(BinomialSpec(10, Fraction(1, 40))).value

    def test_p_zero(self):
        assert check_proposition(BinomialSpec(7, Fraction(0))).value

    def test_single_trial_equality(self):
        # n = 1 makes both sides exactly p
        assert check_proposition(BinomialSpec(1, Fraction(1, 5))).value

    def test_rejects_large_p(self):
        with pytest.raises(PreconditionError):
            check_proposition(BinomialSpec(2, Fraction(1, 2)))

    @given(st.integers(1, 60), st.integers(1, 280))
    def test_holds_on_certified_grid(self, n, k):
        # k/1000 <= 0.28 < c, so p = k/(1000n) is inside the hypothesis
        assert check_proposition(BinomialSpec(n, Fraction(k, 1000 * n))).value


class TestPinnedVerdicts:
    """Witnesses of the certified decisions behind `check_theorem` and
    `check_proposition`, pinned; n*p lies within 2^-4088 of c at n = 19."""

    _C_4090 = int(c_enclosure(6000).lo * 2**4090)
    BELOW = Fraction(_C_4090 - 3, 19 << 4090)
    ABOVE = Fraction(_C_4090 + 4, 19 << 4090)

    def test_proposition_witness(self):
        assert check_proposition(BinomialSpec(1, Fraction(1, 5))) == (True, Fraction(0))
        verdict = check_proposition(BinomialSpec(19, self.BELOW))
        assert verdict.value and verdict.witness.precision_bits == 64
        assert verdict_digest([verdict]) == (
            "9463a43f5261565cd59ec064c9e5cab8e0018861ec763224982ed470b715ef88")

    def test_hypothesis_witness(self):
        verdicts = [check_theorem(BinomialSpec(n, p)).hypothesis_holds for n, p in (
            (19, self.ABOVE), (19, self.BELOW),
            (5000, Fraction(337, 1000)), (10, Fraction(1, 100)))]
        assert [(v.value, v.witness.precision_bits) for v in verdicts] == [
            (True, 4096), (False, 4096), (True, 64), (False, 64)]
        assert [verdict_digest([v]) for v in verdicts] == [
            "16c268d25c62fdaee7b1633f5cd960a67c9cc71345307d8bf0c88efd06f22502",
            "6575680ab3f596d8deca1d1f18ee9eddab09db237a2bb3a25e2a406019692033",
            "854208e755197ef8988238012bf98e520d2e9c8edf6fb77606d989122a9462ae",
            "160a45c3da7f387e8e200834461003a8dbad9068360bc56194fa6dd317fd1fc7"]


class TestOptimality:
    def test_quarter_candidate(self):
        w = optimality_search(Fraction(1, 4), 100)
        assert (w.n, w.p, w.tail) == (2, Fraction(1, 8), Fraction(15, 64))
        assert w.tail < QUARTER
        assert w.limit_enclosure.hi < QUARTER

    def test_028_candidate_limit_certificate(self):
        w = optimality_search(Fraction(28, 100), 100)
        assert w.limit_enclosure.hi < QUARTER
        # 1 - e^(-0.28) = 0.244216...
        assert w.limit_enclosure.contains(Fraction("0.2442162585442745278608991928"))
        assert w.n == 6 and w.tail == tail_by_enumeration(6, Fraction(28, 600))

    def test_near_c_candidate_has_no_small_witness(self):
        c1 = Fraction(287682, 1000000)          # c - c1 < 1e-6
        w = optimality_search(c1, 100)
        assert w.n is None and w.tail is None
        assert w.limit_enclosure.hi < QUARTER

    def test_rejects_candidate_at_or_above_c(self):
        with pytest.raises(PreconditionError):
            optimality_search(Fraction(1, 2), 10)
        with pytest.raises(PreconditionError):
            optimality_search(Fraction(29, 100), 10)

    def test_limit_certificate_is_first_separating_enclosure(self):
        # 64 bits already separate 1 - e^(-c1) from 1/4 for both candidates
        for c1 in (Fraction(28, 100), Fraction(1, 4)):
            w = optimality_search(c1, 100)
            assert w.limit_enclosure == 1 - exp_enclosure(-c1, 64)

    def test_limit_at_or_above_quarter_raises(self, monkeypatch):
        # an enclosure contradicting c1 < ln(4/3) must not become a certificate
        monkeypatch.setattr(bounds, "exp_enclosure",
                            lambda x, bits: Enclosure(0, 0, bits))
        with pytest.raises(ArithmeticError):
            optimality_search(Fraction(1, 4), 10)

    def test_witness_tail_increasing_in_candidate(self):
        # tail_gt_mean((n, c1/n)) is strictly increasing in c1 for fixed n
        n = 7
        candidates = [Fraction(k, 100) for k in range(5, 29, 4)]
        tails = [tail_gt_mean(BinomialSpec(n, c1 / n)).tail for c1 in candidates]
        assert all(a < b for a, b in zip(tails, tails[1:]))


class TestSmallPRegime:
    def test_tail_is_one_minus_q_power(self):
        c = c_enclosure(128)
        for n in (1, 2, 5, 20, 100, 200):
            for k in range(1, 1000):
                p = Fraction(k, 1000 * n)
                if not c.hi < n * p < 1:
                    continue
                spec = BinomialSpec(n, p)
                assert tail_gt_mean(spec).tail == 1 - (1 - p) ** n == survival(spec, 1)
                break                            # one representative per n


class TestSweeps:
    def test_theorem_sweep_small(self):
        result = theorem_sweep(20, grid=100)
        assert not result.violations
        assert result.equalities == [(2, Fraction(1, 2))]
        assert result.cells > 1000

    @pytest.mark.parametrize("grid", [60, 97])
    def test_theorem_sweep_matches_brute_force(self, grid):
        cells, violations, equalities = 0, [], []
        for n in range(1, 31):
            for k in theorem_grid(n, grid):
                p = Fraction(k, grid)
                tail = tail_gt_mean(BinomialSpec(n, p)).tail
                cells += 1
                if tail < QUARTER:
                    violations.append((n, p, tail))
                elif tail == QUARTER:
                    equalities.append((n, p))
        assert theorem_sweep(30, grid) == bounds.SweepResult(
            cells, violations, equalities)
        assert equalities == ([(2, Fraction(1, 2))] if grid % 2 == 0 else [])

    def test_proposition_sweep_small(self):
        result = proposition_sweep(20, grid=100)
        assert not result.violations
        assert result.cells == 20 * 28          # k <= floor(100 c) = 28 per n

    # 1000 is among the eleven grids 990..1010 of the perfbench chain_sweep
    @pytest.mark.parametrize("grid", [*range(1, 14), 60, 97, *range(990, 1011, 2)])
    def test_sweeps_equal_their_per_cell_oracles(self, grid):
        k_max, b = theorem_grid(1, grid).start - 1, b_enclosure()
        theorem = [_theorem_sweep_one_n(n, grid) for n in range(1, 41)]
        proposition = [_proposition_sweep_one_n(n, grid, k_max, b) for n in range(1, 41)]
        for n_max in (1, 2, 5, 12, 40):
            assert theorem_sweep(n_max, grid) == bounds.SweepResult.merged(theorem[:n_max])
            assert proposition_sweep(n_max, grid) == bounds.SweepResult.merged(
                proposition[:n_max])

    def test_theorem_grid_starts_past_ln43(self):
        # grid = 1 has no cell p = k/grid < 1: the range is empty
        empty = 0
        with mpmath.workdps(60):
            c = mpmath.log(mpmath.mpf(4) / 3)
            for grid in (1, 40, 50, 97, 100, 1000):
                for n in range(1, 201):
                    start = int(mpmath.floor(c * grid / n)) + 1
                    assert theorem_grid(n, grid) == range(start, grid)
                    empty += start >= grid
        assert empty == 200

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError):
            theorem_grid(2, 0)
        for sweep in (theorem_sweep, proposition_sweep):
            for n_max, grid in ((0, 20), (3, 0)):
                with pytest.raises(ValueError):
                    sweep(n_max, grid)

    def test_proposition_fallback_decides_every_unaccepted_cell(self, monkeypatch):
        # hi(b) = 2 accepts no cell with n >= 2, so each goes to check_proposition;
        # only the sweep's b_enclosure() is widened, and check_proposition still
        # refines the true b at the precisions it passes
        decided = []

        def counting(spec):
            decided.append(spec)
            return check_proposition(spec)

        real_b = bounds.b_enclosure
        monkeypatch.setattr(bounds, "b_enclosure", lambda bits=None: (
            Enclosure(Fraction(1, 2), Fraction(2)) if bits is None else real_b(bits)))
        monkeypatch.setattr(bounds, "check_proposition", counting)
        result = proposition_sweep(10, 1000)
        assert result.cells == 10 * 287
        assert not result.violations
        assert len(decided) == 9 * 287
