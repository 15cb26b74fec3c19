"""The record contract: what callers may rely on from the package's result types.

Frozen records refuse assignment with AttributeError, equal fields make equal
records with equal hashes, the validating records coerce and check their
inputs, and every record that crosses a process pool survives pickling.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from binexceed.binom import BinomialSpec, tail_gt_mean
from binexceed.bounds import (
    OptimalityWitness,
    SweepResult,
    check_theorem,
    figure_points,
    optimality_search,
    theorem_sweep,
)
from binexceed.enclosure import Enclosure, Verdict
from binexceed.proofs import (
    berry_esseen_epsilon,
    verify_main_proof,
)
from binexceed.report import ProofReport, ProofStep

HALF = Fraction(1, 2)


def _frozen_records():
    """{name: (record, one of its fields)}, built as the package builds them."""
    spec = BinomialSpec(10, Fraction(3, 10))
    return {
        "Enclosure": (Enclosure(0, 1), "lo"),
        "Verdict": (Verdict(True, witness=Fraction(1, 3)), "value"),
        "BinomialSpec": (spec, "n"),
        "ExceedanceRecord": (tail_gt_mean(spec), "tail"),
        "TheoremVerdict": (check_theorem(spec), "spec"),
        "OptimalityWitness": (optimality_search(Fraction(1, 4), 50), "n"),
        "CurvePoint": (figure_points(5, 10)[0], "p"),
        "BerryEsseenEval": (berry_esseen_epsilon(10, Fraction(3, 10)), "rho"),
    }


@pytest.mark.parametrize("name", sorted(_frozen_records()))
def test_frozen_record_refuses_assignment(name):
    record, field = _frozen_records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, -1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_frozen_instance_error_is_an_attribute_error():
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("name", sorted(_frozen_records()))
def test_equal_fields_make_equal_records(name):
    (a, _), (b, _) = _frozen_records()[name], _frozen_records()[name]
    assert a is not b and a == b
    assert hash(a) == hash(b)


def test_enclosure_equality_reads_every_field():
    assert Enclosure(0, 1) == Enclosure(Fraction(0), Fraction(1))
    assert Enclosure(0, 1) != Enclosure(0, 1, 65)
    assert Enclosure(0, 1) != Enclosure(0, 2)
    assert BinomialSpec(3, HALF) != BinomialSpec(4, HALF)


def test_optimality_witness_builds_by_keyword():
    enc = Enclosure(0, Fraction(1, 5))
    w = OptimalityWitness(c1=Fraction(1, 4), n=None, p=None, tail=None,
                          limit_enclosure=enc)
    assert (w.c1, w.n, w.p, w.tail, w.limit_enclosure) == (Fraction(1, 4), None, None,
                                                           None, enc)


def test_validating_records_reject_bad_input():
    with pytest.raises(ValueError):
        BinomialSpec(0, HALF)
    with pytest.raises(ValueError):
        BinomialSpec(2, Fraction(3, 2))
    with pytest.raises(ValueError):
        Enclosure(1, 0)
    with pytest.raises(ValueError):
        Enclosure(0, 1, 0)
    with pytest.raises(TypeError):
        BinomialSpec(2, 0.5)
    with pytest.raises(TypeError):
        Enclosure(0.0, 1)


def test_validating_records_coerce_to_fractions():
    enc = Enclosure(0, 1)
    assert type(enc.lo) is Fraction and type(enc.hi) is Fraction
    assert enc.precision_bits == 64
    assert type(BinomialSpec(2, 1).p) is Fraction


def test_enclosures_do_not_order():
    with pytest.raises(TypeError):
        Enclosure(0, 1) < Enclosure(0, 2)


def test_verdict_truth_and_text():
    assert Verdict(True) and Verdict(True).text == "TRUE"
    assert not Verdict(False) and Verdict(False).text == "FALSE"
    assert Verdict(False).witness is None


@pytest.mark.parametrize("record", [
    Enclosure(Fraction(1, 3), Fraction(1, 2), 80),
    BinomialSpec(7, Fraction(2, 7)),
    Verdict(False, witness=Enclosure(-1, 0)),
    SweepResult(3, [(2, Fraction(1, 3), Fraction(1, 5))], [(2, HALF)]),
], ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_pickled_sweep_result_is_the_sweep():
    result = theorem_sweep(6, 20)
    assert pickle.loads(pickle.dumps(result)) == result


def test_pickled_proof_report_renders_the_same():
    report = verify_main_proof(BinomialSpec(6, Fraction(1, 3)))
    copy = pickle.loads(pickle.dumps(report))
    assert copy.to_json() == report.to_json()
    assert copy.to_text() == report.to_text()


def test_proof_reports_do_not_share_their_lists():
    a, b = ProofReport("a"), ProofReport("b")
    a.add("s", "anchor", True)
    assert b.steps == [] and len(a.steps) == 1
    assert ProofStep("x", "y", "TRUE").values is not ProofStep("x", "y", "TRUE").values
