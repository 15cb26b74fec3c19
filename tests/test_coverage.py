"""Coverage of the five-case proof: every step of `verify appendix` holds for
every n but the cross-check of the two proofs at sample specs.  A step that
checks its claim only at sample points counts them in a `cells` or
`sampled_n` witness, or says "sampled" in its anchor; the set of such steps
may only shrink."""

from binexceed.proofs import verify_appendix
from binexceed.report import ProofReport

SAMPLED_WITNESSES = {"cells", "sampled_n"}
# remove a step id when its claim holds for every n
SAMPLED_STEPS = ["cross_proof_consistency"]


def _sampled_steps(report: ProofReport) -> list:
    return [s.step_id for s in report.steps
            if "sampled" in s.paper_anchor
            or SAMPLED_WITNESSES & {name for name, _ in s.values}]


def test_only_the_cross_check_is_sampled():
    assert _sampled_steps(verify_appendix()) == SAMPLED_STEPS


def test_a_sampled_witness_or_anchor_is_found():
    report = ProofReport("sampled")
    report.add("by_cells", "holds on a grid", True, [("cells", 3)])
    report.add("by_n", "holds for some n", True, [("sampled_n", 7)])
    report.add("by_anchor", "holds at sampled points", True)
    report.add("whole", "holds for every n (analytic)", True, [("c", 1)])
    assert _sampled_steps(report) == ["by_cells", "by_n", "by_anchor"]
