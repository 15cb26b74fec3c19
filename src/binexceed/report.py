"""Structured proof reports: one record per verified step.

Each step carries an identifier, the mathematical claim it checks, a
TRUE or FALSE verdict and the exact values (ints, Fractions, Enclosures) that
decided it.  They are rendered only when `witnesses` is read, as `to_dict`
does, losslessly: rationals as "num/den", enclosures as a ["lo", "hi"] pair,
through `digits.fraction_str`, which has no digit limit.
"""

from __future__ import annotations

from fractions import Fraction

from .digits import fraction_str
from .enclosure import Enclosure

TRUE = "TRUE"
FALSE = "FALSE"


def rational_witness(name: str, value) -> dict:
    return {"name": name, "rational": fraction_str(Fraction(value))}


def enclosure_witness(name: str, enc: Enclosure) -> dict:
    return {"name": name, "enclosure": [fraction_str(enc.lo), fraction_str(enc.hi)]}


class ProofStep:
    def __init__(self, step_id: str, paper_anchor: str, verdict: str, values=None):
        self.step_id, self.paper_anchor, self.verdict = step_id, paper_anchor, verdict
        self.values = [] if values is None else values

    @property
    def ok(self) -> bool:
        return self.verdict == TRUE

    @property
    def witnesses(self) -> list:
        return [enclosure_witness(name, value) if isinstance(value, Enclosure)
                else rational_witness(name, value) for name, value in self.values]

    def to_dict(self) -> dict:
        return {
            "step_id": self.step_id,
            "paper_anchor": self.paper_anchor,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


class ProofReport:
    def __init__(self, title: str, steps=None):
        self.title = title
        self.steps = [] if steps is None else steps

    def add(self, step_id: str, paper_anchor: str, ok, values=None) -> ProofStep:
        step = ProofStep(step_id, paper_anchor, TRUE if ok else FALSE, list(values or []))
        self.steps.append(step)
        return step

    def extend(self, other: "ProofReport") -> None:
        self.steps.extend(other.steps)

    @property
    def passed(self) -> bool:
        return all(step.ok for step in self.steps)

    def failed_steps(self) -> list:
        return [s for s in self.steps if not s.ok]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "steps": [s.to_dict() for s in self.steps],
        }

    def to_json(self) -> str:
        import json         # imported here: of all commands, only `verify` serializes
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"report: {self.title}"]
        for s in self.steps:
            lines.append(f"  [{s.verdict:>9}] {s.step_id}: {s.paper_anchor}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.steps)} steps)")
        return "\n".join(lines)
