"""Correctness checks on binexceed's outputs.

Each checker returns a list of problems; an empty list means the operation
is correct.  They read only the report dictionaries and the CLI text, so
they run inside the timed region without touching binexceed's caches.
"""

from __future__ import annotations

from fractions import Fraction

TRUE = "TRUE"

_BOUND_LINE = {
    "theorem": "tail >= 1/4: ",
    "proposition": "1 - (1-p)^n >= max(1, b*n)*p: ",
}


def check_chain_report(report: dict, n_max: int, expected_cells: int) -> list[str]:
    """main_proof_sweep: passes, census is exactly [(2, 1/2)], cell count fixed."""
    problems = [f"step {s['step_id']} is {s['verdict']}"
                for s in report["steps"] if s["verdict"] != TRUE]
    if report.get("passed") is not True:
        problems.append("report does not pass")
    ids = [s["step_id"] for s in report["steps"]]
    expected_ids = [f"all_steps_verified_n{n}" for n in range(1, n_max + 1)]
    if ids != expected_ids + ["equality_census"]:
        problems.append(f"unexpected step ids: {ids[:3]}...{ids[-2:]}")
        return problems
    census = {w["name"]: w["rational"] for w in report["steps"][-1]["witnesses"]}
    equalities = sorted(name for name in census if name.startswith("equality at"))
    if equalities != ["equality at n=2, p=1/2"]:
        problems.append(f"equality census is {equalities}")
    if census.get("total_cells") != str(expected_cells):
        problems.append(f"total_cells {census.get('total_cells')} != {expected_cells}")
    return problems


def check_query_output(query: dict, exit_code, stdout: str) -> list[str]:
    """`binexceed check n p`: exit 0, echoed input, expected regime, bound TRUE."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("n", "p", "regime"):
            fields[key] = value
    if fields.get("n") != str(query["n"]):
        problems.append(f"echoed n {fields.get('n')!r}")
    if fields.get("p") != str(Fraction(query["p"])):
        problems.append("echoed p differs from the input")
    side = query["side"]
    if not fields.get("regime", "").startswith(side + " "):
        problems.append(f"regime {fields.get('regime')!r}, expected {side}")
    verdicts = [line[len(_BOUND_LINE[side]):] for line in stdout.splitlines()
                if line.startswith(_BOUND_LINE[side])]
    if verdicts != [TRUE]:
        problems.append(f"bound verdict {verdicts}")
    return problems
