#!/usr/bin/env python3
"""Print one sha256 over the output of `check` and `tail` on a fixed query set.

The set is the queries of `perfbench/gen.py` `point_block(1..4)` and a list
of edge inputs, each run through both commands in this process.  The hash
covers argv, exit code, stdout and stderr of every run, so two checkouts
print the same digest exactly when they print the same bytes.  Run it from
the repository root of each checkout and compare:

    python3 scripts/query_digest.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen                                          # noqa: E402  (read only)
from binexceed.cli import main as cli_main          # noqa: E402

BLOCKS = range(1, 5)
EDGE = [
    ("2", "1/2"), ("5", "1"), ("1", "1"), ("10", "0"), ("6", "1/6"), ("12", "1/6"),
    ("3", "2/3"), ("5000", "337/1000"), ("4000", "1/6"), ("1", "1e-1000"),
    ("7", "0.125"), ("64", "1/2"), ("1", "0"),
    ("4948", "361046/960047"), ("20", f"1/{2**4000}"), ("3000", "1/2"),
    ("1000", "7/10"), ("2000", "3/10"), ("1", f"1/{3**5000}"),
    ("5000", "1/10007"), ("4000", "999999/1000000"), ("100", "9/10"), ("3000", "5/12"),
]


def queries() -> list[tuple[str, str]]:
    points = [(str(q["n"]), q["p"]) for seed in BLOCKS for q in gen.point_block(seed)]
    return points + EDGE


def main() -> None:
    digest = hashlib.sha256()
    runs = 0
    for n, p in queries():
        for command in ("check", "tail"):
            argv = [command, n, p]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
            runs += 1
    print(f"{digest.hexdigest()}  ({runs} runs)")


if __name__ == "__main__":
    main()
