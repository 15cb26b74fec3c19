#!/usr/bin/env python3
"""Print one sha256 over the output of `verify main` on a fixed set of sweeps.

The set is the sweep of every input of `perfbench/gen.py` `chain_input`
(n <= 40 at the 11 grids 990, 992, ..., 1010) and the command's defaults
(n <= 200, grid 1000), each run once in this process.
The hash covers argv, exit code, stdout and the written JSON report of every
run, so two checkouts print the same digest exactly when they print the same
bytes.  Run it from the repository root of each checkout and compare:

    python3 scripts/sweep_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen                                          # noqa: E402  (read only)
from binexceed.cli import main as cli_main          # noqa: E402

SEEDS = range(11)       # chain_input cycles through 11 grids
DEFAULTS = (200, 1000)  # verify main's --nmax and --grid


def sweeps() -> list[tuple[int, int]]:
    inputs = [gen.chain_input(seed) for seed in SEEDS]
    return [(job["n_max"], job["grid"]) for job in inputs] + [DEFAULTS]


def main() -> None:
    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)           # the report's path is part of stdout
        for n_max, grid in sweeps():
            argv = ["verify", "main", "--nmax", str(n_max), "--grid", str(grid),
                    "--out", "verify_main.json"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            report = Path("verify_main.json").read_text(encoding="utf-8")
            digest.update(repr((argv, code, out.getvalue(), report)).encode())
            runs += 1
        os.chdir(ROOT)
    print(f"{digest.hexdigest()}  ({runs} runs)")


if __name__ == "__main__":
    main()
