#!/usr/bin/env python3
"""Run every proof verifier at full scale and write the JSON reports.

This is the desk-scale reproduction of all results: the monotone-chain sweep
to n = 50, the five-case verification and the proposition, each for every n
from one fixed report, and the chain-monotonicity rectangle.
Exits nonzero if any step fails.
"""

import sys
import time

from binexceed.cli import main as cli_main

RUNS = [
    ["verify", "main", "--nmax", "50"],
    ["verify", "appendix"],
    ["verify", "proposition"],
    ["verify", "anderson-samuels", "--nmax", "100", "--mmax", "20"],
]


def main() -> int:
    worst = 0
    for argv in RUNS:
        started = time.perf_counter()
        print(f"$ binexceed {' '.join(argv)}")
        code = cli_main(argv)
        print(f"  -> exit {code} in {time.perf_counter() - started:.1f}s\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
