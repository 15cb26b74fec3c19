"""Bounded resources: the unbounded caches left in the package may only shrink,
and importing it loads no process pool and none of the heavier stdlib modules
that no query reads (`dataclasses` with its `inspect`, `json`, and `argparse`
with `gettext` and `locale`).  Each CLI call is a fresh process that pays for
every module the import loads.  A sweep of one n holds one row of grid tails.
No check in the package is an `assert` statement, which `python -O` strips.
The package's line count, its public names and the defaulted parameters of
its public functions may only shrink."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import binexceed
from oracles import main_proof_sweep_one_n

# each needs a size limit or a per-run scope; remove a name when its cache goes
UNBOUNDED_CACHES = set()

# `wc -l src/binexceed/*.py src/binexceed/cli/*.py`; a change that raises it
# sets the new number here and names it, with the reason, in CHANGES.md
MAX_PACKAGE_LINES = 2388

# the names `import binexceed` exports, submodules aside; a change that adds
# one adds it here and names it, with the reason, in CHANGES.md
PUBLIC_NAMES = {
    "BerryEsseenEval", "BinomialSpec", "CurvePoint", "DEFAULT_PRECISION_BITS",
    "Enclosure", "ExceedanceRecord", "OptimalityWitness", "PRECISION_CAP",
    "PreconditionError", "ProofReport", "ProofStep", "TheoremVerdict",
    "UndecidedComparisonError", "Verdict", "anderson_samuels_sweep", "b_enclosure",
    "berry_esseen_epsilon", "c_enclosure", "check_proposition", "check_theorem",
    "compare_certified", "decide_certified", "epsilon_star", "exp_enclosure",
    "figure_points", "ln_enclosure", "main_proof_sweep", "optimality_search", "pmf",
    "proposition_sweep", "sqrt_enclosure", "survival", "tail_gt_mean", "theorem_sweep",
    "verify_appendix", "verify_case1", "verify_case2", "verify_case3", "verify_case4",
    "verify_case5", "verify_main_proof", "verify_proposition_proof",
}

# `function.parameter` for every parameter with a default on the functions
# `import binexceed` exports; a change that adds one adds it here and names
# it, with the reason, in CHANGES.md
PUBLIC_DEFAULTS = {
    "b_enclosure.precision_bits", "berry_esseen_epsilon.precision_bits",
    "c_enclosure.precision_bits", "epsilon_star.precision_bits",
    "exp_enclosure.precision_bits", "ln_enclosure.precision_bits",
    "sqrt_enclosure.precision_bits", "main_proof_sweep.grid", "main_proof_sweep.jobs",
    "proposition_sweep.grid", "theorem_sweep.grid",
}


def _unbounded_caches() -> set:
    found = set()
    for info in pkgutil.walk_packages(binexceed.__path__, "binexceed."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            cache_info = getattr(value, "cache_info", None)
            if (cache_info is not None and value.__module__ == module.__name__
                    and cache_info().maxsize is None):
                found.add(f"{info.name.removeprefix('binexceed.')}.{name}")
    return found


def test_unbounded_caches_only_shrink():
    assert _unbounded_caches() == UNBOUNDED_CACHES


def test_import_loads_no_process_pool():
    # concurrent.futures pulls in multiprocessing, socket and logging; only a
    # sweep on more than one process needs them; dataclasses (with inspect),
    # json and argparse (with gettext and locale) cost a fresh `binexceed
    # check` more than its query, which runs without the parser
    code = ("import sys, binexceed, binexceed.cli\n"
            "names = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect', "
            "'json', 'argparse', 'gettext', 'locale')\n"
            "loaded = lambda: [m for m in names if m in sys.modules]\n"
            "print(loaded())\n"
            "code = binexceed.cli.main(['check', '70', '337/1000'])\n"
            "print(code, loaded())")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=60)
    lines = result.stdout.splitlines()
    assert (result.returncode, lines[0], lines[-1]) == (0, "[]", "0 []")


def test_one_n_of_the_grid_sweep_keeps_one_row_of_tails():
    # all 200 rows of up to 1000 tails of up to 2000 bits peak at 33.7 MB
    # traced, the last row alone with its column frames at 1.4 MB; the
    # theorem sweep reads the same rows one at a time
    for sweep in (main_proof_sweep_one_n, binexceed.theorem_sweep):
        tracemalloc.start()
        try:
            sweep(200, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, sweep.__name__


def test_no_assert_statement_in_the_package():
    # a width guard written as `assert` would let `python -O` return an
    # interval that can miss its value; every check raises explicitly
    root = Path(binexceed.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_lines_only_shrink():
    root = Path(binexceed.__file__).parent
    paths = [*root.glob("*.py"), *root.glob("cli/*.py")]
    assert sum(path.read_bytes().count(b"\n") for path in paths) <= MAX_PACKAGE_LINES


def test_public_names_only_shrink():
    found = {name for name, value in vars(binexceed).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert found == PUBLIC_NAMES


def test_public_defaults_only_shrink():
    found = {f"{name}.{param.name}" for name, value in vars(binexceed).items()
             if not name.startswith("_") and inspect.isfunction(value)
             for param in inspect.signature(value).parameters.values()
             if param.default is not param.empty}
    assert found == PUBLIC_DEFAULTS
