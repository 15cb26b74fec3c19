"""Bounded resources: the unbounded caches left in the package may only shrink,
and importing it loads no process pool and none of the heavier stdlib modules
that no query reads (`dataclasses` with its `inspect`, and `json`).  Each CLI
call is a fresh process that pays for every module the import loads."""

import importlib
import pkgutil
import subprocess
import sys

import binexceed

# each needs a size limit or a per-run scope; remove a name when its cache goes
UNBOUNDED_CACHES = set()


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
    # sweep on more than one process needs them; dataclasses (with inspect)
    # and json cost a fresh `binexceed check` more than its query
    code = ("import sys, binexceed, binexceed.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses', "
            "'inspect', 'json') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n")
