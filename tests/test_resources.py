"""Bounded resources: the unbounded caches left in the package may only shrink."""

import importlib
import pkgutil

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
