"""Every test starts with the program's memos empty.

The rule is the benchmark's (bench/run.py, clear_caches): call
cache_clear() on every program attribute that has one, and clear() every
module-level dict whose name ends in _CACHE.  So a test sees the code
path its arguments select, not a view of what an earlier test built.
"""

import sys

import pytest


def clear_memos() -> None:
    for name, module in list(sys.modules.items()):
        if name != "threesquares" and not name.startswith("threesquares."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


@pytest.fixture(autouse=True)
def empty_memos():
    clear_memos()
