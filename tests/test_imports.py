"""Importing a module loads only what that module uses.

Each case runs a fresh interpreter, so the modules this test session has
already loaded do not count.
"""

import subprocess
import sys

import pytest

#: module -> the heavy dependencies it must not load
ABSENT = {
    "heatseries.graphs": {"numpy", "mpmath"},
    "heatseries.bounds": {"numpy", "mpmath"},
    "heatseries.errors": {"numpy", "mpmath"},
    "heatseries.counterexample": {"numpy"},
    "heatseries.laplacian": {"mpmath"},
    "heatseries.series": {"mpmath"},
    "heatseries.oracle": {"mpmath"},
}


def fresh(code):
    """What `code` prints in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("module", ABSENT)
def test_module_loads_only_what_it_uses(module):
    loaded = fresh(f"import sys, {module}; print(*sys.modules)").split()
    assert not ABSENT[module] & set(loaded)


def test_package_root_exports_nothing():
    assert fresh("import heatseries; print(hasattr(heatseries, 'SeriesSolution'))") == "False\n"
