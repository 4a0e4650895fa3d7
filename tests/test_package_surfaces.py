"""The public package surfaces stay live and cheap to import.

Every name a package lists in ``__all__`` must resolve on the package, so a
deletion that leaves a stale re-export behind fails here rather than at a
user's ``from repro.x import *``. The package, the paper harnesses and
both console entry points (``repro-eval``, ``repro-serve``) start without
scipy, which only the CPU baselines' reference kernels load, and without
``multiprocessing``: the SpMU fan-out forks without it, and executor
workers are ``repro-eval worker`` subprocesses. No package attribute
shadows a submodule of the same name, so ``repro.apps.spmspm`` is always
the module. ``repro.runtime`` re-exports nothing, so ``import repro.apps``
loads no runtime layer but the registry the applications register into.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = (
    "repro",
    "repro.eval",
    "repro.formats",
    "repro.core",
    "repro.sim",
    "repro.workloads",
    "repro.runtime.executors",
)

#: Every package of the distribution, imported.
ALL_PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)

EXPORTS = [
    (package, name)
    for package in PACKAGES
    for name in importlib.import_module(package).__all__
]


@pytest.mark.parametrize("package, name", EXPORTS)
def test_exported_name_resolves(package, name):
    getattr(importlib.import_module(package), name)


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_unique(package):
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("package", ALL_PACKAGES)
def test_no_attribute_shadows_a_submodule(package):
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        attribute = getattr(module, info.name, None)
        if attribute is not None:
            assert attribute is sys.modules.get(f"{package}.{info.name}"), (
                f"{package}.{info.name} is {attribute!r}, not the submodule"
            )


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints in a fresh interpreter with ``src`` on its path."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize(
    "module", ("repro", "repro.eval", "repro.runtime.cli", "repro.runtime.serve")
)
def test_import_leaves_scipy_and_multiprocessing_unloaded(module):
    probe = f"import sys, {module}; print({{'scipy', 'multiprocessing'}} & set(sys.modules))"
    assert _fresh_interpreter(probe) == "set()"


def test_apps_load_only_the_registry_of_the_runtime():
    # The applications register into repro.runtime.registry; the package
    # re-exports nothing, so no other runtime layer (nor sqlite3, which
    # the run store needs) loads with them.
    probe = (
        "import sys, repro.apps; print(sorted(m for m in sys.modules"
        " if m.startswith('repro.runtime') or m == 'sqlite3'))"
    )
    assert _fresh_interpreter(probe) == "['repro.runtime', 'repro.runtime.registry']"
