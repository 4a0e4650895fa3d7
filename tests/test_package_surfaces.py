"""The public package surfaces stay live and cheap to import.

Every name a package lists in ``__all__`` must resolve on the package, so a
deletion that leaves a stale re-export behind fails here rather than at a
user's ``from repro.x import *``. The package, the paper harnesses and
both console entry points (``repro-eval``, ``repro-serve``) start without
scipy, which only the CPU baselines' reference kernels load.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ("repro", "repro.eval", "repro.formats", "repro.core", "repro.sim", "repro.workloads")

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


@pytest.mark.parametrize(
    "module", ("repro", "repro.eval", "repro.runtime.cli", "repro.runtime.serve")
)
def test_import_leaves_scipy_unloaded(module):
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
