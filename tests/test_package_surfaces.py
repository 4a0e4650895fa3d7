"""The public package surfaces stay live.

Every name a package lists in ``__all__`` must resolve on the package, so a
deletion that leaves a stale re-export behind fails here rather than at a
user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = ("repro", "repro.formats", "repro.core", "repro.sim", "repro.workloads")

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
