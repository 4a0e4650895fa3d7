"""Session-wide fixtures for every test directory (``tests/`` and ``benchmarks/``)."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_store_roots(tmp_path_factory):
    """Point the profile cache, throughput store and search store at per-session dirs.

    The suite never reads or writes the home cache, so every session starts
    cold and exercises both the cold and the warm paths. A test that sets
    one of these variables itself still overrides it.
    """
    root = tmp_path_factory.mktemp("stores")
    with pytest.MonkeyPatch.context() as patch:
        for variable, name in (
            ("REPRO_PROFILE_CACHE", "profiles"),
            ("REPRO_THROUGHPUT_CACHE", "throughput"),
            ("REPRO_SEARCH_STORE", "search"),
        ):
            patch.setenv(variable, str(root / name))
        yield root
