"""Pinned store and job keys.

Every on-disk store and the job table address their entries by a content
hash. Existing profile caches, scan-cost stores, throughput stores, search
directories and job rows stay addressable only while those hashes stay
byte-identical, so each key below is pinned as a literal with the code
fingerprint fixed.
"""

from __future__ import annotations

import pytest

from repro.config import ScannerConfig
from repro.core.spmu import SpMUVariant
from repro.runtime import cache as cache_module
from repro.runtime import jobs as jobs_module
from repro.runtime.cache import ProfileCache, ScanCostStore, ThroughputStore
from repro.runtime.jobs import JobSpec
from repro.runtime.registry import RunContext
from repro.runtime.runner import ExperimentRunner
from repro.runtime.search import search_key

FIXED_FINGERPRINT = "0" * 64

#: Profile keys at scale 1/64, as the runner, sweeps and serve compute them.
PROFILE_KEYS = {
    ("bfs", "flickr"): "ab71c36fe626b0ab317d952c3241eaf2240990c3f312a0e98ac2fc94bd029ae6",
    ("spmspm", "qc324"): "ce18f57af64725a89aaba5d129f4fc2ef72a67b8f2cbe4c083957d6ca2aadccd",
    ("pagerank-pull", "usroads-48"): (
        "ed564ad6a46b0f3df720b6667829a3b9e4a6adbeb503f9401f75aae77d61d518"
    ),
    ("conv", "resnet50-1"): "2cf09a65fdd01933a2873f6f4be73e41486d5313f462fcc564113ea88d1665b3",
}


@pytest.fixture(autouse=True)
def fixed_fingerprint(monkeypatch):
    monkeypatch.setattr(cache_module, "_CODE_FINGERPRINT", FIXED_FINGERPRINT)


@pytest.mark.parametrize("app,dataset", sorted(PROFILE_KEYS))
def test_profile_key_is_pinned(app, dataset, tmp_path):
    context = RunContext(scale=1 / 64)
    grid = JobSpec.profile_grid([app], context, cache_root=tmp_path)
    unit_keys = {unit.payload["dataset"]: unit.key for unit in grid.units}
    runner = ExperimentRunner(context=context, cache=ProfileCache(root=tmp_path))
    assert unit_keys[dataset] == runner._key(app, dataset) == PROFILE_KEYS[app, dataset]


def test_scan_cost_keys_are_pinned(tmp_path):
    store = ScanCostStore(tmp_path)
    profile_key = PROFILE_KEYS["bfs", "flickr"]
    assert store.key(profile_key, ScannerConfig()) == (
        "636652c56f2e179e6410e6a78dd468c7d1d0145071fcadb376b2ab25320a8d0d"
    )
    assert store.key(profile_key, ScannerConfig(bit_width=512)) == (
        "f5a201575938fc68e79983a69db926bf2fef7855e149b31e525315bbf5ea6666"
    )


def test_throughput_keys_are_pinned(tmp_path):
    store = ThroughputStore(root=tmp_path)
    assert store.key(SpMUVariant()) == (
        "d6368fc48bf1bf135f001edcf9c11e610ba6ae81285607a578eb62ebecd050a8"
    )
    assert store.key(SpMUVariant(), vectors=160) == (
        "ddda843e0feaa54cd826ad7787dbb0bd7620ed8185dd25405976683c623d7235"
    )


def test_search_key_is_pinned():
    key = search_key(
        axes={"lanes": [8, 16], "bank_mapping": ["hash", "linear"]},
        strategy="evolve",
        params={"population": 8, "generations": 2},
        seed=1,
        objectives=("cycles", "area"),
        tasks=[("spmv-csr", "ckt11752_dc_1")],
    )
    assert key == "2567fdeeaf7a901c"


def test_job_keys_are_pinned():
    assert jobs_module._unit_key({"kind": "probe", "value": 0}) == (
        "309bedfdfe4d3b11c2275002cdd4d0e3f292c8388f7cf0e5790acdd2abe45793"
    )
    assert JobSpec.probes(2).key == (
        "1edc4f6b760068f7a27c2b247cbf38ddb3b469b13adaa6acbe1f0e9eeb7c8fe4"
    )
