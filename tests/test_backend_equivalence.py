"""Vectorized-vs-reference backend equivalence over the registry grid.

The vectorized profiling kernels must be *indistinguishable* from the
per-element reference loops: every registered (application, dataset) cell
is executed under both backends and the resulting profiles are compared
field for field (including floats -- every counter is derived from integer
event counts, so no tolerance is needed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import BACKENDS, sparse_add, spmv_csr
from repro.apps.bfs import bfs
from repro.apps.scan_model import record_scans
from repro.apps.sssp import sssp
from repro.config import ScannerConfig
from repro.errors import WorkloadError
from repro.eval.figures import FIGURE6_BIT_APPS
from repro.formats import to_csr
from repro.runtime import cli, registry
from repro.runtime.cache import profile_to_dict
from repro.runtime.registry import RunContext
from repro.workloads import load_dataset

#: Small-scale context shared by every equivalence cell (SpMSpM ignores the
#: dataset scale and always runs its small Table 6 matrices at full size).
SCALE = 1.0 / 256.0
CONV_SCALE = 1.0 / 16.0

GRID = [
    (spec.name, dataset)
    for spec in registry.registered_specs()
    for dataset in spec.datasets
]


def _context(backend: str) -> RunContext:
    return RunContext(scale=SCALE, conv_scale=CONV_SCALE, backend=backend)


@pytest.mark.parametrize("app,dataset", GRID, ids=[f"{a}-{d}" for a, d in GRID])
def test_backends_produce_identical_profiles(app, dataset):
    spec = registry.get_spec(app)
    vectorized = profile_to_dict(spec.execute(dataset, _context("vectorized")))
    reference = profile_to_dict(spec.execute(dataset, _context("reference")))
    mismatched = {
        key: (vectorized[key], reference[key])
        for key in vectorized
        if vectorized[key] != reference[key]
    }
    assert not mismatched, f"{app}/{dataset} backend mismatch: {mismatched}"


def test_unknown_backend_rejected():
    matrix = to_csr(load_dataset("Trefethen_20000", scale=1 / 256).matrix)
    with pytest.raises(WorkloadError):
        spmv_csr(matrix, np.ones(matrix.shape[1]), backend="loops")


@pytest.mark.parametrize(
    "build_parser",
    (cli.build_parser, cli.build_dse_parser, cli.build_sweep_parser),
    ids=("run", "dse", "sweep"),
)
def test_cli_backend_choices_are_the_profiling_backends(build_parser):
    """Every ``--backend`` flag offers exactly the backends the apps run."""
    [action] = [a for a in build_parser()._actions if "--backend" in a.option_strings]
    assert tuple(action.choices) == BACKENDS
    assert action.default in BACKENDS


def test_backend_functional_outputs_agree():
    """Outputs agree numerically (bit-identical is not required)."""
    generated = load_dataset("Trefethen_20000", scale=1 / 128)
    csr = to_csr(generated.matrix)
    vector = np.random.default_rng(5).random(csr.shape[1])
    vec = spmv_csr(csr, vector, backend="vectorized")
    ref = spmv_csr(csr, vector, backend="reference")
    assert np.allclose(vec.output, ref.output)


def test_traversal_outputs_identical():
    """BFS parents and SSSP distances match exactly across backends."""
    graph = load_dataset("web-Stanford", scale=1 / 256).matrix
    bfs_vec = bfs(graph, source=0, backend="vectorized")
    bfs_ref = bfs(graph, source=0, backend="reference")
    assert np.array_equal(bfs_vec.output, bfs_ref.output)
    sssp_vec = sssp(graph, source=0, backend="vectorized")
    sssp_ref = sssp(graph, source=0, backend="reference")
    assert np.array_equal(sssp_vec.output, sssp_ref.output)


def test_spadd_output_bit_identical():
    """M+M accumulates each entry in the same order under both backends."""
    a = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 128).matrix)
    b = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 128, seed=29).matrix)
    vec = sparse_add(a, b, backend="vectorized")
    ref = sparse_add(a, b, backend="reference")
    assert np.array_equal(vec.output.col_indices, ref.output.col_indices)
    assert np.array_equal(vec.output.values, ref.output.values)
    assert np.array_equal(vec.output.row_pointers, ref.output.row_pointers)


def test_recorded_scanner_applies_to_both_backends():
    """The Figure 6 scanner sweep re-costs identically per backend."""
    swept_configs = (
        ScannerConfig(bit_width=64, output_vectorization=4),
        ScannerConfig(bit_width=1, output_vectorization=16),
    )
    for app in FIGURE6_BIT_APPS:
        dataset = registry.get_spec(app).datasets[0]
        plain = registry.execute(app, dataset, RunContext(scale=SCALE))
        for swept in swept_configs:
            with record_scans([swept]):
                vec = registry.execute(
                    app, dataset, RunContext(scale=SCALE, backend="vectorized")
                )
                ref = registry.execute(
                    app, dataset, RunContext(scale=SCALE, backend="reference")
                )
            assert profile_to_dict(vec) == profile_to_dict(ref), (app, swept)
            assert vec.scan_cycles != plain.scan_cycles, (app, swept)
            # Only the scan fields move with the scanner.
            assert _without_scan(vec) == _without_scan(plain), (app, swept)


@pytest.mark.parametrize("app", registry.app_order())
def test_profile_scan_fields_are_the_recorded_scans(app):
    """Every app's scan fields are exactly the merge of its scan-cost calls,
    which is what lets one run be costed under every swept scanner."""
    dataset = registry.get_spec(app).datasets[0]
    swept = ScannerConfig(bit_width=64, output_vectorization=4)
    with record_scans([ScannerConfig(), swept]) as trace:
        profile = registry.execute(app, dataset, _context("vectorized"))
    with record_scans([swept]):
        overridden = registry.execute(app, dataset, _context("vectorized"))
    for config, expected in ((ScannerConfig(), profile), (swept, overridden)):
        cost = trace.cost(config)
        assert (expected.scan_cycles, expected.scan_empty_cycles, expected.scan_elements) == (
            cost.cycles,
            cost.empty_cycles,
            cost.elements,
        ), config


def _without_scan(profile) -> dict:
    fields = profile_to_dict(profile)
    for name in ("scan_cycles", "scan_empty_cycles", "scan_elements"):
        del fields[name]
    return fields
