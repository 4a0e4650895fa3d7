"""Graph analytics on Capstan: PageRank, BFS, and SSSP.

The paper's graph workloads (Table 2) exercise the features dense RDAs
lack: bitset frontiers scanned by the sparse loop header, atomic
read-modify-write updates (test-and-set, write-if-zero,
min-report-changed), and per-level synchronization that stresses the
on-chip network. This example runs all three kernels on a synthetic
stand-in for the ``web-Stanford`` dataset, validates them, and prints the
Figure 7-style stall breakdown that explains where the cycles go.

Run it with ``python examples/graph_analytics.py``.
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    best_source,
    bfs,
    estimate_cycles,
    pagerank_edge,
    pagerank_pull,
    reference_bfs_levels,
    reference_pagerank,
    reference_sssp,
    sssp,
)
from repro.sim.stats import STALL_CATEGORIES
from repro.workloads import load_dataset


def main() -> None:
    dataset = load_dataset("web-Stanford", scale=1 / 128)
    graph = dataset.matrix
    print(dataset.scaled_description)
    source = best_source(graph)

    # --- PageRank: pull vs edge-centric ----------------------------------- #
    pull = pagerank_pull(graph, iterations=3, dataset=dataset.name)
    edge = pagerank_edge(graph, iterations=3, dataset=dataset.name)
    reference = reference_pagerank(graph, iterations=3)
    assert np.allclose(pull.output, reference) and np.allclose(edge.output, reference)
    print("\nPageRank validated (pull and edge variants agree with the reference)")
    for name, run in (("PR-Pull", pull), ("PR-Edge", edge)):
        cycles, breakdown = estimate_cycles(run.profile)
        print(f"  {name}: {cycles:12.0f} cycles, active {breakdown.activity_factor:.0%}, "
              f"SRAM-conflict share {breakdown.fractions()['sram']:.0%}")

    # --- BFS --------------------------------------------------------------- #
    bfs_run = bfs(graph, source, dataset=dataset.name)
    levels = reference_bfs_levels(graph, source)
    reached = int((bfs_run.output >= 0).sum())
    assert reached == int((levels >= 0).sum())
    cycles, breakdown = estimate_cycles(bfs_run.profile)
    print(f"\nBFS from vertex {source}: reached {reached} vertices in "
          f"{int(bfs_run.profile.extra['levels'])} levels, {cycles:.0f} cycles")
    print("  breakdown: " + ", ".join(
        f"{name}={breakdown.fractions()[name]:.0%}" for name in STALL_CATEGORIES
        if breakdown.fractions()[name] > 0.01
    ))

    # --- SSSP --------------------------------------------------------------- #
    sssp_run = sssp(graph, source, dataset=dataset.name)
    reference_dist = reference_sssp(graph, source)
    finite = np.isfinite(reference_dist)
    assert np.allclose(sssp_run.output[finite], reference_dist[finite])
    cycles, breakdown = estimate_cycles(sssp_run.profile)
    print(f"\nSSSP: {int(sssp_run.profile.extra['relaxations'])} edge relaxations over "
          f"{int(sssp_run.profile.extra['rounds'])} rounds, {cycles:.0f} cycles")
    print(f"  network share (un-pipelinable rounds): {breakdown.fractions()['network']:.0%}")


if __name__ == "__main__":
    main()
