"""Gustavson sparse matrix-matrix multiply and M+M (Section 2.4).

This example reproduces the paper's SpMSpM case study: row-product
(Gustavson's) SpMSpM built from bit-vector unions/intersections and
compressed-tile accumulation, plus sparse matrix addition with bit-tree
operands. Both are validated against scipy references and compared against
the MatRaptor ASIC model (Table 13's largest Capstan win).

Run it with ``python examples/spmspm_gustavson.py``.
"""

from __future__ import annotations

import numpy as np

from repro.apps import estimate_cycles, reference_add, reference_spmspm, sparse_add
from repro.apps.spmspm import spmspm
from repro.baselines.asic import matraptor_runtime_seconds
from repro.config import CLOCK_GHZ
from repro.formats import to_csr
from repro.workloads import load_dataset


def main() -> None:
    # The paper's SpMSpM datasets are small enough to run at full size.
    dataset = load_dataset("qc324", scale=1.0)
    a = to_csr(dataset.matrix)
    b = to_csr(load_dataset("qc324", scale=1.0, seed=77).matrix)
    print(dataset.scaled_description)

    # --- SpMSpM -------------------------------------------------------------- #
    run = spmspm(a, b, dataset=dataset.name)
    assert np.allclose(run.output, reference_spmspm(a, b)), "SpMSpM mismatch"
    cycles, breakdown = estimate_cycles(run.profile)
    capstan_seconds = cycles / (CLOCK_GHZ * 1e9)
    matraptor_seconds = matraptor_runtime_seconds(run.profile)
    print("\nGustavson SpMSpM (C = A @ B)")
    print(f"  multiplies           : {int(run.profile.extra['multiplies'])}")
    print(f"  output non-zeros     : {int(run.profile.extra['output_nnz'])}")
    print(f"  Capstan cycles       : {cycles:.0f} ({breakdown.activity_factor:.0%} active)")
    print(f"  scanner share        : {breakdown.fractions()['scan']:.0%}")
    print(f"  speedup vs MatRaptor : {matraptor_seconds / capstan_seconds:.1f}x "
          "(paper reports ~18x at 1.6 GHz)")

    # --- M+M with bit-tree iteration ----------------------------------------- #
    hypersparse = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 16).matrix)
    other = to_csr(load_dataset("ckt11752_dc_1", scale=1 / 16, seed=31).matrix)
    flat = sparse_add(hypersparse, other, use_bittree=False)
    tree = sparse_add(hypersparse, other, use_bittree=True)
    assert np.allclose(tree.output.to_dense(), reference_add(hypersparse, other)), "M+M mismatch"
    flat_cycles, _ = estimate_cycles(flat.profile)
    tree_cycles, _ = estimate_cycles(tree.profile)
    print("\nSparse matrix addition (M+M) on a <0.1%-dense circuit matrix")
    print(f"  union iterations     : {int(tree.profile.extra['union_iterations'])}")
    print(f"  flat bit-vector scan : {flat.profile.scan_cycles} scanner cycles")
    print(f"  bit-tree scan        : {tree.profile.scan_cycles} scanner cycles")
    print(f"  end-to-end cycles    : {flat_cycles:.0f} (flat) vs {tree_cycles:.0f} (bit-tree)")


if __name__ == "__main__":
    main()
