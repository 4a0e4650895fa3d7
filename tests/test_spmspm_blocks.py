"""Row-block streaming of the vectorized SpMSpM kernel.

The vectorized backend expands the (A non-zero x B entry) multiplies of
one bounded block of output rows at a time. Where the blocks are cut must
not show: profiles equal the reference backend's field for field and the
output is bit-identical whatever the bound, including bounds that put
every row in a block of its own and bounds larger than the whole product.
The bound is what keeps the kernel's working set small, and the memory
ceiling test pins that on the largest registered dataset.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import spmspm as spmspm_module
from repro.formats import CSRMatrix
from repro.runtime import registry
from repro.runtime.cache import profile_to_dict
from repro.runtime.registry import RunContext

#: 1 and a small prime cut blocks inside most products (every row with more
#: than one multiply is over the bound on its own); 2**40 is one block.
BOUNDS = (1, 7, 1 << 40)


def _random_csr(rng, rows, cols, density, empty_rows):
    dense = np.where(rng.random((rows, cols)) < density, rng.uniform(-2.0, 2.0, (rows, cols)), 0.0)
    dense[empty_rows] = 0.0
    return CSRMatrix.from_dense(dense)


@st.composite
def csr_pairs(draw):
    rows = draw(st.integers(0, 12))
    inner = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_density = draw(st.floats(0.05, 1.0))
    b_density = draw(st.floats(0.05, 1.0))
    empty_a = draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=4)) if rows else []
    empty_b = draw(st.lists(st.integers(0, inner - 1), max_size=4))
    return (
        _random_csr(rng, rows, inner, a_density, empty_a),
        _random_csr(rng, inner, cols, b_density, empty_b),
    )


@settings(max_examples=60, deadline=None)
@given(csr_pairs())
def test_blocked_kernel_matches_reference_under_every_bound(pair):
    a, b = pair
    reference = spmspm_module.spmspm(a, b, backend="reference")
    expected = profile_to_dict(reference.profile)
    outputs = []
    for bound in BOUNDS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spmspm_module, "ROW_BLOCK_MULTIPLIES", bound)
            run = spmspm_module.spmspm(a, b)
        assert profile_to_dict(run.profile) == expected, f"bound {bound}"
        outputs.append(run.output)
    for output in outputs[1:]:
        assert np.array_equal(output, outputs[0])
    assert np.allclose(outputs[0], spmspm_module.reference_spmspm(a, b))


def test_a_row_over_the_bound_is_a_block_of_its_own():
    # Rows with 5, 0, 1, 1 and 9 multiplies over 4 output columns.
    multiplies_before = np.array([0, 5, 5, 6, 7, 16])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spmspm_module, "ROW_BLOCK_MULTIPLIES", 4)
        # Rows 1-3 hold 2 multiplies together, but one row of 4 columns
        # already fills the 4-key space.
        assert list(spmspm_module._row_blocks(multiplies_before, 4)) == [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
        ]
        patch.setattr(spmspm_module, "ROW_BLOCK_MULTIPLIES", 8)
        assert list(spmspm_module._row_blocks(multiplies_before, 4)) == [
            (0, 2),
            (2, 4),
            (4, 5),
        ]


def test_mbeacxc_kernel_stays_under_its_memory_ceiling():
    # The unblocked kernel held every multiply of the product at once: a
    # 194 MiB traced peak on mbeacxc (5.02 M multiplies).
    inputs = registry.get_spec("spmspm").prepare("mbeacxc", RunContext())
    tracemalloc.start()
    try:
        spmspm_module.spmspm(**inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
