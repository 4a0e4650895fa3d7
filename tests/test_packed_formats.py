"""Property tests pinning the packed-word substrate to its references.

The packed-word kernels in :mod:`repro.formats.packed`, the array-native
``BitVector`` / ``BitTree`` builders, the columnar scanner batch path and
timing, and the batched format converter must agree element-for-element
with the retained object-at-a-time implementations in
:mod:`repro.formats.reference` and the ``*_reference`` functions and
methods left on the scanner and converter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.format_conversion import FormatConverter
from repro.core.scanner import (
    BitVectorScanner,
    ScanMode,
    scan_timing_from_mask_reference,
    timing_from_indices,
)
from repro.config import ScannerConfig
from repro.errors import FormatError
from repro.formats import BitTree, BitVector, packed
from repro.formats.reference import (
    bittree_from_indices_reference,
    bitvector_construct_reference,
    pack_indices_reference,
)
from repro.workloads.synthetic import sparse_bitvector, sparse_vector

unique_indices = st.lists(
    st.integers(min_value=0, max_value=511), unique=True, max_size=64
)


class TestPackedKernels:
    @given(unique_indices, st.sampled_from([8, 16, 32, 64, 20]))
    @settings(max_examples=60, deadline=None)
    def test_pack_matches_reference_any_word_width(self, indices, word_bits):
        index_array = np.asarray(indices, dtype=np.int64)
        assert np.array_equal(
            packed.pack_indices(index_array, 512, word_bits),
            pack_indices_reference(index_array, 512, word_bits),
        )

    @given(unique_indices)
    @settings(max_examples=40, deadline=None)
    def test_test_bits_membership(self, indices):
        length = 512
        words = packed.pack_indices(np.asarray(indices, dtype=np.int64), length)
        probes = np.arange(length, dtype=np.int64)
        expected = np.zeros(length, dtype=bool)
        expected[np.asarray(indices, dtype=np.int64)] = True
        assert np.array_equal(packed.test_bits(words, probes), expected)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            packed.pack_indices(np.array([512]), 512)
        with pytest.raises(FormatError):
            packed.pack_indices(np.array([-1]), 512)


class TestBitVectorSubstrate:
    @given(
        unique_indices,
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_construction_matches_reference(self, indices, with_values, as_array):
        length = 512
        values = (
            [float(i) + 0.5 for i in range(len(indices))] if with_values else None
        )
        ref_idx, ref_vals, ref_mask = bitvector_construct_reference(
            length, indices, values
        )
        given_indices = np.asarray(indices, dtype=np.int64) if as_array else indices
        given_values = (
            (np.asarray(values) if as_array else values) if with_values else None
        )
        vector = BitVector(length, given_indices, given_values)
        assert np.array_equal(vector.indices, ref_idx)
        assert np.array_equal(vector.values, ref_vals)
        assert np.array_equal(vector.mask, ref_mask)
        assert np.array_equal(
            vector.words, packed.pack_indices(ref_idx, length)
        )

    def test_accepts_generator_inputs(self):
        vector = BitVector(16, (i * 2 for i in range(4)), (float(i) for i in range(4)))
        assert vector.indices.tolist() == [0, 2, 4, 6]

    def test_sparse_bitvector_matches_dense_generator(self):
        for density in (0.0, 0.01, 0.2, 0.7):
            direct = sparse_bitvector(2048, density, seed=7)
            via_dense = BitVector.from_dense(sparse_vector(2048, density, seed=7))
            assert direct == via_dense


class TestBitTreeSubstrate:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2047),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            max_size=64,
        ),
        st.sampled_from([512, 256, 100]),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_indices_matches_reference(self, entries, tile_bits):
        indices = np.asarray([e[0] for e in entries], dtype=np.int64)
        values = np.asarray([e[1] for e in entries], dtype=np.float64)
        fast = BitTree.from_indices(2048, indices, values, tile_bits)
        reference = bittree_from_indices_reference(2048, indices, values, tile_bits)
        assert np.array_equal(fast.indices(), reference.indices())
        assert np.array_equal(fast.values(), reference.values())
        assert np.array_equal(fast.words, reference.words)

    def test_words_matrix_shape_and_content(self):
        tree = BitTree.from_indices(
            2048, np.array([3, 600, 1500]), np.array([1.0, 2.0, 3.0])
        )
        words = tree.words
        assert words.shape == (4, 8)
        assert words[0, 0] == np.uint64(1) << np.uint64(3)
        assert words[1, (600 % 512) // 64] == np.uint64(1) << np.uint64(
            (600 % 512) % 64
        )

    def test_set_after_vectorized_build(self):
        tree = BitTree.from_indices(1024, np.array([5]), np.array([1.0]))
        tree.set(700, 2.0)
        tree.set(5, 9.0)
        assert tree.indices().tolist() == [5, 700]
        assert tree.values().tolist() == [9.0, 2.0]
        assert np.flatnonzero(tree.words.any(axis=1)).tolist() == [0, 1]


DENSITY_CASES = [0.0, 0.02, 0.15, 0.5]


class TestScanBatchEquivalence:
    @given(
        unique_indices,
        unique_indices,
        st.sampled_from([ScanMode.INTERSECT, ScanMode.UNION, ScanMode.SINGLE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_legacy_scan(self, a, b, mode):
        scanner = BitVectorScanner()
        va = BitVector(512, a)
        vb = None if mode is ScanMode.SINGLE else BitVector(512, b)
        batch = scanner.scan_batch(va, vb, mode)
        elements = scanner.scan(va, vb, mode)
        reference = scanner.scan_reference(va, vb, mode)
        assert elements == reference
        assert batch.elements() == reference
        assert len(batch) == len(reference)

    @given(
        length=st.integers(min_value=0, max_value=400),
        density_a=st.floats(min_value=0.0, max_value=1.0),
        density_b=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
        mode=st.sampled_from([ScanMode.INTERSECT, ScanMode.UNION]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_legacy_at_any_length(self, length, density_a, density_b, seed, mode):
        # Empty and full operands included; every column stays int64.
        rng = np.random.default_rng(seed)

        def operand(density):
            picked = rng.choice(length, int(length * density), replace=False)
            return BitVector(length, np.sort(picked).astype(np.int64))

        scanner = BitVectorScanner()
        va, vb = operand(density_a), operand(density_b)
        batch = scanner.scan_batch(va, vb, mode)
        for column in (batch.dense_index, batch.ordinal, batch.index_a, batch.index_b):
            assert column.dtype == np.int64
        assert batch.elements() == scanner.scan_reference(va, vb, mode)

    @pytest.mark.parametrize("density_a", DENSITY_CASES)
    @pytest.mark.parametrize("density_b", DENSITY_CASES)
    @pytest.mark.parametrize(
        "mode", [ScanMode.INTERSECT, ScanMode.UNION, ScanMode.SINGLE]
    )
    def test_batch_matches_legacy_across_densities(self, density_a, density_b, mode):
        scanner = BitVectorScanner()
        va = sparse_bitvector(4096, density_a, seed=11)
        vb = (
            None
            if mode is ScanMode.SINGLE
            else sparse_bitvector(4096, density_b, seed=23)
        )
        batch = scanner.scan_batch(va, vb, mode)
        reference = scanner.scan_reference(va, vb, mode)
        assert batch.elements() == reference
        assert scanner.timing(va, vb, mode) == scan_timing_from_mask_reference(
            scanner._combine_reference(va, vb, mode)[0], scanner.config
        )

    @given(unique_indices, st.sampled_from([32, 64, 256]), st.sampled_from([1, 4, 16]))
    @settings(max_examples=60, deadline=None)
    def test_timing_matches_reference(self, indices, bit_width, out):
        config = ScannerConfig(bit_width=bit_width, output_vectorization=out)
        mask = np.zeros(512, dtype=bool)
        mask[np.asarray(indices, dtype=np.int64)] = True
        assert timing_from_indices(
            np.flatnonzero(mask), mask.size, config
        ) == scan_timing_from_mask_reference(mask, config)

    def test_timing_empty_mask_quirk(self):
        config = ScannerConfig()
        empty = np.zeros(0, dtype=bool)
        assert timing_from_indices(
            np.flatnonzero(empty), empty.size, config
        ) == scan_timing_from_mask_reference(empty, config)


class TestConverterBatch:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=255), unique=True, max_size=40),
            max_size=8,
        ),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=50, deadline=None)
    def test_convert_many_matches_reference(self, tiles, lanes):
        converter = FormatConverter(lanes=lanes, word_bits=32)
        tile_arrays = [np.asarray(tile, dtype=np.int64) for tile in tiles]
        fast_vectors, fast_stats = converter.convert_many(256, tile_arrays)
        ref_vectors, ref_stats = converter.convert_many_reference(256, tile_arrays)
        assert fast_stats == ref_stats
        assert len(fast_vectors) == len(ref_vectors)
        for fast, ref in zip(fast_vectors, ref_vectors):
            assert fast == ref
            assert np.array_equal(fast.mask, ref.mask)

    def test_convert_many_rejects_duplicates_and_range(self):
        converter = FormatConverter()
        with pytest.raises(FormatError):
            converter.convert_many(64, [np.array([1, 1])])
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            converter.convert_many(64, [np.array([64])])

    def test_convert_many_rejects_multidimensional_tiles(self):
        converter = FormatConverter()
        tile = np.array([[0, 1], [2, 3]])
        with pytest.raises(FormatError):
            converter.convert_many(64, [tile])
        with pytest.raises(FormatError):
            converter.convert_many_reference(64, [tile])

    def test_single_tile_conflicts_match_reference(self):
        converter = FormatConverter(lanes=16, word_bits=32)
        pointers = np.arange(16)
        _, stats = converter.convert_many(64, [pointers])
        assert stats.spmu_word_conflicts == 15
        assert converter._count_spmu_conflicts_reference(pointers) == 15

    def test_empty_tile_set(self):
        vectors, stats = FormatConverter().convert_many(64, [])
        assert vectors == []
        assert (stats.pointers, stats.cycles, stats.words_written) == (0, 0, 0)
