"""Property tests pinning the packed-word substrate to its references.

Every vectorized kernel in :mod:`repro.formats.packed`, the array-native
``BitVector`` / ``BitTree`` builders, the columnar scanner batch path, and
the batched format converter must agree element-for-element with the
retained object-at-a-time implementations in
:mod:`repro.formats.reference` and the ``*_reference`` methods left on the
scanner and converter.
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
    scan_timing_from_mask,
    scan_timing_from_mask_reference,
)
from repro.config import ScannerConfig
from repro.errors import FormatError
from repro.formats import BitTree, BitVector, align_trees, packed
from repro.formats.reference import (
    align_trees_reference,
    bittree_from_indices_reference,
    bitvector_construct_reference,
    pack_indices_reference,
    packed_words_reference,
    popcount_reference,
    rank_reference,
    select_reference,
)
from repro.workloads.synthetic import sparse_bitvector, sparse_vector

unique_indices = st.lists(
    st.integers(min_value=0, max_value=511), unique=True, max_size=64
)
word_arrays = st.lists(
    st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=8
).map(lambda words: np.asarray(words, dtype=np.uint64))


class TestPackedKernels:
    @given(unique_indices)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, indices):
        length = 512
        words = packed.pack_indices(np.asarray(indices, dtype=np.int64), length)
        mask = packed.unpack_words(words, length)
        assert np.flatnonzero(mask).tolist() == sorted(indices)
        assert np.array_equal(packed.pack_mask(mask), words)

    @given(unique_indices, st.sampled_from([8, 16, 32, 64, 20]))
    @settings(max_examples=60, deadline=None)
    def test_pack_matches_reference_any_word_width(self, indices, word_bits):
        index_array = np.asarray(indices, dtype=np.int64)
        assert np.array_equal(
            packed.pack_indices(index_array, 512, word_bits),
            pack_indices_reference(index_array, 512, word_bits),
        )

    @given(word_arrays)
    @settings(max_examples=60, deadline=None)
    def test_popcount_matches_reference(self, words):
        assert np.array_equal(packed.popcount(words), popcount_reference(words))

    @given(unique_indices)
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_cumsum(self, indices):
        length = 512
        words = packed.pack_indices(np.asarray(indices, dtype=np.int64), length)
        mask = packed.unpack_words(words, length)
        prefix = np.concatenate(([0], np.cumsum(mask.astype(np.int64))))
        positions = np.arange(length, dtype=np.int64)
        assert np.array_equal(packed.rank(words, positions), prefix[:-1])
        assert np.array_equal(
            packed.rank(words, positions), rank_reference(words, positions)
        )

    @given(unique_indices)
    @settings(max_examples=60, deadline=None)
    def test_select_inverts_rank(self, indices):
        if not indices:
            return
        length = 512
        words = packed.pack_indices(np.asarray(indices, dtype=np.int64), length)
        ranks = np.arange(len(indices), dtype=np.int64)
        selected = packed.select(words, ranks, length)
        assert selected.tolist() == sorted(indices)
        assert np.array_equal(selected, select_reference(words, ranks, length))
        assert np.array_equal(packed.rank(words, selected), ranks)

    @given(unique_indices, unique_indices)
    @settings(max_examples=60, deadline=None)
    def test_intersect_union_match_boolean_masks(self, a, b):
        length = 512
        words_a = packed.pack_indices(np.asarray(a, dtype=np.int64), length)
        words_b = packed.pack_indices(np.asarray(b, dtype=np.int64), length)
        mask_a = packed.unpack_words(words_a, length)
        mask_b = packed.unpack_words(words_b, length)
        assert np.array_equal(
            packed.unpack_words(packed.intersect_words(words_a, words_b), length),
            mask_a & mask_b,
        )
        assert np.array_equal(
            packed.unpack_words(packed.union_words(words_a, words_b), length),
            mask_a | mask_b,
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

    @given(unique_indices, st.sampled_from([8, 16, 32, 64, 20]))
    @settings(max_examples=40, deadline=None)
    def test_packed_words_matches_reference(self, indices, word_bits):
        vector = BitVector(512, indices)
        assert np.array_equal(
            vector.packed_words(word_bits), packed_words_reference(vector, word_bits)
        )

    @given(unique_indices, unique_indices)
    @settings(max_examples=40, deadline=None)
    def test_mask_ops_match_boolean(self, a, b):
        va = BitVector(512, a)
        vb = BitVector(512, b)
        mask_a, mask_b = va.mask, vb.mask
        assert np.array_equal(va.intersect_mask(vb), mask_a & mask_b)
        assert np.array_equal(va.union_mask(vb), mask_a | mask_b)

    def test_from_words_clears_stray_bits_beyond_length(self):
        stray = np.array([(1 << 20) | 1], dtype=np.uint64)
        vector = BitVector.from_words(10, stray)
        assert vector.indices.tolist() == [0]
        assert vector.words.tolist() == [1]
        scanner = BitVectorScanner()
        assert scanner.count(vector, vector, ScanMode.INTERSECT) == 1
        assert len(scanner.scan_batch(vector, vector, ScanMode.INTERSECT)) == 1
        assert stray[0] == (1 << 20) | 1  # caller's words untouched

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
        assert np.array_equal(fast.to_dense(), reference.to_dense())
        assert np.array_equal(fast.indices(), reference.indices())
        assert fast.occupied_tiles == reference.occupied_tiles
        assert fast.nnz == reference.nnz
        assert fast.storage_bits() == reference.storage_bits()
        assert np.array_equal(
            fast.top_level().indices, reference.top_level().indices
        )
        for tile_id, tile in fast.iter_tiles():
            assert tile == reference.tile(tile_id)

    @given(
        st.lists(st.integers(min_value=0, max_value=4095), unique=True, max_size=48),
        st.lists(st.integers(min_value=0, max_value=4095), unique=True, max_size=48),
        st.sampled_from(["union", "intersect"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_align_trees_matches_reference(self, a, b, mode):
        tree_a = BitTree.from_indices(
            4096, np.asarray(a, dtype=np.int64), np.ones(len(a))
        )
        tree_b = BitTree.from_indices(
            4096, np.asarray(b, dtype=np.int64), np.ones(len(b))
        )
        fast = align_trees(tree_a, tree_b, mode)
        reference = align_trees_reference(tree_a, tree_b, mode)
        assert [t[0] for t in fast] == [t[0] for t in reference]
        for (_, fl, fr), (_, rl, rr) in zip(fast, reference):
            assert fl == rl
            assert fr == rr

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
        assert tree.occupied_tiles == 2


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
        assert scanner.count(va, vb, mode) == len(reference)

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
        assert scan_timing_from_mask(mask, config) == scan_timing_from_mask_reference(
            mask, config
        )

    def test_timing_empty_mask_quirk(self):
        config = ScannerConfig()
        empty = np.zeros(0, dtype=bool)
        assert scan_timing_from_mask(empty, config) == scan_timing_from_mask_reference(
            empty, config
        )


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

    def test_convert_single_conflicts_vectorized(self):
        converter = FormatConverter(lanes=16, word_bits=32)
        pointers = np.arange(16)
        assert converter._count_spmu_conflicts(
            pointers
        ) == converter._count_spmu_conflicts_reference(pointers)
        _, stats = converter.convert(64, pointers)
        assert stats.spmu_word_conflicts == 15
