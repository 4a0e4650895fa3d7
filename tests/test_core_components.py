"""Tests for bank hashing, Bloom filter, shuffle network, compression,
format conversion, and the area model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CapstanConfig, ShuffleMode
from repro.core import (
    BloomFilter,
    FormatConverter,
    ShuffleNetwork,
    ShuffleRequest,
    capstan_area,
    compress_pointer_array,
    decompress_packets,
    hashed_bank,
    hashed_banks_array,
    linear_bank,
    merge_efficiency,
    plasticine_area,
    scanner_area_um2,
    scheduler_area_um2,
)
from repro.core.bank_hash import BANK_MAPPINGS, get_bank_mapper, get_bank_mapper_array
from repro.core.compression import compression_report
from repro.core.shuffle import merge_efficiency_reference
from repro.errors import SimulationError


class TestBankHashing:
    def test_linear_mapping(self):
        assert linear_bank(17, 16) == 1

    def test_hash_spreads_power_of_two_strides(self):
        # Stride 16 with a linear map hits one bank; the hash spreads it.
        # The serialization cycles of one vector are its busiest bank's load.
        addresses = np.arange(16) * 16
        load = {
            scheme: np.bincount(get_bank_mapper_array(scheme)(addresses, 16)).max()
            for scheme in ("linear", "hash")
        }
        assert load["linear"] == 16
        assert load["hash"] <= 2

    def test_hash_array_matches_scalar(self):
        addresses = np.arange(0, 1000, 7)
        array = hashed_banks_array(addresses, 16)
        scalars = [hashed_bank(int(a), 16) for a in addresses]
        assert array.tolist() == scalars

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=100, deadline=None)
    def test_hash_in_range(self, address):
        assert 0 <= hashed_bank(address, 16) < 16

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            get_bank_mapper("bogus")
        with pytest.raises(ValueError):
            get_bank_mapper_array("bogus")

    @pytest.mark.parametrize("banks", [4, 16, 32])
    @pytest.mark.parametrize("scheme", BANK_MAPPINGS)
    def test_array_mapper_matches_scalar(self, scheme, banks):
        addresses = np.random.default_rng(banks).integers(0, 2**22, size=500)
        array = get_bank_mapper_array(scheme)(addresses, banks)
        scalar = get_bank_mapper(scheme)
        assert array.tolist() == [scalar(int(a), banks) for a in addresses]
        assert array.min() >= 0 and array.max() < banks


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(128)
        for address in range(50):
            bloom.insert(address)
        assert all(bloom.may_contain(address) for address in range(50))

    def test_remove_clears(self):
        bloom = BloomFilter(128)
        bloom.insert(42)
        bloom.remove(42)
        assert not bloom.may_contain(42)
        assert bloom.inserted == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(ValueError):
            BloomFilter(64).remove(9)


class TestShuffleNetwork:
    def _vectors(self, sources=4, lanes=16, partitions=4, cross=0.5, seed=0):
        rng = np.random.default_rng(seed)
        out = {}
        for source in range(sources):
            vector = []
            for lane in range(lanes):
                dest = int(rng.integers(0, partitions)) if rng.random() < cross else source
                address = dest * (2**16 // partitions) + int(rng.integers(0, 256))
                vector.append(ShuffleRequest(source=source, lane=lane, address=address))
            out[source] = vector
        return out

    def test_all_requests_delivered(self):
        network = ShuffleNetwork(ShuffleMode.MRG1)
        vectors = self._vectors()
        outputs = network.route(vectors, partitions=4)
        delivered = sum(
            sum(1 for slot in vector if slot is not None)
            for vecs in outputs.values()
            for vector in vecs
        )
        assert delivered == 4 * 16

    def test_requests_routed_to_correct_partition(self):
        network = ShuffleNetwork(ShuffleMode.MRG16)
        vectors = self._vectors(seed=3)
        outputs = network.route(vectors, partitions=4)
        for destination, vecs in outputs.items():
            for vector in vecs:
                for request in vector:
                    if request is not None:
                        assert (request.address // (2**16 // 4)) % 4 == destination

    def test_mrg1_beats_none(self):
        eff_none = merge_efficiency(ShuffleMode.NONE, cross_partition_fraction=0.5, vectors=16)
        eff_mrg1 = merge_efficiency(ShuffleMode.MRG1, cross_partition_fraction=0.5, vectors=16)
        assert eff_mrg1 > eff_none

    def test_mrg16_at_least_mrg0(self):
        eff_mrg0 = merge_efficiency(ShuffleMode.MRG0, cross_partition_fraction=0.7, vectors=16)
        eff_mrg16 = merge_efficiency(ShuffleMode.MRG16, cross_partition_fraction=0.7, vectors=16)
        assert eff_mrg16 >= eff_mrg0 * 0.95


    def test_no_network_sends_one_request_per_vector(self):
        for fraction in (0.0, 0.5, 1.0):
            for lanes in (4, 8, 16):
                assert merge_efficiency(
                    ShuffleMode.NONE, fraction, lanes=lanes, vectors=4
                ) == pytest.approx(1.0 / lanes)

    def test_local_traffic_fills_every_vector(self):
        # With no cross-partition requests each source's vector lands whole
        # in its home partition, so every merging mode delivers full vectors.
        for mode in (ShuffleMode.MRG0, ShuffleMode.MRG1, ShuffleMode.MRG16):
            assert merge_efficiency(mode, 0.0, lanes=8, vectors=4) == 1.0
            assert merge_efficiency_reference(mode, 0.0, lanes=8, vectors=4) == 1.0



class TestCompression:
    def test_roundtrip(self):
        values = np.array([100, 101, 103, 110, 200, 201] * 8, dtype=np.int64)
        packets, report = compress_pointer_array(values)
        assert np.array_equal(decompress_packets(packets), values)
        assert report.ratio > 1.0

    def test_close_values_compress_well(self):
        clustered = np.arange(1000, 1064)
        spread = np.random.default_rng(0).integers(0, 2**30, size=64)
        assert compression_report(clustered).ratio > compression_report(spread).ratio

    def test_empty_array(self):
        packets, report = compress_pointer_array(np.array([], dtype=np.int64))
        assert packets == []
        assert report.ratio == 1.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            compress_pointer_array(np.array([-1]))

    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        packets, _ = compress_pointer_array(array)
        assert np.array_equal(decompress_packets(packets), array)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [5] * 16,
            list(range(40, 77)),
            [0, 2**20] * 9,
            [3, 2**31 - 1, 9, 9, 15, 16, 17, 4000, 65535, 65536] * 5,
        ],
        ids=["empty", "single", "constant", "ragged-tail", "wide", "mixed"],
    )
    def test_report_matches_packets(self, values):
        # The report-only fast path equals the report of the full encoding.
        array = np.array(values, dtype=np.int64)
        packets, report = compress_pointer_array(array)
        assert compression_report(array) == report
        assert report.packets == len(packets)
        assert report.compressed_bytes == sum(p.encoded_bytes for p in packets)

    def test_packet_encoded_size(self):
        packets, _ = compress_pointer_array(np.array([100] * 16 + [0, 17]))
        # Equal values need no offsets: header + base only.
        assert packets[0].offset_bits == 0
        assert packets[0].encoded_bits == 40 and packets[0].encoded_bytes == 5
        # A spread of 17 takes the 8-bit offset width: 40 + 2 * 8 bits.
        assert packets[1].offset_bits == 8
        assert packets[1].encoded_bits == 56 and packets[1].encoded_bytes == 7


class TestFormatConverter:
    def test_convert_produces_expected_bitvector(self):
        converter = FormatConverter()
        (vector,), stats = converter.convert_many(64, [np.array([3, 10, 40])])
        assert vector.indices.tolist() == [3, 10, 40]
        assert stats.cycles == 1
        assert stats.pointers == 3

    def test_conflict_counting(self):
        converter = FormatConverter(lanes=16, word_bits=32)
        # Sixteen pointers in the same 32-bit word collide 15 times.
        _, stats = converter.convert_many(64, [np.arange(16)])
        assert stats.spmu_word_conflicts == 15

    def test_out_of_range(self):
        with pytest.raises(SimulationError):
            FormatConverter().convert_many(8, [np.array([9])])

    def test_convert_many_aggregates(self):
        converter = FormatConverter()
        vectors, stats = converter.convert_many(128, [np.array([1]), np.array([2, 3])])
        assert len(vectors) == 2
        assert stats.pointers == 3


class TestAreaModel:
    def test_paper_overheads(self):
        capstan, baseline = capstan_area(), plasticine_area()
        assert capstan.total_mm2 / baseline.total_mm2 - 1.0 == pytest.approx(0.16, abs=0.02)
        assert capstan.power_w / baseline.power_w - 1.0 == pytest.approx(0.12, abs=0.02)

    def test_totals_match_paper(self):
        assert plasticine_area().total_mm2 == pytest.approx(158.6, rel=0.01)
        assert capstan_area().total_mm2 == pytest.approx(184.5, rel=0.02)

    def test_scanner_area_table_points(self):
        assert scanner_area_um2(256, 16) == 19898
        assert scanner_area_um2(512, 1) == 7777

    def test_scanner_area_off_the_table_is_refused(self):
        with pytest.raises(ValueError, match="Table 5"):
            scanner_area_um2(64, 16)

    def test_scanner_area_monotonic(self):
        assert scanner_area_um2(512, 16) > scanner_area_um2(256, 16) > scanner_area_um2(128, 16)
        assert scanner_area_um2(256, 16) > scanner_area_um2(256, 4)

    def test_scheduler_area_table_points(self):
        assert scheduler_area_um2(16, 16) == 51359
        assert scheduler_area_um2(32, 32) == 90433

    def test_scheduler_area_extrapolates(self):
        assert scheduler_area_um2(64, 16) > scheduler_area_um2(32, 16)

    def test_area_scales_with_grid(self):
        small = capstan_area(CapstanConfig(compute_units=100))
        assert small.total_mm2 < capstan_area().total_mm2
