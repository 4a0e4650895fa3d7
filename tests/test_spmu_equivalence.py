"""Equivalence tests: the lock-step SpMU engine and the shuffle fast path
vs the reference loops.

The lock-step engine (:func:`~repro.core.spmu_array.simulate_variants`)
must match the per-cycle :class:`~repro.core.spmu.SparseMemoryUnit`
*stat for stat* -- same cycles, requests, elided reads, bank-busy cycles,
ordering stalls, per-cycle traces, and SRAM contents (the engine's issue
order replayed onto an array) -- across orderings x bank mappings x
allocator kinds x structural parameters, plus every configuration the
evaluation harnesses (Table 4, Table 9, Figure 4) actually measure. These
tests pin that contract, together with the batched throughput API's cache
semantics and the shuffle fast path.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ShuffleMode, SpMUConfig
from repro.core import spmu as spmu_module
from repro.core.ordering import OrderingMode
from repro.core.shuffle import merge_efficiency, merge_efficiency_reference
from repro.core.spmu import (
    MemoryRequest,
    RMWOp,
    RequestTrace,
    SparseMemoryUnit,
    SpMUVariant,
    effective_bank_throughput_batch,
    measure_bank_utilization,
    random_request_trace,
    random_request_vectors,
)
from repro.core.spmu_array import simulate_variants
from repro.errors import SimulationError
from repro.eval.tables import TABLE4_PAPER
from repro.runtime.cache import ThroughputStore

ORDERINGS = tuple(OrderingMode)
ALL_OPS = tuple(RMWOp)


def _stats_tuple(stats):
    return (
        stats.cycles,
        stats.requests,
        stats.elided_reads,
        stats.bank_busy_cycles,
        stats.vectors,
        stats.stall_cycles_ordering,
    )


def _reference(variant, **kwargs):
    return SparseMemoryUnit(
        config=variant.config,
        lanes=variant.lanes,
        ordering=variant.ordering,
        bank_mapping=variant.bank_mapping,
        allocator_kind=variant.allocator_kind,
        **kwargs,
    )


def _replayed_image(variant, trace, result):
    """The SRAM image the engine's issue order leaves: every issued request
    executed in that order on a fresh unit's array."""
    unit = _reference(variant)
    position = np.full((trace.n_vectors, variant.lanes), -1, dtype=np.int64)
    position[trace.vector_ids, trace.lanes] = np.arange(len(trace))
    for index in position[result.issue_vectors, result.issue_lanes]:
        unit.execute_request(
            MemoryRequest(
                address=int(trace.addresses[index]),
                op=spmu_module._CODE_TO_OP[int(trace.ops[index])],
                value=float(trace.values[index]),
            )
        )
    return unit.read_data(0, unit.capacity_words)


def _utilization(result, banks):
    return result.bank_busy_cycles / (result.cycles * banks) if result.cycles else 0.0


def _engine_utilization(config, ordering=OrderingMode.UNORDERED, vectors=120, **kwargs):
    """The lock-step engine's side of :func:`measure_bank_utilization`."""
    variant = SpMUVariant(ordering=ordering, config=config, **kwargs)
    [result] = simulate_variants([variant], [random_request_trace(vectors, seed=7)])
    return _utilization(result, config.banks)


def _assert_equivalent(config, lanes, ordering, mapping, allocator, vectors):
    variant = SpMUVariant(
        ordering=ordering,
        bank_mapping=mapping,
        allocator_kind=allocator,
        config=config,
        lanes=lanes,
    )
    reference = _reference(variant, record_trace=True)
    ref_stats = reference.simulate(vectors)
    trace = RequestTrace.from_vectors(vectors)
    [result] = simulate_variants([variant], [trace], record_trace=True, collect_issues=True)
    assert _stats_tuple(ref_stats) == _stats_tuple(result)
    assert np.array_equal(ref_stats.per_cycle_active_banks, result.per_cycle_active_banks)
    words = reference.capacity_words
    assert np.array_equal(
        reference.read_data(0, words), _replayed_image(variant, trace, result)
    )


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
    @pytest.mark.parametrize("allocator", ("separable", "greedy"))
    @given(
        count=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        lanes=st.sampled_from((1, 2, 8, 16)),
        depth=st.sampled_from((1, 2, 16)),
        write_fraction=st.sampled_from((0.0, 0.3, 1.0)),
        address_space=st.sampled_from((8, 64, 4096)),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_traces(
        self, ordering, allocator, count, seed, lanes, depth, write_fraction, address_space
    ):
        config = SpMUConfig(queue_depth=depth)
        vectors = random_request_vectors(
            count,
            lanes=lanes,
            address_space=address_space,
            seed=seed,
            write_fraction=write_fraction,
        )
        _assert_equivalent(config, lanes, ordering, "hash", allocator, vectors)

    @given(
        count=st.integers(min_value=6, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        lanes=st.integers(min_value=2, max_value=4),
        depths=st.lists(st.integers(min_value=16, max_value=32), min_size=4, max_size=4),
        speedups=st.lists(st.integers(min_value=4, max_value=8), min_size=4, max_size=4),
        priorities=st.integers(min_value=1, max_value=3),
        address_space=st.sampled_from((4, 12, 40)),
        write_fraction=st.sampled_from((0.5, 1.0)),
        bloom_entries=st.sampled_from((8, 128)),
    )
    @settings(max_examples=8, deadline=None)
    def test_deep_queues_few_lanes_high_speedup(
        self,
        count,
        seed,
        lanes,
        depths,
        speedups,
        priorities,
        address_space,
        write_fraction,
        bloom_entries,
    ):
        # Deep queues, few lanes and several allocation passes per cycle,
        # over a few addresses that repeat within and across vectors: cycles
        # that admit several address-ordered vectors (or refuse one on a
        # Bloom hit), lanes that re-bid, and banks taken by an earlier pass.
        # One lock-step batch holds both scheduled orderings and both
        # allocators, each with its own queue depth and input speedup.
        vectors = random_request_vectors(
            count, lanes=lanes, address_space=address_space, seed=seed,
            write_fraction=write_fraction,
        )
        trace = RequestTrace.from_vectors(vectors)
        kinds = itertools.product(
            (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED), ("separable", "greedy")
        )
        variants = [
            SpMUVariant(
                ordering=ordering,
                allocator_kind=allocator,
                config=SpMUConfig(
                    banks=8,
                    words_per_bank=8,
                    queue_depth=depth,
                    crossbar_inputs=lanes * speedup,
                    allocator_priorities=priorities,
                    bloom_filter_entries=bloom_entries,
                ),
                lanes=lanes,
            )
            for (ordering, allocator), depth, speedup in zip(kinds, depths, speedups)
        ]
        batch = simulate_variants(
            variants, [trace] * len(variants), record_trace=True, collect_issues=True
        )
        for variant, result in zip(variants, batch):
            reference = _reference(variant, record_trace=True)
            stats = reference.simulate(vectors)
            assert _stats_tuple(stats) == _stats_tuple(result), variant
            assert np.array_equal(stats.per_cycle_active_banks, result.per_cycle_active_banks)
            assert np.array_equal(
                reference.read_data(0, reference.capacity_words),
                _replayed_image(variant, trace, result),
            )

    @pytest.mark.parametrize("mapping", ("hash", "linear"))
    @pytest.mark.parametrize(
        "banks,depth,crossbar,priorities",
        [(16, 16, 16, 3), (32, 8, 32, 1), (16, 4, 32, 2), (8, 2, 16, 1)],
    )
    def test_structural_parameters(self, mapping, banks, depth, crossbar, priorities):
        config = SpMUConfig(
            banks=banks,
            queue_depth=depth,
            crossbar_inputs=crossbar,
            allocator_priorities=priorities,
        )
        vectors = random_request_vectors(24, lanes=16, seed=11, write_fraction=0.25)
        for ordering in ORDERINGS:
            for allocator in ("separable", "greedy"):
                _assert_equivalent(config, 16, ordering, mapping, allocator, vectors)

    @pytest.mark.parametrize(
        "ordering", (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED)
    )
    def test_rmw_op_variety_preserves_memory_image(self, ordering):
        rng = np.random.default_rng(5)
        config = SpMUConfig(banks=8, words_per_bank=8, bloom_filter_entries=16)
        vectors = [
            [
                MemoryRequest(
                    address=int(rng.integers(0, 64)),
                    op=ALL_OPS[int(rng.integers(0, len(ALL_OPS)))],
                    value=float(np.round(rng.normal(), 3)),
                )
                for _ in range(int(rng.integers(0, 9)))
            ]
            for _ in range(10)
        ]
        _assert_equivalent(config, 8, ordering, "hash", "separable", vectors)

    def test_empty_and_all_elided_vectors(self):
        config = SpMUConfig(queue_depth=4)
        vectors = [
            [],
            [MemoryRequest(address=3, op=RMWOp.READ) for _ in range(8)],
            [],
            [MemoryRequest(address=3, op=RMWOp.ADD, value=1.0)],
            [],
        ]
        for ordering in ORDERINGS:
            _assert_equivalent(config, 8, ordering, "hash", "separable", vectors)

    def test_oversized_vector_rejected_by_both_engines(self):
        vectors = [[MemoryRequest(address=0) for _ in range(5)]]
        with pytest.raises(SimulationError):
            SparseMemoryUnit(lanes=4).simulate(vectors)
        with pytest.raises(SimulationError):
            simulate_variants([SpMUVariant(lanes=4)], [RequestTrace.from_vectors(vectors)])

    def test_out_of_range_address_rejected_by_both_engines(self):
        vectors = [[MemoryRequest(address=10**9)]]
        with pytest.raises(SimulationError):
            SparseMemoryUnit().simulate(vectors)
        with pytest.raises(SimulationError):
            simulate_variants([SpMUVariant()], [RequestTrace.from_vectors(vectors)])

    @pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
    def test_mixed_batch_matches_reference(self, ordering):
        # One lock-step pass over a heterogeneous grid (allocators x queue
        # depths x crossbar widths x lane counts, one trace each) must equal
        # every variant simulated alone by the reference loop.
        grid = itertools.product(("separable", "greedy"), (1, 4, 16), (16, 32), (8, 16))
        variants, vectors = [], []
        for seed, (allocator, depth, crossbar, lanes) in enumerate(grid):
            variants.append(
                SpMUVariant(
                    ordering=ordering,
                    allocator_kind=allocator,
                    config=SpMUConfig(queue_depth=depth, crossbar_inputs=crossbar),
                    lanes=lanes,
                )
            )
            vectors.append(
                random_request_vectors(4, lanes=lanes, address_space=512, seed=seed)
            )
        batch = simulate_variants(
            variants, [RequestTrace.from_vectors(v) for v in vectors]
        )
        assert len(batch) == len(variants)
        for variant, vecs, result in zip(variants, vectors, batch):
            assert _stats_tuple(result) == _stats_tuple(_reference(variant).simulate(vecs))

    def test_wide_bank_batch_matches_reference(self):
        # Bank sets span several 64-bit words past 64 banks; one batch mixes
        # single- and multi-word variants across both allocators, both
        # scheduled orderings and crossbar speed-ups 1 and 2. The linear
        # mapping reaches every bank (the nibble hash reaches 16 at most).
        vectors = {
            lanes: random_request_vectors(12, lanes=lanes, seed=lanes, write_fraction=0.3)
            for lanes in (4, 32)
        }
        traces = {lanes: RequestTrace.from_vectors(v) for lanes, v in vectors.items()}
        variants = [
            SpMUVariant(
                ordering=ordering,
                bank_mapping="linear",
                allocator_kind=allocator,
                config=SpMUConfig(banks=banks, crossbar_inputs=lanes * speedup),
                lanes=lanes,
            )
            for banks, lanes, allocator, ordering, speedup in itertools.product(
                (8, 64, 128, 256),
                (4, 32),
                ("separable", "greedy"),
                (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
                (1, 2),
            )
        ]
        batch = simulate_variants(
            variants,
            [traces[v.lanes] for v in variants],
            record_trace=True,
            collect_issues=True,
        )
        for variant, result in zip(variants, batch):
            reference = _reference(variant, record_trace=True)
            stats = reference.simulate(vectors[variant.lanes])
            assert _stats_tuple(stats) == _stats_tuple(result), variant
            assert np.array_equal(stats.per_cycle_active_banks, result.per_cycle_active_banks)
            assert np.array_equal(
                reference.read_data(0, reference.capacity_words),
                _replayed_image(variant, traces[variant.lanes], result),
            )


class TestEvaluationConfigurations:
    """Every configuration the table/figure harnesses measure must agree."""

    @pytest.mark.parametrize(
        "depth,crossbar,priorities", sorted(TABLE4_PAPER), ids=str
    )
    def test_table4_grid(self, depth, crossbar, priorities):
        config = SpMUConfig(
            queue_depth=depth,
            crossbar_inputs=crossbar,
            allocator_priorities=priorities,
            allocator_iterations=3,
        )
        reference = measure_bank_utilization(config, vectors=48)
        assert reference == _engine_utilization(config, vectors=48)

    @pytest.mark.parametrize("ordering", ORDERINGS, ids=lambda o: o.value)
    def test_figure4_orderings(self, ordering):
        # The exact Figure 4 workload: 120 random vectors, seed 7.
        config = SpMUConfig()
        reference = measure_bank_utilization(config, ordering=ordering, vectors=120)
        assert reference == _engine_utilization(config, ordering=ordering, vectors=120)

    @pytest.mark.parametrize("mapping", ("hash", "linear"))
    @pytest.mark.parametrize(
        "ordering,allocator",
        [
            (OrderingMode.UNORDERED, "separable"),
            (OrderingMode.UNORDERED, "greedy"),
            (OrderingMode.ARBITRATED, "separable"),
        ],
        ids=("capstan", "weak", "arbitrated"),
    )
    def test_table9_variants(self, mapping, ordering, allocator):
        config = SpMUConfig()
        reference = measure_bank_utilization(
            config,
            ordering=ordering,
            vectors=120,
            bank_mapping=mapping,
            allocator_kind=allocator,
        )
        assert reference == _engine_utilization(
            config,
            ordering=ordering,
            vectors=120,
            bank_mapping=mapping,
            allocator_kind=allocator,
        )


class TestRequestTrace:
    def test_random_trace_matches_object_factory(self):
        vectors = random_request_vectors(9, lanes=8, seed=21, write_fraction=0.4)
        from_objects = RequestTrace.from_vectors(vectors)
        direct = random_request_trace(9, lanes=8, seed=21, write_fraction=0.4)
        for name in ("addresses", "ops", "values", "lanes", "vector_ids"):
            assert np.array_equal(getattr(from_objects, name), getattr(direct, name))
        assert from_objects.n_vectors == direct.n_vectors == 9
        assert len(direct) == 72

    def test_roundtrip_preserves_requests(self):
        vectors = [
            [MemoryRequest(address=4, op=RMWOp.MIN_REPORT_CHANGED, value=2.5)],
            [],
            [MemoryRequest(address=1), MemoryRequest(address=2, op=RMWOp.WRITE, value=7.0)],
        ]
        rebuilt = RequestTrace.from_vectors(vectors).to_vectors()
        assert len(rebuilt) == 3
        assert rebuilt[0][0].op is RMWOp.MIN_REPORT_CHANGED
        assert rebuilt[0][0].value == 2.5
        assert rebuilt[1] == []
        assert [r.address for r in rebuilt[2]] == [1, 2]

    def test_reference_accepts_traces(self):
        trace = random_request_trace(6, lanes=4, seed=2)
        [result] = simulate_variants([SpMUVariant(lanes=4)], [trace])
        reference = SparseMemoryUnit(lanes=4)
        assert _stats_tuple(reference.simulate(trace)) == _stats_tuple(result)


class TestRecordTrace:
    def test_trace_is_opt_in(self):
        vectors = random_request_vectors(10, seed=3)
        stats = SparseMemoryUnit().simulate(vectors)
        assert stats.per_cycle_active_banks is None
        assert stats.bank_utilization > 0.0
        [result] = simulate_variants([SpMUVariant()], [RequestTrace.from_vectors(vectors)])
        assert result.per_cycle_active_banks is None
        assert _utilization(result, SpMUConfig().banks) > 0.0

    def test_trace_length_and_utilization_consistency(self):
        vectors = random_request_vectors(15, seed=4)
        for ordering in ORDERINGS:
            untraced = SparseMemoryUnit(ordering=ordering).simulate(vectors)
            traced_unit = SparseMemoryUnit(ordering=ordering, record_trace=True)
            traced = traced_unit.simulate(vectors)
            assert isinstance(traced.per_cycle_active_banks, np.ndarray)
            if ordering is not OrderingMode.ARBITRATED:
                assert traced.per_cycle_active_banks.size == traced.cycles
            assert int(traced.per_cycle_active_banks.sum()) == traced.requests
            assert traced.bank_utilization == untraced.bank_utilization


class TestBatchedThroughput:
    def _grid(self):
        variants = []
        for ordering in ORDERINGS:
            for mapping in ("hash", "linear"):
                variants.append(
                    SpMUVariant(
                        ordering=ordering,
                        bank_mapping=mapping,
                        config=SpMUConfig(banks=8, words_per_bank=512),
                        lanes=8,
                    )
                )
        return variants

    def test_matches_scalar_path(self, isolated_store):
        variants = self._grid()
        batched = effective_bank_throughput_batch(variants)
        for variant, value in zip(variants, batched):
            scalar = measure_bank_utilization(
                variant.config,
                ordering=variant.ordering,
                vectors=spmu_module.THROUGHPUT_VECTORS,
                lanes=variant.lanes,
                bank_mapping=variant.bank_mapping,
                allocator_kind=variant.allocator_kind,
                seed=spmu_module.THROUGHPUT_SEED,
            )
            assert scalar * variant.config.banks == value
            # One-element batches (the timing model's scalar lookups) agree.
            spmu_module._THROUGHPUT_CACHE.clear()
            assert effective_bank_throughput_batch([variant])[0] == value

    def test_populates_store_and_memo_in_one_pass(self, isolated_store, monkeypatch):
        variants = self._grid()
        calls = []
        original = simulate_variants

        def counting(vs, traces, **kwargs):
            calls.append(len(vs))
            return original(vs, traces, **kwargs)

        monkeypatch.setattr(spmu_module, "simulate_variants", counting)
        first = effective_bank_throughput_batch(variants)
        assert calls == [len(variants)]  # one batched simulation call
        assert len(isolated_store) == len(variants)
        # Warm memo: no further simulation.
        second = effective_bank_throughput_batch(variants)
        assert calls == [len(variants)]
        assert np.array_equal(first, second)
        # Fresh process (cleared memo): served from the store, no simulation.
        spmu_module._THROUGHPUT_CACHE.clear()
        third = effective_bank_throughput_batch(variants)
        assert calls == [len(variants)]
        assert np.array_equal(first, third)

    def test_duplicate_variants_simulated_once(self, isolated_store, monkeypatch):
        variant = SpMUVariant(config=SpMUConfig(banks=8, words_per_bank=512), lanes=8)
        calls = []
        original = simulate_variants

        def counting(vs, traces, **kwargs):
            calls.append(len(vs))
            return original(vs, traces, **kwargs)

        monkeypatch.setattr(spmu_module, "simulate_variants", counting)
        values = effective_bank_throughput_batch([variant] * 5)
        assert calls == [1]
        assert np.unique(values).size == 1

        # Variants equal but for ``crossbar_inputs`` simulate once per input
        # speedup (8 lanes: 4 and 12 inputs are speedup 1, 17 and 20 are
        # 2), yet each keeps its own memo entry and store entry.
        crossbars = (4, 12, 17, 20)
        variants = [
            replace(variant, config=replace(variant.config, crossbar_inputs=inputs))
            for inputs in crossbars
        ]
        values = effective_bank_throughput_batch(variants)
        assert calls == [1, 2]
        assert values[0] == values[1] and values[2] == values[3]
        assert len(isolated_store) == 1 + len(variants)
        for v, value in zip(variants, values):
            assert spmu_module._THROUGHPUT_CACHE[(v, spmu_module.THROUGHPUT_VECTORS)] == value
            alone = SparseMemoryUnit(
                config=v.config, lanes=v.lanes, ordering=v.ordering
            ).simulate(random_request_trace(spmu_module.THROUGHPUT_VECTORS, lanes=8, seed=7))
            assert alone.bank_utilization * v.config.banks == value

    def test_store_many_roundtrip(self, tmp_path):
        store = ThroughputStore(root=tmp_path)
        store.store_many({"a" * 64: 1.5, "b" * 64: 2.5})
        assert store.load_many(["a" * 64, "b" * 64, "c" * 64]) == {
            "a" * 64: 1.5,
            "b" * 64: 2.5,
        }
        (tmp_path / ("d" * 64 + ".json")).write_text("{broken")
        assert store.load_many(["d" * 64]) == {}


class TestMergeEfficiencyBackends:
    @pytest.mark.parametrize("mode", tuple(ShuffleMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("fraction", (0.0, 0.3, 0.7, 1.0))
    def test_fast_path_matches_reference(self, mode, fraction):
        reference = merge_efficiency_reference(mode, fraction, lanes=8, vectors=12)
        assert merge_efficiency(mode, fraction, lanes=8, vectors=12) == reference

    def test_design_point_traffic_matches(self):
        # The shape _shuffle_efficiency measures at the 16-lane design point.
        for mode in (ShuffleMode.MRG0, ShuffleMode.MRG1, ShuffleMode.MRG16):
            reference = merge_efficiency_reference(mode, 0.45, lanes=16, vectors=24)
            assert merge_efficiency(mode, 0.45, lanes=16, vectors=24) == reference


class TestPrefill:
    def test_prefill_throughputs_warms_the_store(self, isolated_store):
        from repro.runtime.dse import prefill_throughputs
        from repro.runtime.sweep import sweep

        variants = sweep(banks=(8,), lanes=(8,), queue_depth=(4, 8))
        resolved = prefill_throughputs(variants.values())
        assert resolved == 2
        assert len(isolated_store) == 2
        # Ideal-SRAM platforms need no calibration at all.
        ideal = sweep(ideal_sram=(True,))
        assert prefill_throughputs(ideal.values()) == 0

    def test_cli_prefill_only(self, tmp_path, monkeypatch, capsys):
        from repro.runtime.cli import main as cli_main

        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
        rc = cli_main(
            [
                "dse",
                "--axis", "banks=8",
                "--axis", "lanes=8",
                "--axis", "queue_depth=4,8",
                "--prefill-only",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "prefilled SpMU throughputs for 2 distinct variants" in out
        assert len(ThroughputStore()) == 2

    def test_cli_prefill_store_is_read_back(self, tmp_path, monkeypatch):
        from repro.runtime.cli import main as cli_main

        monkeypatch.setenv("REPRO_THROUGHPUT_CACHE", str(tmp_path / "throughput"))
        monkeypatch.setattr(spmu_module, "_THROUGHPUT_CACHE", {})
        assert (
            cli_main(
                ["dse", "--axis", "banks=8", "--axis", "lanes=8", "--prefill-only"]
            )
            == 0
        )
        store = ThroughputStore()
        payloads = [
            json.loads(path.read_text()) for path in sorted(store.root.glob("*.json"))
        ]
        assert payloads and all(p["throughput"] > 0 for p in payloads)
