"""Array-based SpMU simulation engine (the batched microbenchmark engine).

The reference simulator in :mod:`repro.core.spmu` walks one
``List[List[MemoryRequest]]`` trace through the reordering pipeline with
per-cycle Python loops over request objects. This module re-expresses the
same machine as array passes over a flat trace representation
(``addresses`` / ``ops`` / ``lanes`` / ``vector_ids`` numpy arrays) and --
crucially -- simulates *many SpMU variants in lock-step*: every per-cycle
quantity (queue occupancy, allocator request matrices, grants, completions,
Bloom-filter state) is a tensor indexed by variant, so a whole design-space
grid of (ordering, bank mapping, allocator, structure, lanes) points costs
a handful of numpy operations per cycle instead of hundreds of Python-level
scans per cycle *per variant*.

Three scheduling regimes are implemented:

* ``ARBITRATED`` -- closed form: a vector with ``k`` requests to its most
  contended bank takes ``k`` cycles, so per-vector cycle counts are a
  ``bincount``/``max`` pass over ``(vector, bank)`` keys.
* ``FULLY_ORDERED`` -- closed form: only one vector is ever in flight, and
  each cycle issues the maximal conflict-free program-order prefix, so a
  single scan over lanes assigns every request an issue round and the
  per-vector occupancy (rounds + pipeline latency) composes additively.
* ``UNORDERED`` / ``ADDRESS_ORDERED`` -- a lock-step cycle loop whose inner
  work (queue refill, separable/greedy allocation, oldest-request
  resolution, retirement) is vectorized across all variants at once.

A cold lock-step batch large enough to pay for a fork is split into
cost-balanced shares that run side by side: all but the last in processes
forked for that batch, the last in the calling process (see
:func:`_share_count` for when it fans out). Variants are independent, so
the split changes no result.

Every path reproduces the reference loop's statistics *exactly* -- cycles,
requests, elided reads, bank-busy cycles, ordering stalls, and (when
requested) the per-cycle active-bank trace -- which the equivalence tests
and the ``spmu`` benchmark gate assert configuration by configuration.

The public entry point is :func:`simulate_variants`; the memoized,
persisted measurement built on it
(:func:`~repro.core.spmu.effective_bank_throughput_batch`) and the
reference simulator it is checked against
(:class:`~repro.core.spmu.SparseMemoryUnit`) live in :mod:`repro.core.spmu`.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._budget import iter_chunks, resolve_memory_budget
from ..config import SpMUConfig
from ..errors import ConfigurationError, SimulationError
from .allocator import ALLOCATOR_KINDS, SeparableAllocator
from .bank_hash import BANK_MAPPINGS, get_bank_mapper_array
from .ordering import OrderingMode

#: Integer op codes used by array request traces. ``OP_READ`` must stay 0;
#: the engine treats codes <= ``OP_SUB`` as the vectorizable fast path for
#: functional execution and anything above as requiring the scalar RMW
#: fallback.
OP_READ = 0
OP_ADD = 1
OP_SUB = 2
OP_OTHER_BASE = 3

#: Knuth-style multiplicative hash constants of the reference Bloom filter.
_BLOOM_MULT = 2654435761
_BLOOM_SALT = 0x9E3779B9


@dataclass(frozen=True)
class SpMUVariant:
    """One SpMU microbenchmark configuration point.

    Mirrors the :class:`~repro.core.spmu.SparseMemoryUnit` constructor
    arguments so a design-space sweep can be described as plain data and
    simulated in one :func:`simulate_variants` call.
    """

    ordering: OrderingMode = OrderingMode.UNORDERED
    bank_mapping: str = "hash"
    allocator_kind: str = "separable"
    config: SpMUConfig = field(default_factory=SpMUConfig)
    lanes: int = 16
    pipeline_latency: int = 3

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` unless the point is simulable."""
        if self.bank_mapping not in BANK_MAPPINGS:
            raise ConfigurationError(f"unknown bank mapping {self.bank_mapping!r}")
        if self.allocator_kind not in ALLOCATOR_KINDS:
            raise ConfigurationError(f"unknown allocator {self.allocator_kind!r}")
        if self.lanes <= 0:
            raise ConfigurationError(f"lanes must be positive, got {self.lanes}")
        self.config.validate()


@dataclass
class SimResult:
    """Raw result of one simulated variant (:class:`~repro.core.spmu.SpMUStats` fields).

    Attributes:
        cycles / requests / elided_reads / bank_busy_cycles / vectors /
        stall_cycles_ordering: The reference loop's aggregate statistics.
        per_cycle_active_banks: Active-bank count per simulated cycle, or
            ``None`` unless the trace was recorded.
        issue_vectors / issue_lanes: The ``(vector, lane)`` coordinates of
            every executed request in issue order, or ``None`` unless issue
            collection was requested (the equivalence tests replay it onto
            an SRAM image).
    """

    cycles: int
    requests: int
    elided_reads: int
    bank_busy_cycles: int
    vectors: int
    stall_cycles_ordering: int
    per_cycle_active_banks: Optional[np.ndarray] = None
    issue_vectors: Optional[np.ndarray] = None
    issue_lanes: Optional[np.ndarray] = None


@dataclass
class _PreparedTrace:
    """A request trace densified to ``(vector, lane)`` matrices."""

    n_vectors: int
    width: int
    lengths: np.ndarray
    addr_mat: np.ndarray
    op_mat: np.ndarray
    val_mat: np.ndarray
    kept: np.ndarray
    kept_counts: np.ndarray
    has_dup: np.ndarray
    total_kept: int
    elided: int
    min_address: int
    max_address: int
    _bank_mats: Dict[Tuple[str, int], np.ndarray] = field(default_factory=dict)

    def bank_mat(self, mapping: str, banks: int) -> np.ndarray:
        """The per-(vector, lane) bank matrix for one mapping scheme."""
        key = (mapping, banks)
        cached = self._bank_mats.get(key)
        if cached is None:
            mapper = get_bank_mapper_array(mapping)
            safe = np.where(self.kept, self.addr_mat, 0)
            cached = np.where(self.kept, mapper(safe, banks), -1).astype(np.int16)
            self._bank_mats[key] = cached
        return cached


def prepare_trace(trace) -> _PreparedTrace:
    """Densify a flat request trace and apply repeated-read elision.

    ``trace`` is any object exposing ``addresses`` / ``ops`` / ``values`` /
    ``lanes`` / ``vector_ids`` arrays plus an ``n_vectors`` count (see
    :class:`~repro.core.spmu.RequestTrace`). Duplicate read-only accesses
    to an address already read earlier in the same vector are squashed,
    exactly as the reference pipeline's enqueue stage does.
    """
    addresses = np.asarray(trace.addresses, dtype=np.int64)
    ops = np.asarray(trace.ops, dtype=np.int16)
    values = np.asarray(trace.values, dtype=np.float64)
    lanes = np.asarray(trace.lanes, dtype=np.int64)
    vector_ids = np.asarray(trace.vector_ids, dtype=np.int64)
    n_vectors = int(trace.n_vectors)
    n = addresses.size

    lengths = np.bincount(vector_ids, minlength=n_vectors) if n else np.zeros(n_vectors, np.int64)
    width = int(lanes.max()) + 1 if n else 0

    # Repeated-read elision: among read-only requests, keep the first
    # occurrence of each (vector, address) pair in lane order. Trace order
    # is (vector asc, lane asc), so np.unique's first-occurrence indices
    # select exactly the request the reference's seen_reads dict keeps.
    elide = np.zeros(n, dtype=bool)
    read_mask = ops == OP_READ
    if read_mask.any():
        ridx = np.nonzero(read_mask)[0]
        max_addr = int(addresses.max()) if n else 0
        key = vector_ids[ridx] * (max_addr + 1) + addresses[ridx]
        _, first = np.unique(key, return_index=True)
        keep_read = np.zeros(ridx.size, dtype=bool)
        keep_read[first] = True
        elide[ridx[~keep_read]] = True
    kept_flat = ~elide

    addr_mat = np.full((n_vectors, width), -1, dtype=np.int64)
    op_mat = np.full((n_vectors, width), -1, dtype=np.int16)
    val_mat = np.zeros((n_vectors, width), dtype=np.float64)
    kept = np.zeros((n_vectors, width), dtype=bool)
    if n:
        kv = vector_ids[kept_flat]
        kl = lanes[kept_flat]
        addr_mat[kv, kl] = addresses[kept_flat]
        op_mat[kv, kl] = ops[kept_flat]
        val_mat[kv, kl] = values[kept_flat]
        kept[kv, kl] = True
    kept_counts = kept.sum(axis=1).astype(np.int64)

    # Intra-vector duplicate addresses among kept requests (the
    # address-ordered mode's split-stall condition).
    has_dup = np.zeros(n_vectors, dtype=bool)
    if n:
        kv = vector_ids[kept_flat]
        ka = addresses[kept_flat]
        order = np.lexsort((ka, kv))
        sv, sa = kv[order], ka[order]
        dup = np.zeros(sv.size, dtype=bool)
        dup[1:] = (sv[1:] == sv[:-1]) & (sa[1:] == sa[:-1])
        has_dup[sv[dup]] = True

    return _PreparedTrace(
        n_vectors=n_vectors,
        width=width,
        lengths=lengths,
        addr_mat=addr_mat,
        op_mat=op_mat,
        val_mat=val_mat,
        kept=kept,
        kept_counts=kept_counts,
        has_dup=has_dup,
        total_kept=int(kept_flat.sum()),
        elided=int(elide.sum()),
        min_address=int(addresses.min()) if n else 0,
        max_address=int(addresses.max()) if n else 0,
    )


def _validate(variant: SpMUVariant, prep: _PreparedTrace) -> None:
    """Reject traces the reference simulator would reject."""
    variant.config.validate()
    if prep.lengths.size and int(prep.lengths.max()) > variant.lanes:
        bad = int(np.argmax(prep.lengths > variant.lanes))
        raise SimulationError(
            f"vector {bad} has {int(prep.lengths[bad])} requests for {variant.lanes} lanes"
        )
    words = variant.config.banks * variant.config.words_per_bank
    if prep.min_address < 0 or prep.max_address >= words:
        bad = prep.min_address if prep.min_address < 0 else prep.max_address
        raise SimulationError(f"address {bad} outside SpMU capacity")


def _bloom_slots(addresses: np.ndarray, entries: int, salt_index: int) -> np.ndarray:
    """Vectorized counting-Bloom slot computation, exact vs the reference.

    The reference hashes with arbitrary-precision Python ints; the int64
    fast path is exact whenever the product cannot overflow, which a guard
    checks before trusting it.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and int(addresses.max()) > (2**62) // _BLOOM_MULT:
        slots = [
            ((int(a) * _BLOOM_MULT + salt_index * _BLOOM_SALT) >> 7) % entries
            for a in addresses.ravel()
        ]
        return np.array(slots, dtype=np.int64).reshape(addresses.shape)
    return ((addresses * _BLOOM_MULT + salt_index * _BLOOM_SALT) >> 7) % entries


# --------------------------------------------------------------------------- #
# Closed forms: arbitrated and fully-ordered scheduling
# --------------------------------------------------------------------------- #


def _simulate_arbitrated(
    variant: SpMUVariant, prep: _PreparedTrace, record_trace: bool, collect_issues: bool
) -> SimResult:
    """Closed-form arbitrated baseline: bincount over (vector, bank) keys."""
    banks = variant.config.banks
    bank = prep.bank_mat(variant.bank_mapping, banks)
    nv = prep.n_vectors
    vi, li = np.nonzero(prep.kept)
    counts = np.zeros((nv, banks), dtype=np.int64)
    if vi.size:
        np.add.at(counts, (vi, bank[vi, li]), 1)
    rounds = counts.max(axis=1) if nv and banks else np.zeros(nv, dtype=np.int64)
    cycles = int(rounds.sum())

    trace_arr = None
    if record_trace:
        tmax = int(rounds.max()) if nv else 0
        if tmax:
            grid = (counts[:, None, :] > np.arange(tmax)[None, :, None]).sum(axis=-1)
            mask = np.arange(tmax)[None, :] < rounds[:, None]
            trace_arr = grid[mask].astype(np.int64)
        else:
            trace_arr = np.zeros(0, dtype=np.int64)

    issue_vec = issue_lane = None
    if collect_issues:
        if vi.size:
            bk = bank[vi, li]
            order = np.lexsort((li, bk, vi))
            sv, sb = vi[order], bk[order]
            new_group = np.ones(sv.size, dtype=bool)
            new_group[1:] = (sv[1:] != sv[:-1]) | (sb[1:] != sb[:-1])
            starts = np.nonzero(new_group)[0]
            group = np.cumsum(new_group) - 1
            rank_sorted = np.arange(sv.size) - starts[group]
            rank = np.empty(sv.size, dtype=np.int64)
            rank[order] = rank_sorted
            final = np.lexsort((li, rank, vi))
            issue_vec, issue_lane = vi[final], li[final]
        else:
            issue_vec = issue_lane = np.zeros(0, dtype=np.int64)

    return SimResult(
        cycles=cycles,
        requests=prep.total_kept,
        elided_reads=prep.elided,
        bank_busy_cycles=prep.total_kept,
        vectors=nv,
        stall_cycles_ordering=0,
        per_cycle_active_banks=trace_arr,
        issue_vectors=issue_vec,
        issue_lanes=issue_lane,
    )


def _simulate_fully_ordered(
    variant: SpMUVariant, prep: _PreparedTrace, record_trace: bool, collect_issues: bool
) -> SimResult:
    """Closed-form fully-ordered mode.

    One vector is in flight at a time; each cycle issues the maximal
    conflict-free program-order prefix of its remaining requests, so a
    single left-to-right scan over lanes assigns every request its issue
    round. A vector with ``r`` rounds occupies the queue for ``r +
    pipeline_latency`` cycles (its last completion must retire before the
    next vector may enter); an all-elided vector occupies exactly one.
    Every occupied cycle with another vector waiting stalls the enqueue
    stage once (unless the queue is single-entry, in which case the
    reference's refill loop never reaches the stall check).
    """
    banks = variant.config.banks
    latency = max(1, variant.pipeline_latency)
    bank = prep.bank_mat(variant.bank_mapping, banks)
    nv, width = prep.n_vectors, prep.width

    seen = np.zeros((nv, banks), dtype=bool)
    round_idx = np.zeros(nv, dtype=np.int64)
    rounds_of = np.full((nv, max(width, 1)), -1, dtype=np.int64)[:, :width]
    rows = np.arange(nv)
    for lane in range(width):
        b = bank[:, lane]
        k = b >= 0
        if not k.any():
            continue
        safe = np.where(k, b, 0)
        conflict = seen[rows, safe] & k
        if conflict.any():
            round_idx[conflict] += 1
            seen[conflict] = False
        seen[rows[k], b[k]] = True
        rounds_of[k, lane] = round_idx[k]

    rounds = np.where(prep.kept_counts > 0, round_idx + 1, 0)
    delta = np.where(prep.kept_counts > 0, rounds + latency, 1)
    cycles = int(delta.sum())
    if nv and variant.config.queue_depth > 1:
        stalls = cycles - int(delta[-1])
    else:
        stalls = 0

    trace_arr = None
    if record_trace:
        parts: List[np.ndarray] = []
        for v in range(nv):
            if prep.kept_counts[v]:
                row = rounds_of[v]
                parts.append(np.bincount(row[row >= 0], minlength=int(rounds[v])))
                parts.append(np.zeros(latency, dtype=np.int64))
            else:
                parts.append(np.zeros(1, dtype=np.int64))
        trace_arr = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    issue_vec = issue_lane = None
    if collect_issues:
        issue_vec, issue_lane = np.nonzero(prep.kept)

    return SimResult(
        cycles=cycles,
        requests=prep.total_kept,
        elided_reads=prep.elided,
        bank_busy_cycles=prep.total_kept,
        vectors=nv,
        stall_cycles_ordering=stalls,
        per_cycle_active_banks=trace_arr,
        issue_vectors=issue_vec,
        issue_lanes=issue_lane,
    )


# --------------------------------------------------------------------------- #
# Lock-step cycle loop: unordered and address-ordered scheduling
# --------------------------------------------------------------------------- #


def _input_speedup(variant: SpMUVariant) -> int:
    """Allocation passes per cycle: the crossbar's issues per lane."""
    return max(1, variant.config.crossbar_inputs // variant.lanes)


def _bank_bits(banks: np.ndarray, words: int) -> np.ndarray:
    """Bank numbers (``-1``: none) as one-bit sets of ``words`` ``uint64`` words."""
    bit = np.left_shift(np.uint64(1), (banks & 63).astype(np.uint64))
    return np.where((banks >> 6)[..., None] == np.arange(words), bit[..., None], np.uint64(0))


class _LockStepState:
    """All per-variant state of the lock-step scheduled simulation.

    Row ``j`` of every array describes one still-running variant; finished
    variants are periodically compacted out so the tail of a heterogeneous
    grid does not pay tensor work for variants that already completed.
    ``orig`` maps rows back to positions in the caller's variant list.

    ``pend[j, vector, :, lane]`` is that request's bank as a bit set of
    ``words`` ``uint64`` words (bank ``b`` is bit ``b % 64`` of word ``b //
    64``); it is all zero once the request issued, or if it was never kept.
    Vector ``empty_slot`` is all zero: the one empty queue slots read.
    ``remaining`` is indexed by caller position, not by row, so it survives
    compaction unchanged.

    Rows are ordered separable first, then greedy, and by descending
    input speedup within each allocator, so the rows of one allocator that
    bid in an input-speedup pass are a contiguous block.
    """

    def __init__(self, variants: Sequence[SpMUVariant], preps: Sequence[_PreparedTrace]):
        v_count = len(variants)
        order = sorted(
            range(v_count),
            key=lambda i: (variants[i].allocator_kind != "separable", -_input_speedup(variants[i])),
        )
        variants = [variants[i] for i in order]
        preps = [preps[i] for i in order]
        self.NV = max((p.n_vectors for p in preps), default=0)
        self.W = max((p.width for p in preps), default=0)
        self.words = -(-max(v.config.banks for v in variants) // 64)
        self.D = max(v.config.queue_depth for v in variants)
        nv_pad = max(self.NV, 1)
        w_pad = max(self.W, 1)

        self.pend = np.zeros((v_count, nv_pad + 1, self.words, w_pad), dtype=np.uint64)
        self.empty_slot = nv_pad
        # Per (variant, vector): kept requests not yet *retired* (pending in
        # the queue or in flight through the pipeline). Issues leave it
        # unchanged -- only completions decrement -- so a vector's queue
        # slot frees exactly when its count reaches zero, which matches the
        # reference's "no pending and no outstanding" retirement test.
        self.remaining = np.zeros((v_count, nv_pad + 1), dtype=np.int32)
        for j, (variant, prep) in enumerate(zip(variants, preps)):
            if prep.n_vectors and prep.width:
                bank = prep.bank_mat(variant.bank_mapping, variant.config.banks)
                bits = _bank_bits(bank, self.words)
                self.pend[j, : prep.n_vectors, :, : prep.width] = bits.transpose(0, 2, 1)
            self.remaining[order[j], : prep.n_vectors] = prep.kept_counts

        self.qvec = np.full((v_count, self.D), -1, dtype=np.int64)
        self.qn = np.zeros(v_count, dtype=np.int64)
        self.waiting = np.zeros(v_count, dtype=np.int64)
        self.nv = np.array([p.n_vectors for p in preps], dtype=np.int64)
        self.total = np.array([p.total_kept for p in preps], dtype=np.int64)
        self.executed = np.zeros(v_count, dtype=np.int64)
        self.stalls = np.zeros(v_count, dtype=np.int64)
        self.depth = np.array([v.config.queue_depth for v in variants], dtype=np.int64)
        self.ipl = np.array([_input_speedup(v) for v in variants], dtype=np.int64)
        self.width = np.array([p.width for p in preps], dtype=np.int64)
        self.latency = np.array([max(1, v.pipeline_latency) for v in variants], dtype=np.int64)
        self.sep = np.array([v.allocator_kind == "separable" for v in variants], dtype=bool)
        self.iters = np.array(
            [v.config.allocator_iterations if v.allocator_kind == "separable" else 0
             for v in variants],
            dtype=np.int64,
        )
        self.max_it = int(self.iters.max()) if self.sep.any() else 0
        # An age cutoff of 0 admits no queue slot: the iteration is off.
        self.cutoffs = np.zeros((v_count, max(self.max_it, 1)), dtype=np.int64)
        for j, variant in enumerate(variants):
            if variant.allocator_kind != "separable":
                continue
            allocator = SeparableAllocator(
                lanes=variant.lanes,
                banks=variant.config.banks,
                iterations=variant.config.allocator_iterations,
                priorities=variant.config.allocator_priorities,
                queue_depth=variant.config.queue_depth,
            )
            self.cutoffs[j, : len(allocator.age_cutoffs)] = allocator.age_cutoffs
        self.max_cycles = 64 * (self.total + self.nv + 8)
        self.active = self.nv > 0
        self.orig = np.array(order, dtype=np.int64)

        # Address-ordered state: one flat Bloom counter row per AO variant,
        # each ending in a sentinel entry that padded (non-kept) lane slots
        # alias, plus a last row that every unordered variant aliases whole
        # (``ao_row``), so batched inserts, removes and membership checks
        # need neither masking nor row selection. A sentinel reads as empty:
        # inserts zero it again and removes only take it below zero.
        ao_idx = [j for j, v in enumerate(variants) if v.ordering is OrderingMode.ADDRESS_ORDERED]
        self.ao_row = np.full(v_count, len(ao_idx), dtype=np.int64)
        self.ao_row[ao_idx] = np.arange(len(ao_idx))
        self.entries_max = max(
            (variants[j].config.bloom_filter_entries for j in ao_idx), default=1
        )
        row_size = self.entries_max + 1
        self.counters = np.zeros((len(ao_idx) + 1) * row_size, dtype=np.int32)
        #: Both Bloom slots per (AO variant, vector, lane) as indices into
        #: ``counters``, stacked on the last axis.
        self.s01 = np.full((len(ao_idx) + 1, nv_pad, w_pad, 2), self.entries_max, dtype=np.int64)
        self.s01 += row_size * np.arange(self.s01.shape[0])[:, None, None, None]
        self.ao_dup = np.zeros((len(ao_idx) + 1, nv_pad + 1), dtype=np.int64)
        for row, j in enumerate(ao_idx):
            prep = preps[j]
            entries = variants[j].config.bloom_filter_entries
            if prep.n_vectors and prep.width:
                kv, kl = np.nonzero(prep.kept)
                addr = prep.addr_mat[kv, kl]
                self.s01[row, kv, kl, 0] = row * row_size + _bloom_slots(addr, entries, 0)
                self.s01[row, kv, kl, 1] = row * row_size + _bloom_slots(addr, entries, 1)
            self.ao_dup[row, : prep.n_vectors] = prep.has_dup
            # Every vector pays its split stall once on the attempt that
            # admits it; the refill adds the stalls of refused attempts.
            self.stalls[j] = int(prep.has_dup.sum())
        self._derive_row_tables()

    def compact(self, results_stats):
        """Drop finished rows, flushing their accumulated statistics."""
        keep = np.nonzero(self.active)[0]
        dropped = np.nonzero(~self.active)[0]
        for j in dropped:
            results_stats[self.orig[j]] = (int(self.executed[j]), int(self.stalls[j]))
        for name in (
            "pend", "qvec", "qn", "waiting", "nv", "total", "executed", "stalls", "depth",
            "ipl", "width", "latency", "sep", "iters", "cutoffs", "max_cycles", "active",
            "orig", "ao_row",
        ):
            setattr(self, name, getattr(self, name)[keep])
        self._derive_row_tables()

    def _derive_row_tables(self) -> None:
        """Precompute the per-row index columns and the static allocator tables.

        Input-speedup pass ``p`` runs at most the separable rows ``[0,
        sep_rows[p])`` and the greedy rows ``[n_sep, n_sep +
        greedy_rows[p])``; the first ``n`` rows of a block span lanes ``[0,
        sep_lanes[n])`` (``greedy_lanes[n]``).
        """
        rows = self.orig.size
        self.row_index = np.arange(rows)
        self.word_index = np.arange(self.words)[:, None]
        self.lane_index = np.arange(max(self.W, 1))
        self.v2 = self.row_index[:, None]
        self.o2 = self.orig[:, None]
        self.ao_rows = np.nonzero(self.ao_row < self.s01.shape[0] - 1)[0]
        self.has_ao = bool(self.ao_rows.size)
        self.passes = int(self.ipl.max()) if rows else 1
        self.n_sep = int(self.sep.sum())
        sep_ipl, greedy_ipl = self.ipl[: self.n_sep], self.ipl[self.n_sep :]
        self.sep_rows = [int((sep_ipl > p).sum()) for p in range(self.passes)]
        self.greedy_rows = [int((greedy_ipl > p).sum()) for p in range(self.passes)]
        self.sep_lanes = [0] + np.maximum.accumulate(self.width[: self.n_sep]).tolist()
        self.greedy_lanes = [0] + np.maximum.accumulate(self.width[self.n_sep :]).tolist()
        #: Per separable iteration, every separable row's age cutoff.
        self.iter_cut = np.where(
            np.arange(self.max_it)[:, None] < self.iters[: self.n_sep],
            self.cutoffs[: self.n_sep, : self.max_it].T,
            0,
        )


def _refill_lockstep(state: _LockStepState, pos: np.ndarray) -> None:
    """One cycle's queue-refill stage (the reference ``_refill_queue``),
    vectorized across variants.

    Row ``j`` has room for the next ``min(depth - qn, nv - waiting)``
    waiting vectors. An unordered variant takes them all; an
    address-ordered variant takes the prefix :func:`_admit_address_ordered`
    admits. The accepted vectors land in consecutive queue slots.
    """
    room = np.minimum(state.depth - state.qn, state.nv - state.waiting)
    if not np.maximum.reduce(room):
        return
    accept = room
    if state.has_ao:
        accept = room.copy()
        accept[state.ao_rows] = _admit_address_ordered(state, state.ao_rows, room[state.ao_rows])
    np.copyto(
        state.qvec, (state.waiting - state.qn)[:, None] + pos, where=pos >= state.qn[:, None]
    )
    state.qn += accept
    state.waiting += accept


#: Waiting vectors an address-ordered row first tries per cycle; a row that
#: admits them all and has room left tries twice as many next. Most rows
#: admit at most one vector a cycle, and a window of 3 beat windows of 1
#: and 2 on the captured kilovariant batches.
_ADMIT_WINDOW = 3


def _admit_address_ordered(
    state: _LockStepState, rows: np.ndarray, room: np.ndarray
) -> np.ndarray:
    """How many of its next ``room`` waiting vectors each address-ordered
    row admits this cycle, in closed form over a window of candidates.

    The reference tries the vectors in order: each attempt pays the
    intra-vector-duplicate split stall, an attempt whose addresses the
    Bloom filter may hold stalls and ends the cycle's refill, and an
    accepted vector's addresses are inserted before the next attempt. So a
    candidate hits where both counter slots of one of its addresses are
    held already or first written by an earlier candidate. One scatter-min
    of the candidate index over the flat counter slots gives every slot's
    first writer; the accepted prefix ends at the first hit, and one
    ``bincount`` inserts it. A row that admits its whole window with room
    left goes on with the next window. Each vector's split stall for the
    attempt that admits it is counted up front (:class:`_LockStepState`),
    so a refused attempt adds its split stall and the Bloom stall.
    """
    accept = np.zeros_like(room)
    sentinels = slice(state.entries_max, None, state.entries_max + 1)
    at = np.arange(rows.size)
    base = state.waiting[rows]
    arows = state.ao_row[rows][:, None]
    left = room
    window = _ADMIT_WINDOW
    while True:
        m = min(window, int(np.maximum.reduce(left)))
        if not m:
            return accept
        cand = np.arange(m)
        vecs = np.minimum(base[:, None] + cand, state.s01.shape[1] - 1)
        slots = state.s01[arows, vecs]
        # Each slot's first writer: -1 if the filter holds it already.
        first = np.where(state.counters > 0, -1, m)
        if m > 1:
            writer = np.empty(slots.shape, dtype=np.int64)
            writer[...] = cand[:, None, None]
            np.minimum.at(first, slots.ravel(), writer.ravel())
            first[sentinels] = m
        held = first[slots] < cand[:, None, None]
        refused = np.logical_or.reduce(held[..., 0] & held[..., 1], axis=2)
        stop = np.minimum(left, m)
        refused |= cand >= stop[:, None]
        got = np.where(np.logical_or.reduce(refused, axis=1), refused.argmax(axis=1), m)
        hit = got < stop
        state.stalls[rows] += hit * (1 + state.ao_dup[arows[:, 0], base + got])
        state.counters += np.bincount(
            slots[cand < got[:, None]].ravel(), minlength=state.counters.size
        )
        state.counters[sentinels] = 0
        accept[at] += got
        more = (got == m) & (left > m)
        if not np.logical_or.reduce(more):
            return accept
        at, rows, arows = at[more], rows[more], arows[more]
        base, left = base[more] + m, left[more] - m
        window *= 2


def _separable_pass(
    state: _LockStepState, cands: np.ndarray, free: np.ndarray, granted: np.ndarray
) -> None:
    """The separable iterations of one allocation pass, for a block of rows.

    Each iteration, every lane without a grant bids for the lowest free bank
    among its candidates ``cands[it]`` below the iteration's age cutoff
    (stage 1: the lowest set bit of the lowest non-empty word), and a bid
    wins unless a lower lane bid for the same bank (stage 2: an exclusive
    prefix-OR of the bids along lanes).
    """
    for it in range(state.max_it):
        bids = cands[it] & free[:, :, None]
        if it:
            bids *= np.logical_and.reduce(granted == 0, axis=1, keepdims=True)
        if not np.logical_or.reduce(bids, axis=None):
            continue
        bids &= -bids
        for word in range(1, state.words):
            bids[:, word:] *= bids[:, word - 1 : word] == 0
        below = np.bitwise_or.accumulate(bids, axis=-1)
        bids[..., 1:] &= ~below[..., :-1]
        granted |= bids
        free &= ~below[..., -1]


def _greedy_pass(
    state: _LockStepState, queued: np.ndarray, free: np.ndarray, granted: np.ndarray
) -> None:
    """The greedy allocation of one pass, for a block of rows: lanes in
    order, each taking the bank of its oldest queued request that is free.

    A lane's oldest request to a bank in a set ``open`` sits in the first
    queue slot whose bank set meets ``open``. Every lane bids for its oldest
    bank that is free and no lower lane bids for; this repeats until no bid
    moves. Bids only move to younger requests, so this ends, and it ends at
    the lane-ordered scan's grants: once a lower lane bids for a bank, the
    lowest such bidder never gives it up, so a lane skips only banks a
    lower lane ends up holding.
    """
    rows, words, lanes = queued.shape[1:]
    index = (state.row_index[:rows, None, None], state.word_index, state.lane_index[:lanes])
    open_banks = free[:, :, None]
    while True:
        hits = queued & open_banks
        oldest = np.logical_or.reduce(hits, axis=2).argmax(axis=0)
        bid = hits[(oldest[:, None, :],) + index]
        below = np.bitwise_or.accumulate(bid, axis=-1)
        if not np.logical_or.reduce(bid[..., 1:] & below[..., :-1], axis=None):
            break
        open_banks = np.empty_like(bid)
        open_banks[..., :1] = free[:, :, None]
        np.bitwise_and(free[:, :, None], ~below[..., :-1], out=open_banks[..., 1:])
    granted |= bid
    free &= ~below[..., -1]


def _allocate_lockstep(
    state: _LockStepState,
    queued: np.ndarray,
    cands: np.ndarray,
    free: np.ndarray,
    sep_rows: int,
    greedy_rows: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One allocation pass for the first ``sep_rows`` separable and
    ``greedy_rows`` greedy rows: its grants' rows, lanes and bank bits.

    ``free`` (the banks no earlier grant of this cycle took) is updated in
    place.
    """
    granted = np.zeros(queued.shape[1:], dtype=np.uint64)
    ns = state.n_sep
    if sep_rows:
        lanes = state.sep_lanes[sep_rows]
        _separable_pass(
            state, cands[:, :sep_rows, :, :lanes], free[:sep_rows], granted[:sep_rows, :, :lanes]
        )
    if greedy_rows:
        lanes = state.greedy_lanes[greedy_rows]
        _greedy_pass(
            state,
            queued[:, ns : ns + greedy_rows, :, :lanes],
            free[ns : ns + greedy_rows],
            granted[ns : ns + greedy_rows, :, :lanes],
        )
    gvi, gli = np.logical_or.reduce(granted, axis=1).nonzero()
    return gvi, gli, granted[gvi, :, gli]


def _issue_lockstep(
    state: _LockStepState, queued: np.ndarray, cands: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every input-speedup pass of one cycle: per pass that granted, the
    grants' rows, lanes and queue slots.

    ``queued[k, v, :, lane]`` is the bank set of the request of the lane
    in queue slot ``k``, and ``cands[it, v, :, lane]`` the union of those
    below separable iteration ``it``'s age cutoff. A queued vector holds at
    most one request per lane, so these sets lose nothing the reference's
    per-lane candidate lists hold. A granted bank stays taken for the rest
    of the cycle and every later bid is cut to the free banks, so an issued
    request's bit is never read again: neither set needs updating between
    passes. A row that issues nothing in a pass issues nothing in the next
    (its bids would repeat), so each allocator's block of rows for the next
    pass ends at its last row that issued.
    """
    free = np.full((state.orig.size, state.words), ~np.uint64(0))
    issued = []
    sep_rows, greedy_rows = state.n_sep, state.orig.size - state.n_sep
    for p in range(state.passes):
        sep_rows = min(sep_rows, state.sep_rows[p])
        greedy_rows = min(greedy_rows, state.greedy_rows[p])
        if not (sep_rows or greedy_rows):
            break
        gvi, gli, gbits = _allocate_lockstep(state, queued, cands, free, sep_rows, greedy_rows)
        if not gvi.size:
            break
        # Per-lane priority encoder: the oldest queued request of the
        # granted lane to the granted bank.
        hits = np.logical_or.reduce(queued[:, gvi, :, gli] & gbits[:, None, :], axis=-1)
        issued.append((gvi, gli, hits.argmax(axis=1)))
        split = int(gvi.searchsorted(state.n_sep))
        sep_rows = int(gvi[split - 1]) + 1 if split else 0
        greedy_rows = int(gvi[-1]) + 1 - state.n_sep if split < gvi.size else 0
    return issued


def _simulate_scheduled_lockstep(
    variants: Sequence[SpMUVariant],
    preps: Sequence[_PreparedTrace],
    record_trace: bool,
    collect_issues: bool,
) -> List[SimResult]:
    """Lock-step simulation of unordered / address-ordered variants."""
    v_total = len(variants)
    state = _LockStepState(variants, preps)
    cycles_out = np.zeros(v_total, dtype=np.int64)
    stats_out: Dict[int, Tuple[int, int]] = {}
    completions: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
    trace_rows: List[np.ndarray] = []
    issue_chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    cycle = 0
    pos = np.arange(state.D)[None, :]
    uniform_latency: Optional[int] = (
        int(state.latency[0])
        if v_total and bool(np.all(state.latency == state.latency[0]))
        else None
    )
    live = int(state.active.sum())
    guard_cycle = int(state.max_cycles.max()) if v_total else 0
    while live:
        if cycle > guard_cycle:
            # Some active variant exceeded the largest convergence bound;
            # pinpointing which one is error-path work, so the exact
            # per-variant check only runs here.
            if (state.active & (cycle > state.max_cycles)).any():
                raise SimulationError("SpMU simulation did not converge")

        _refill_lockstep(state, pos)

        # The queued requests' bank sets, ``(slot, row, word, lane)``, over
        # the occupied slots only, and the separable rows' unions of them
        # below each iteration's age cutoff.
        slots = int(np.maximum.reduce(state.qn))
        validq = pos[:, :slots] < state.qn[:, None]
        qv = np.where(validq, state.qvec[:, :slots], state.empty_slot)
        queued = state.pend[state.v2.T, qv.T]
        cands = None
        if state.n_sep:
            sep_queued = queued[:, : state.n_sep]
            below_cut = (pos[0, :slots, None] < state.iter_cut[:, None, :])[..., None, None]
            cands = np.empty((state.max_it,) + sep_queued.shape[1:], dtype=np.uint64)
            for it in range(state.max_it):
                np.bitwise_or.reduce(
                    sep_queued, axis=0, where=below_cut[it], initial=0, out=cands[it]
                )

        issued = _issue_lockstep(state, queued, cands) if slots else []
        if record_trace:
            cycle_counts = np.zeros(state.orig.size, dtype=np.int64)
        if issued:
            gvi, gli, gdi = (
                issued[0] if len(issued) == 1 else map(np.concatenate, zip(*issued))
            )
            gvecs = state.qvec[gvi, gdi]
            state.pend[gvi, gvecs, :, gli] = 0
            if state.has_ao:
                # Every issued request was inserted when its vector entered,
                # so no removal underflows (the reference's never raises).
                state.counters -= np.bincount(
                    state.s01[state.ao_row[gvi], gvecs, gli].ravel(),
                    minlength=state.counters.size,
                )
            counts = np.bincount(gvi, minlength=state.orig.size)
            state.executed += counts
            if record_trace:
                cycle_counts = counts
            if uniform_latency is not None:
                completions.setdefault(cycle + uniform_latency, []).append(
                    (state.orig[gvi], gvecs)
                )
            else:
                complete_at = cycle + state.latency[gvi]
                for c in np.unique(complete_at):
                    sel = complete_at == c
                    completions.setdefault(int(c), []).append(
                        (state.orig[gvi[sel]], gvecs[sel])
                    )
            if collect_issues:
                # Same-cycle requests hit distinct banks, so their order is
                # immaterial; lane order per pass keeps it independent of
                # how the allocator stages found the grants.
                for rows, lanes, queue_slots in issued:
                    by_lane = np.argsort(lanes, kind="stable")
                    rows, lanes = rows[by_lane], lanes[by_lane]
                    issue_chunks.append(
                        (state.orig[rows], state.qvec[rows, queue_slots[by_lane]], lanes)
                    )

        if record_trace:
            full = np.zeros(v_total, dtype=np.int64)
            full[state.orig] = cycle_counts
            trace_rows.append(full)

        retired = completions.pop(cycle, None)
        if retired is not None:
            for orig_ids, vecs in retired:
                np.subtract.at(state.remaining, (orig_ids, vecs), 1)

        # Queue occupancy is unchanged since the refill, so ``qv`` still
        # describes it; a queue entry retires once all of its kept requests
        # completed (``remaining`` hits zero, i.e. no pending requests and
        # no in-flight completions; empty slots read the padding vector's
        # zero). Vector ids ascend along every queue, so sorting the kept
        # ones with empties last compacts it. A variant can only newly
        # finish on a cycle that retired an entry.
        kept = state.remaining[state.o2, qv] > 0
        queued_after = np.add.reduce(kept, axis=1)
        cycle += 1
        if np.logical_or.reduce(queued_after != state.qn):
            compacted = np.where(kept, qv, state.empty_slot)
            compacted.sort(axis=1)
            state.qvec[:, :slots] = compacted
            state.qn = queued_after

            finished = (
                state.active
                & (state.executed >= state.total)
                & (state.qn == 0)
                & (state.waiting >= state.nv)
            )
            if finished.any():
                cycles_out[state.orig[finished]] = cycle
                state.active &= ~finished
                live = int(state.active.sum())
                if live:
                    state.compact(stats_out)

    for j in range(state.orig.size):
        stats_out[state.orig[j]] = (int(state.executed[j]), int(state.stalls[j]))

    results: List[SimResult] = []
    trace_mat = np.array(trace_rows) if record_trace and trace_rows else None
    for i, (variant, prep) in enumerate(zip(variants, preps)):
        executed, stalls = stats_out[i]
        trace_arr = None
        if record_trace:
            cycles_i = int(cycles_out[i])
            if trace_mat is not None:
                trace_arr = trace_mat[:cycles_i, i].copy()
            else:
                trace_arr = np.zeros(0, dtype=np.int64)
        issue_vec = issue_lane = None
        if collect_issues:
            vec_parts = [vecs[orig_ids == i] for orig_ids, vecs, _ in issue_chunks]
            lane_parts = [lanes[orig_ids == i] for orig_ids, _, lanes in issue_chunks]
            issue_vec = (
                np.concatenate(vec_parts) if vec_parts else np.zeros(0, dtype=np.int64)
            )
            issue_lane = (
                np.concatenate(lane_parts) if lane_parts else np.zeros(0, dtype=np.int64)
            )
        results.append(
            SimResult(
                cycles=int(cycles_out[i]),
                requests=executed,
                elided_reads=prep.elided,
                bank_busy_cycles=executed,
                vectors=prep.n_vectors,
                stall_cycles_ordering=stalls,
                per_cycle_active_banks=trace_arr,
                issue_vectors=issue_vec,
                issue_lanes=issue_lane,
            )
        )
    return results


# --------------------------------------------------------------------------- #
# Public entry point
# --------------------------------------------------------------------------- #


def _prepared_pairs(variants: Iterable[SpMUVariant], traces: Iterable[object]):
    """Zip variants with prepared, validated traces lazily.

    Prepared traces are cached by trace identity (shared trace objects are
    prepared once); the trace object is kept alongside so a caller-side
    generator cannot recycle an id. Length mismatches raise.
    """
    prep_cache: Dict[int, Tuple[object, _PreparedTrace]] = {}
    variant_iter = iter(variants)
    trace_iter = iter(traces)
    sentinel = object()
    while True:
        variant = next(variant_iter, sentinel)
        trace = next(trace_iter, sentinel)
        if variant is sentinel and trace is sentinel:
            return
        if variant is sentinel or trace is sentinel:
            raise SimulationError("simulate_variants needs one trace per variant")
        cached = prep_cache.get(id(trace))
        if cached is None:
            cached = (trace, prepare_trace(trace))
            prep_cache[id(trace)] = cached
        _validate(variant, cached[1])
        yield variant, cached[1]


_Pair = Tuple[SpMUVariant, _PreparedTrace]


def _variant_footprint(pair: _Pair) -> int:
    """Rough lock-step working-set bytes one (variant, prepared trace) pair
    contributes.

    The dominant tensors are the pending requests' bank sets (one
    ``uint64`` word per 64 banks per request) and, each cycle, the gathered
    queue view of those sets plus one tensor of at most its size (the
    separable candidate unions or the greedy bids' hits); address-ordered
    variants add the Bloom slot tensor and, each cycle, the Bloom slots of
    the waiting vectors one refill tries (at most a queue's worth, and at
    most the trace). The estimate only
    needs to be proportionate -- the budget chunker sums it against the
    byte budget to cut chunks.
    """
    variant, prep = pair
    nv = max(prep.n_vectors, 1)
    w = max(prep.width, 1)
    depth = variant.config.queue_depth
    words = -(-variant.config.banks // 64)
    footprint = nv * w * 8 * words + nv * 4  # pending bank sets + remaining
    footprint += 2 * depth * w * 8 * words  # queue view + unions or hits
    if variant.ordering is OrderingMode.ADDRESS_ORDERED:
        footprint += nv * w * 16 + nv * 8  # Bloom slots + duplicate flags
        footprint += min(depth, nv) * w * 16  # Bloom slots of one refill's candidates
        footprint += variant.config.bloom_filter_entries * 4
    return max(footprint, 1024)


# --------------------------------------------------------------------------- #
# Fan-out: one lock-step batch as cost-balanced shares in forked processes
# --------------------------------------------------------------------------- #


#: Estimated lock-step cycles a share must carry to be worth a process.
#: Forking a share and pickling its results back costs ~4.4 ms (median of
#: 20, 2-core x86-64 Linux, Python 3.11, numpy and the search stack
#: imported); a lock-step cycle costs 130-215 us there plus ~27 us per live
#: variant, so a share of 500 variant-cycles (upwards of 20 ms) repays the
#: fork several times over.
_SHARE_MIN_CYCLES = 500

#: True in executor worker processes (see :func:`mark_executor_worker`).
_executor_worker = False


def mark_executor_worker() -> None:
    """Keep every lock-step batch of this process in-process.

    Called by executor worker entry points: their executor already runs
    one worker per core, so a worker that forked too would oversubscribe.
    """
    global _executor_worker
    _executor_worker = True


def _estimated_cycles(variant: SpMUVariant, prep: _PreparedTrace) -> int:
    """Lock-step cycles one variant should take: its requests spread evenly
    over its banks, and at least one cycle per vector."""
    return max(prep.n_vectors, -(-prep.total_kept // variant.config.banks))


def _share_count(costs: Sequence[int]) -> int:
    """How many processes a lock-step batch with these estimated per-variant
    cycles runs in (1: this process alone).

    A batch fans out only on facts this process can observe: more than one
    usable core, a single Python thread (forking a threaded process can
    copy a lock some other thread holds; this excludes serve and the
    executors' driver threads), not an executor worker (its executor
    already owns the cores), and at least :data:`_SHARE_MIN_CYCLES`
    estimated cycles for every share.
    """
    if _executor_worker or threading.active_count() != 1:
        return 1
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(cores, len(costs), sum(costs) // _SHARE_MIN_CYCLES))


#: Fixed per-cycle lock-step overhead, in variant-cycles: every cycle until
#: a share's longest variant finishes costs ~160 us, and each further live
#: variant adds only ~27 us (least-squares fits of time against longest and
#: total cycles over 40-60 batches of 1-48 random search-space variants,
#: 2-core x86-64 host; four fits gave ratios 4.5-7.6, median 6.3).
_CYCLE_OVERHEAD = 6


def _contiguous_shares(order: List[int], costs: Sequence[int], capacity: int) -> List[List[int]]:
    """Cut ``order`` greedily into runs whose modelled lock-step cost --
    ``_CYCLE_OVERHEAD`` x longest + total estimated cycles -- fits ``capacity``."""
    shares: List[List[int]] = [[]]
    longest = total = 0
    for i in order:
        longest, total = max(longest, costs[i]), total + costs[i]
        if shares[-1] and _CYCLE_OVERHEAD * longest + total > capacity:
            shares.append([])
            longest = total = costs[i]
        shares[-1].append(i)
    return shares


def _deal_shares(pairs: Sequence[_Pair]) -> List[List[int]]:
    """Split a lock-step batch into cost-balanced shares of pair indices.

    Variants are ordered by shape (lanes, banks, ordering) and cut into at
    most ``k`` contiguous runs with the smallest largest modelled cost. A
    share of like-shaped variants pads its tensors to a narrower lane
    extent (and, past 64 banks, fewer bank-set words), and an all-unordered
    share skips the Bloom-filter work, so a shape cut beats dealing
    variants to the least-loaded share by estimated cycles (240
    search-space projections in batches of 48 on 2 cores: 2.77 s dealt,
    2.51 s cut, medians of 3). Each share keeps input order.
    """
    costs = [_estimated_cycles(variant, prep) for variant, prep in pairs]
    k = _share_count(costs)
    if k == 1:
        return [list(range(len(pairs)))]
    order = sorted(
        range(len(pairs)),
        key=lambda i: (pairs[i][0].lanes, pairs[i][0].config.banks, pairs[i][0].ordering.value),
    )
    # Binary search for the smallest capacity the greedy cut meets in k runs.
    low = (_CYCLE_OVERHEAD + 1) * max(costs)
    high = _CYCLE_OVERHEAD * max(costs) + sum(costs)
    while low < high:
        middle = (low + high) // 2
        if len(_contiguous_shares(order, costs, middle)) <= k:
            high = middle
        else:
            low = middle + 1
    return [sorted(share) for share in _contiguous_shares(order, costs, low)]


def _fork_share(simulate: Callable[[List[int]], List[SimResult]], share: List[int]):
    """Run ``simulate(share)`` in a forked child; returns ``(pid, read fd)``.

    Fork, not spawn: the child starts with the imported package and the
    prepared traces already in memory, where a spawned interpreter would
    pay ~0.5 s of imports -- more than most batches cost. Forking is safe
    because :func:`_share_count` only fans out in a single-threaded
    process. The child pickles ``(True, results)`` or ``(False,
    exception)`` into the pipe and leaves with ``os._exit`` (no inherited
    atexit handlers or stdio buffers run twice).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, simulate(share)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 - an unpicklable exception
                error = SimulationError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _join_share(pid: int, read_fd: int) -> List[SimResult]:
    """Read a forked share's results and reap the child (killed first if the
    read fails); re-raise the child's error."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise SimulationError(f"lock-step share process {pid} died (wait status {status})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def _run_shares(
    simulate: Callable[[List[int]], List[SimResult]], shares: List[List[int]]
) -> List[List[SimResult]]:
    """``[simulate(share) for share in shares]``, all but the last forked
    (a single share runs in this process, with no fork).

    Any failure -- here or in a child -- kills and reaps every child not
    yet joined before it propagates, so no process outlives the batch (a
    child is only ever reaped here, so its pid cannot have been reused).
    """
    children: List[Tuple[int, int]] = []
    try:
        for share in shares[:-1]:
            children.append(_fork_share(simulate, share))
        last = simulate(shares[-1])
        out = []
        while children:
            out.append(_join_share(*children.pop(0)))
        out.append(last)
        return out
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _simulate_chunk(
    chunk: List[_Pair],
    record_trace: bool,
    collect_issues: bool,
    budget: Optional[int],
) -> List[SimResult]:
    """Simulate one chunk of (variant, prepared trace) pairs."""
    results: List[Optional[SimResult]] = [None] * len(chunk)
    scheduled: List[int] = []
    for i, (variant, prep) in enumerate(chunk):
        if variant.ordering is OrderingMode.ARBITRATED:
            results[i] = _simulate_arbitrated(variant, prep, record_trace, collect_issues)
        elif variant.ordering is OrderingMode.FULLY_ORDERED:
            results[i] = _simulate_fully_ordered(variant, prep, record_trace, collect_issues)
        else:
            scheduled.append(i)
    if not scheduled:
        return results  # type: ignore[return-value]
    # Unordered and address-ordered variants share one lock-step loop per
    # share: the per-cycle tensor work is dominated by fixed per-operation
    # overhead, so batching every queue-scheduled variant of a share into
    # a single loop amortizes it best (finished variants are compacted out
    # of the tail). The k shares together hold the chunk's budget.
    pairs = [chunk[i] for i in scheduled]
    shares = _deal_shares(pairs)
    share_budget = None if budget is None else max(budget // len(shares), 1)

    def simulate(share: List[int]) -> List[SimResult]:
        out: List[SimResult] = []
        for part in iter_chunks([pairs[i] for i in share], _variant_footprint, share_budget):
            out.extend(
                _simulate_scheduled_lockstep(
                    [variant for variant, _ in part],
                    [prep for _, prep in part],
                    record_trace,
                    collect_issues,
                )
            )
        return out

    for share, batch in zip(shares, _run_shares(simulate, shares)):
        for i, result in zip(share, batch):
            results[scheduled[i]] = result
    return results  # type: ignore[return-value]


def simulate_variants(
    variants: Iterable[SpMUVariant],
    traces: Iterable[object],
    *,
    record_trace: bool = False,
    collect_issues: bool = False,
) -> List[SimResult]:
    """Simulate one request trace per variant, batched across variants.

    Args:
        variants: The SpMU configuration points to simulate. Any iterable
            (including a generator) is accepted; it is consumed lazily.
        traces: One :class:`~repro.core.spmu.RequestTrace` per variant
            (typically shared between variants with equal lane counts --
            shared trace objects are prepared once).
        record_trace: Collect the per-cycle active-bank trace.
        collect_issues: Collect every request's ``(vector, lane)`` issue
            coordinates in issue order (what the SRAM image depends on).

    Under ``REPRO_MEMORY_BUDGET`` the variant grid streams through in
    chunks whose lock-step state (:func:`_variant_footprint`) fits the
    budget, with results bit-identical to one unchunked pass. A chunk that
    fans out over ``k`` processes gives each share ``budget // k``, so the
    shares together stay within the budget.

    Returns:
        One :class:`SimResult` per variant, stat-for-stat equal to the
        reference simulator on the same trace.
    """
    budget = resolve_memory_budget()
    results: List[SimResult] = []
    for chunk in iter_chunks(_prepared_pairs(variants, traces), _variant_footprint, budget):
        results.extend(_simulate_chunk(chunk, record_trace, collect_issues, budget))
    return results
