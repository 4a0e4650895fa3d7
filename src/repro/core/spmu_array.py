"""Array-based SpMU simulation engine (the batched microbenchmark backend).

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

The public entry point is :func:`simulate_variants`; the object-level
wrappers (``SparseMemoryUnit(backend="array")``,
:func:`~repro.core.spmu.effective_bank_throughput_batch`) live in
:mod:`repro.core.spmu`.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._budget import resolve_memory_budget
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
    """Raw result of one simulated variant (pre-:class:`SpMUStats`).

    Attributes:
        cycles / requests / elided_reads / bank_busy_cycles / vectors /
        stall_cycles_ordering: The reference loop's aggregate statistics.
        per_cycle_active_banks: Active-bank count per simulated cycle, or
            ``None`` unless the trace was recorded.
        issue_vectors / issue_lanes: The ``(vector, lane)`` coordinates of
            every executed request in issue order, or ``None`` unless issue
            collection was requested (used for functional execution).
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


class _LockStepState:
    """All per-variant state of the lock-step scheduled simulation.

    Row ``j`` of every array describes one still-running variant; finished
    variants are periodically compacted out so the tail of a heterogeneous
    grid does not pay tensor work for variants that already completed.
    ``orig`` maps rows back to positions in the caller's variant list.
    """

    def __init__(self, variants: Sequence[SpMUVariant], preps: Sequence[_PreparedTrace]):
        v_count = len(variants)
        self.NV = max((p.n_vectors for p in preps), default=0)
        self.W = max((p.width for p in preps), default=0)
        self.B = max(v.config.banks for v in variants)
        self.D = max(v.config.queue_depth for v in variants)
        nv_pad = max(self.NV, 1)
        w_pad = max(self.W, 1)

        self.pend = np.full((v_count, nv_pad, w_pad), -1, dtype=np.int16)
        # Per (variant, vector): kept requests not yet *retired* (pending in
        # the queue or in flight through the pipeline). Issues leave it
        # unchanged -- only completions decrement -- so a vector's queue
        # slot frees exactly when its count reaches zero, which matches the
        # reference's "no pending and no outstanding" retirement test.
        self.remaining = np.zeros((v_count, nv_pad), dtype=np.int32)
        for j, (variant, prep) in enumerate(zip(variants, preps)):
            if prep.n_vectors and prep.width:
                bank = prep.bank_mat(variant.bank_mapping, variant.config.banks)
                self.pend[j, : prep.n_vectors, : prep.width] = bank
            self.remaining[j, : prep.n_vectors] = prep.kept_counts

        self.qvec = np.full((v_count, self.D), -1, dtype=np.int64)
        self.qn = np.zeros(v_count, dtype=np.int64)
        self.waiting = np.zeros(v_count, dtype=np.int64)
        self.nv = np.array([p.n_vectors for p in preps], dtype=np.int64)
        self.total = np.array([p.total_kept for p in preps], dtype=np.int64)
        self.executed = np.zeros(v_count, dtype=np.int64)
        self.stalls = np.zeros(v_count, dtype=np.int64)
        self.depth = np.array([v.config.queue_depth for v in variants], dtype=np.int64)
        self.ipl = np.array(
            [max(1, v.config.crossbar_inputs // v.lanes) for v in variants], dtype=np.int64
        )
        self.latency = np.array([max(1, v.pipeline_latency) for v in variants], dtype=np.int64)
        self.sep = np.array([v.allocator_kind == "separable" for v in variants], dtype=bool)
        self.iters = np.array(
            [v.config.allocator_iterations if v.allocator_kind == "separable" else 0
             for v in variants],
            dtype=np.int64,
        )
        self.max_it = int(self.iters.max()) if self.sep.any() else 0
        self.cutoffs = np.full((v_count, max(self.max_it, 1)), -1, dtype=np.int64)
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
        self.orig = np.arange(v_count)
        self.row_of = np.arange(v_count)
        self.v2 = np.arange(v_count)[:, None]
        # Static per-pass facts, hoisted so the cycle loop avoids per-cycle
        # reductions: which input-speedup passes have separable / greedy
        # bidders at all, and the eligibility mask per pass.
        self._derive_pass_tables()

        # Address-ordered state: one Bloom counter row per AO variant plus a
        # sentinel column that padded (non-kept) lane slots alias so batched
        # inserts and membership checks need no masking.
        ao_idx = [j for j, v in enumerate(variants) if v.ordering is OrderingMode.ADDRESS_ORDERED]
        self.has_ao = bool(ao_idx)
        self.ao_row = np.full(v_count, -1, dtype=np.int64)
        self.ao_row[ao_idx] = np.arange(len(ao_idx))
        self.entries_max = max(
            (variants[j].config.bloom_filter_entries for j in ao_idx), default=1
        )
        self.counters = np.zeros((max(len(ao_idx), 1), self.entries_max + 1), dtype=np.int32)
        #: Both Bloom slots per (AO variant, vector, lane), stacked on the
        #: last axis; padded (non-kept) entries alias the sentinel column.
        self.s01 = np.full(
            (max(len(ao_idx), 1), nv_pad, w_pad, 2), self.entries_max, dtype=np.int64
        )
        self.ao_dup = np.zeros((max(len(ao_idx), 1), nv_pad), dtype=np.int64)
        for row, j in enumerate(ao_idx):
            prep = preps[j]
            entries = variants[j].config.bloom_filter_entries
            if prep.n_vectors and prep.width:
                kv, kl = np.nonzero(prep.kept)
                addr = prep.addr_mat[kv, kl]
                self.s01[row, kv, kl, 0] = _bloom_slots(addr, entries, 0)
                self.s01[row, kv, kl, 1] = _bloom_slots(addr, entries, 1)
            self.ao_dup[row, : prep.n_vectors] = prep.has_dup.astype(np.int64)

    def compact(self, results_cycles, results_stats):
        """Drop finished rows, flushing their accumulated statistics."""
        keep = np.nonzero(self.active)[0]
        dropped = np.nonzero(~self.active)[0]
        for j in dropped:
            results_stats[self.orig[j]] = (int(self.executed[j]), int(self.stalls[j]))
        for name in (
            "pend", "remaining", "qvec", "qn", "waiting", "nv", "total",
            "executed", "stalls", "depth", "ipl", "latency", "sep", "iters", "cutoffs",
            "max_cycles", "active", "orig", "ao_row",
        ):
            setattr(self, name, getattr(self, name)[keep])
        self.row_of = np.full(self.row_of.size, -1, dtype=np.int64)
        self.row_of[self.orig] = np.arange(keep.size)
        self.v2 = np.arange(keep.size)[:, None]
        self._derive_pass_tables()

    def _derive_pass_tables(self) -> None:
        """Precompute static per-pass / per-iteration allocator tables.

        A row that is inactive (or whose queue is empty) bids for nothing,
        so pass 0 needs no runtime row mask at all: its separable cutoffs
        and greedy row set are fixed at construction. Later input-speedup
        passes still mask rows by their crossbar's ``issues_per_lane``.
        """
        ipl_max = int(self.ipl.max()) if self.ipl.size else 1
        self.pass_eligible = [self.ipl > p for p in range(ipl_max)]
        self.pass_has_sep = [bool((self.sep & (self.ipl > p)).any()) for p in range(ipl_max)]
        self.pass_has_greedy = [
            bool((~self.sep & (self.ipl > p)).any()) for p in range(ipl_max)
        ]
        max_it = self.max_it
        self.iter_eligible = [self.sep & (it < self.iters) for it in range(max_it)]
        #: Pass-0 separable cutoff columns, fully precomputed (-1 disables).
        self.iter_cut0 = [
            np.where(self.iter_eligible[it], self.cutoffs[:, it], -1) for it in range(max_it)
        ]
        #: Pass-0 greedy row set, fully precomputed.
        self.greedy_rows0 = np.nonzero(~self.sep)[0]


def _refill_lockstep(state: _LockStepState, pos: np.ndarray) -> None:
    """One cycle's queue-refill stage, vectorized across variants.

    Mirrors the reference ``_refill_queue``. Unordered variants accept
    unconditionally, so their whole refill (consecutive vector ids into
    consecutive queue slots) lands in one scatter. Address-ordered
    variants go attempt by attempt: each pays the intra-vector-duplicate
    split stall on every attempt and stops for the cycle on a Bloom-filter
    hit, with the accepted vector's addresses inserted before the next
    attempt so an in-cycle follow-up sees them.
    """
    can = state.active & (state.waiting < state.nv) & (state.qn < state.depth)
    if state.has_ao:
        plain = can & (state.ao_row < 0)
    else:
        plain = can
    if plain.any():
        accept = np.where(
            plain, np.minimum(state.depth - state.qn, state.nv - state.waiting), 0
        )
        write = (pos >= state.qn[:, None]) & (pos < (state.qn + accept)[:, None])
        state.qvec[write] = (state.waiting[:, None] + pos - state.qn[:, None])[write]
        state.qn += accept
        state.waiting += accept
    if not state.has_ao:
        return
    open_mask = can & (state.ao_row >= 0)
    while open_mask.any():
        idx = np.nonzero(open_mask)[0]
        arows = state.ao_row[idx]
        aw = state.waiting[idx]
        state.stalls[idx] += state.ao_dup[arows, aw]
        s01 = state.s01[arows, aw]
        flags = state.counters[arows[:, None, None], s01] > 0
        may = flags.all(axis=2).any(axis=1)
        state.stalls[idx[may]] += 1
        acc = idx[~may]
        if acc.size:
            acc_rows = arows[~may]
            rep = np.repeat(acc_rows, 2 * s01.shape[1])
            np.add.at(state.counters, (rep, s01[~may].reshape(acc.size, -1).ravel()), 1)
            state.counters[:, state.entries_max] = 0
            state.qvec[acc, state.qn[acc]] = state.waiting[acc]
            state.qn[acc] += 1
            state.waiting[acc] += 1
        open_mask[idx[may]] = False
        open_mask &= (state.waiting < state.nv) & (state.qn < state.depth)


#: Sentinel queue position marking "no pending request" in the min-age
#: tensor; larger than any real position or age cutoff.
_NO_POS = 1 << 20


def _allocate_shallow(
    state: _LockStepState, vb: np.ndarray, pass_row: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Allocation fast path when no variant queues more than one vector.

    With at most one age-0 candidate per lane, both allocators reduce to
    "each bank accepts its lowest bidding lane": the separable stage-1
    pick is the lane's only bank, stage 2 keeps the lowest lane, and later
    iterations cannot add grants because a losing lane's only bank is
    already taken; the greedy lane scan makes the same choices. This state
    dominates address-ordered runs, where the Bloom filter admits vectors
    one at a time.
    """
    v_rows, _, lanes_dim = vb.shape
    empty = np.zeros(0, dtype=np.int64)
    head = vb[:, 0, :]
    valid = (head >= 0) & pass_row[:, None]
    if not valid.any():
        return empty, empty, empty
    valid &= ~taken[np.arange(v_rows)[:, None], np.where(head >= 0, head, 0)]
    vi, li = np.nonzero(valid)
    if not vi.size:
        return empty, empty, empty
    winner = np.full((v_rows, state.B), lanes_dim, dtype=np.int64)
    np.minimum.at(winner, (vi, head[vi, li]), li)
    gvi, gbi = np.nonzero(winner < lanes_dim)
    gli = winner[gvi, gbi]
    taken[gvi, gbi] = True
    return gvi, gli, gbi


def _min_position_tensor(state: _LockStepState, vb: np.ndarray) -> np.ndarray:
    """``P[v, lane, bank]`` = oldest queue position bidding that pair.

    A queued vector holds at most one request per lane, so per (lane,
    bank) the candidate ages within one variant are distinct queue
    positions and the minimum identifies the reference's
    ``_oldest_request_for`` choice directly.
    """
    v_rows, _, lanes_dim = vb.shape
    min_pos = np.full((v_rows, lanes_dim, state.B), _NO_POS, dtype=np.int32)
    vi, di, li = np.nonzero(vb >= 0)
    if vi.size:
        np.minimum.at(min_pos, (vi, li, vb[vi, di, li]), di)
    return min_pos


def _allocate_lockstep(
    state: _LockStepState,
    min_pos: np.ndarray,
    pass_index: int,
    pass_row: np.ndarray,
    taken: np.ndarray,
    has_sep: bool,
    has_greedy: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One allocation pass for every variant; returns per-lane grant banks.

    Separable variants run their configured number of two-stage iterations
    with per-iteration age cutoffs; greedy variants scan lanes in order
    granting each lane its oldest pending bank that is still free. Both
    operate on the ``(variant, lane, bank)`` min-age tensor: a pair is an
    eligible allocator input iff its oldest bidder is younger than the
    iteration's cutoff (separable) or exists at all (greedy).
    """
    v_rows, lanes_dim, _ = min_pos.shape
    grants: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    if has_sep:
        lane_done = np.zeros((v_rows, lanes_dim), dtype=bool)
        for it in range(state.max_it):
            if pass_index == 0:
                cut = state.iter_cut0[it]
            else:
                cut = np.where(
                    pass_row & state.iter_eligible[it], state.cutoffs[:, it], -1
                )
            matrix = min_pos < cut[:, None, None]
            matrix &= ~taken[:, None, :]
            if it:
                matrix &= ~lane_done[:, :, None]
            rows_any = matrix.any(axis=-1)
            rvi, rli = np.nonzero(rows_any)
            if not rvi.size:
                continue
            choice = matrix[rvi, rli].argmax(axis=-1)
            winner = np.full((v_rows, state.B), lanes_dim, dtype=np.int64)
            np.minimum.at(winner, (rvi, choice), rli)
            gvi, gbi = np.nonzero(winner < lanes_dim)
            gli = winner[gvi, gbi]
            lane_done[gvi, gli] = True
            taken[gvi, gbi] = True
            grants.append((gvi, gli, gbi))

    if has_greedy:
        # The reference greedy allocator walks lanes in order (lower lanes
        # win), so the scan is sequential over lanes -- but each lane's
        # pick is one masked argmin over its per-bank oldest bidders,
        # computed on the greedy rows only. Granted banks are invalidated
        # in the working tensor instead of re-masking every lane.
        if pass_index == 0:
            rows_all = state.greedy_rows0
        else:
            rows_all = np.nonzero(pass_row & ~state.sep)[0]
        masked = np.where(taken[rows_all][:, None, :], _NO_POS, min_pos[rows_all])
        live_lanes = np.nonzero((masked < _NO_POS).any(axis=(0, 2)))[0].tolist()
        seq = np.arange(rows_all.size)
        locals_: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for lane in live_lanes:
            row = masked[:, lane, :]
            banks = row.argmin(axis=1)
            rows = np.nonzero(row[seq, banks] < _NO_POS)[0]
            if rows.size:
                won = banks[rows]
                masked[rows, :, won] = _NO_POS
                locals_.append((lane, rows, won))
        if locals_:
            g_rows = np.concatenate([entry[1] for entry in locals_])
            g_banks = np.concatenate([entry[2] for entry in locals_])
            g_lanes = np.repeat(
                np.array([entry[0] for entry in locals_], dtype=np.int64),
                [entry[1].size for entry in locals_],
            )
            g_rows = rows_all[g_rows]
            taken[g_rows, g_banks] = True
            grants.append((g_rows, g_lanes, g_banks))
    if not grants:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if len(grants) == 1:
        return grants[0]
    return (
        np.concatenate([g[0] for g in grants]),
        np.concatenate([g[1] for g in grants]),
        np.concatenate([g[2] for g in grants]),
    )


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

        v_rows = state.orig.size
        v2 = state.v2
        validq = pos < state.qn[:, None]
        qv = np.where(validq, state.qvec, 0)
        vb = state.pend[v2, qv]
        vb[~validq] = -1

        taken = np.zeros((v_rows, state.B), dtype=bool)
        if record_trace:
            cycle_counts = np.zeros(v_rows, dtype=np.int64)
        shallow = bool(state.qn.max(initial=0) <= 1)
        min_pos = None if shallow else _min_position_tensor(state, vb)
        for p in range(len(state.pass_eligible)):
            pass_row = state.active if p == 0 else state.active & state.pass_eligible[p]
            if shallow:
                gvi, gli, gbi = _allocate_shallow(state, vb, pass_row, taken)
            else:
                gvi, gli, gbi = _allocate_lockstep(
                    state, min_pos, p, pass_row, taken,
                    state.pass_has_sep[p], state.pass_has_greedy[p],
                )
            if not gvi.size:
                break
            if shallow:
                gdi = np.zeros(gvi.size, dtype=np.int64)
            else:
                gdi = min_pos[gvi, gli, gbi]
            gvecs = state.qvec[gvi, gdi]

            if state.has_ao:
                ao_sel = state.ao_row[gvi] >= 0
                if ao_sel.any():
                    arows = state.ao_row[gvi[ao_sel]]
                    av = gvecs[ao_sel]
                    al = gli[ao_sel]
                    s01 = state.s01[arows, av, al]
                    ok = (state.counters[arows[:, None], s01] > 0).all(axis=1)
                    np.subtract.at(
                        state.counters, (np.repeat(arows[ok], 2), s01[ok].ravel()), 1
                    )

            state.pend[gvi, gvecs, gli] = -1
            vb[gvi, gdi, gli] = -1
            if not shallow and p + 1 < len(state.pass_eligible):
                # Keep the min-age tensor valid for the next input-speedup
                # pass: only the issued (lane, bank) pairs can change, and
                # their new oldest bidder is re-derived from the gathered
                # pending-bank columns.
                cols = vb[gvi, :, gli]
                min_pos[gvi, gli, gbi] = np.where(
                    cols == gbi[:, None], pos, _NO_POS
                ).min(axis=1)
            counts = np.bincount(gvi, minlength=v_rows)
            state.executed += counts
            if record_trace:
                cycle_counts += counts
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
                # immaterial -- but the allocation path (shallow or not) a
                # batch takes would leak into it; lane order per pass keeps
                # a variant's issue order independent of its batch-mates.
                by_lane = np.argsort(gli, kind="stable")
                issue_chunks.append((state.orig[gvi[by_lane]], gvecs[by_lane], gli[by_lane]))

        if record_trace:
            full = np.zeros(v_total, dtype=np.int64)
            full[state.orig] = cycle_counts
            trace_rows.append(full)

        retired = completions.pop(cycle, None)
        if retired is not None:
            for orig_ids, vecs in retired:
                rows = state.row_of[orig_ids]
                np.subtract.at(state.remaining, (rows, vecs), 1)

        # Queue occupancy is unchanged since the refill, so the gathered
        # (validq, qv) still describe it; a queue entry retires once all of
        # its kept requests completed (``remaining`` hits zero, i.e. no
        # pending requests and no in-flight completions). A variant can
        # only newly finish on a cycle that retired an entry.
        remove = validq & (state.remaining[v2, qv] == 0)
        cycle += 1
        if remove.any():
            keep_q = validq & ~remove
            order = np.argsort(~keep_q, axis=1, kind="stable")
            state.qvec = state.qvec[v2, order]
            state.qn = keep_q.sum(axis=1).astype(np.int64)

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
                if live and live <= state.orig.size // 2 and state.orig.size > 4:
                    state.compact(cycles_out, stats_out)

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


def _variant_footprint(variant: SpMUVariant, prep: _PreparedTrace) -> int:
    """Rough lock-step working-set bytes one variant contributes.

    The dominant tensors are the pending-bank matrix, the gathered queue
    view, and the per-pass (lane, bank) min-age tensor; address-ordered
    variants add the Bloom slot tensor. The estimate only needs to be
    proportionate -- the budget planner divides it into the byte budget to
    size chunks.
    """
    nv = max(prep.n_vectors, 1)
    w = max(prep.width, 1)
    depth = variant.config.queue_depth
    banks = variant.config.banks
    footprint = nv * w * 2 + nv * 4  # pend row + remaining
    footprint += depth * w * 4  # gathered queue view + masks
    footprint += w * banks * 6  # min-age tensor + allocator matrices
    if variant.ordering is OrderingMode.ADDRESS_ORDERED:
        footprint += nv * w * 16 + nv * 8  # Bloom slots + duplicate flags
        footprint += variant.config.bloom_filter_entries * 4
    return max(footprint, 1024)


_Pair = Tuple[SpMUVariant, _PreparedTrace]


def _budget_chunks(pairs: Iterable[_Pair], budget: Optional[int]) -> Iterator[List[_Pair]]:
    """Group pairs, in order, into chunks whose footprints fit ``budget``."""
    chunk: List[_Pair] = []
    chunk_bytes = 0
    for variant, prep in pairs:
        footprint = _variant_footprint(variant, prep)
        if chunk and budget is not None and chunk_bytes + footprint > budget:
            yield chunk
            chunk = []
            chunk_bytes = 0
        chunk.append((variant, prep))
        chunk_bytes += footprint
    if chunk:
        yield chunk


# --------------------------------------------------------------------------- #
# Fan-out: one lock-step batch as cost-balanced shares in forked processes
# --------------------------------------------------------------------------- #


#: Estimated lock-step cycles a share must carry to be worth a process.
#: Forking a share and pickling its results back costs ~4.4 ms (median of
#: 20, 2-core x86-64 Linux, Python 3.11, numpy and the search stack
#: imported); one variant's lock-step cycle costs 100-250 us there, so a
#: share of 500 variant-cycles (~0.1 s) repays the fork some 20 times over.
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
    executors' thread pools), not a multiprocessing child or an executor
    worker (their executor already owns the cores), and at least
    :data:`_SHARE_MIN_CYCLES` estimated cycles for every share.
    """
    if _executor_worker or threading.active_count() != 1:
        return 1
    # A multiprocessing child has the module loaded (it bootstrapped it);
    # a process that never imported it cannot be one.
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return 1
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(cores, len(costs), sum(costs) // _SHARE_MIN_CYCLES))


#: Fixed per-cycle lock-step overhead, in variant-cycles: every cycle until
#: a share's longest variant finishes costs ~140 us for the first variant,
#: and each further live variant adds only 30-60 us (2-core x86-64 host).
_CYCLE_OVERHEAD = 3


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
    share of like-shaped variants pads its tensors to a narrower lane x
    bank extent, and an all-unordered share skips the Bloom-filter work, so
    a shape cut beats dealing variants round-robin by estimated cycles
    (240 search-space projections in batches of 48 on 2 cores: 3.3 s dealt,
    2.9 s cut, medians of 4). Each share keeps input order.
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
        for part in _budget_chunks([pairs[i] for i in share], share_budget):
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
    memory_budget: Union[int, str, None] = None,
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
            coordinates in issue order (needed for functional execution).
        memory_budget: Byte budget bounding the lock-step state; the
            variant grid is streamed through in budget-sized chunks whose
            results are bit-identical to one unchunked pass. A chunk that
            fans out over ``k`` processes gives each share ``budget / k``,
            so the shares together stay within the budget. ``None``
            defers to ``REPRO_MEMORY_BUDGET``.

    Returns:
        One :class:`SimResult` per variant, stat-for-stat equal to the
        reference simulator on the same trace.
    """
    budget = resolve_memory_budget(memory_budget)
    results: List[SimResult] = []
    for chunk in _budget_chunks(_prepared_pairs(variants, traces), budget):
        results.extend(_simulate_chunk(chunk, record_trace, collect_issues, budget))
    return results
