"""The Sparse Memory Unit (SpMU) with its reordering pipeline (Section 3.1).

Dense RDA memories use a fixed, conflict-free lane-to-bank mapping. Sparse
programs generate random mappings where several lanes may target the same
bank in one cycle; an arbitrated memory must then serialize the vector over
multiple cycles. Capstan's SpMU instead buffers ``d`` request vectors in an
issue queue and *schedules* accesses over multiple cycles: every pending
request bids for its bank, a separable allocator picks a conflict-free set
(at most one per lane and per bank), and an inverse-permutation crossbar
restores positional order when the whole vector has completed.

The random-access microbenchmark (bank utilization under different queue
depths, crossbar sizes, priority counts, and ordering modes) is measured
through one path, :func:`effective_bank_throughput_batch`: memoized,
persisted, and simulated by the lock-step engine of
:mod:`repro.core.spmu_array`. It feeds Table 4, Tables 9-10, Figure 4 and
the application timing model.

:class:`SparseMemoryUnit` is the per-cycle reference simulator that engine
is checked against: an object loop over request vectors that also executes
every request functionally (the RMW FPU semantics of step 3 in Figure 3b),
so its SRAM image is observable. :func:`measure_bank_utilization` is its
scalar microbenchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SpMUConfig
from ..errors import SimulationError
from .allocator import make_allocator
from .bank_hash import get_bank_mapper
from .bloom import BloomFilter
from .ordering import OrderingMode
from .spmu_array import (
    OP_ADD,
    OP_OTHER_BASE,
    OP_READ,
    OP_SUB,
    SpMUVariant,
    _input_speedup,
    simulate_variants,
)


class RMWOp(Enum):
    """Read-modify-write operations supported by the per-bank FPU.

    The execution unit has separately configurable result muxes for the
    returned value and the updated memory value, which is what enables
    operations like ``min-report-changed`` (SSSP) and ``write-if-zero``
    (BFS back-pointers).
    """

    READ = "read"
    WRITE = "write"
    ADD = "add"
    SUB = "sub"
    MIN_REPORT_CHANGED = "min-report-changed"
    MAX = "max"
    SWAP = "swap"
    TEST_AND_SET = "test-and-set"
    WRITE_IF_ZERO = "write-if-zero"
    BIT_OR = "bit-or"
    BIT_AND = "bit-and"

    @property
    def is_read_only(self) -> bool:
        """Whether the operation never modifies memory."""
        return self is RMWOp.READ


@dataclass
class MemoryRequest:
    """One lane's access within a request vector.

    Attributes:
        address: Word address within the SpMU's local address space.
        op: The read-modify-write operation to perform.
        value: Operand for the FPU (ignored for plain reads).
        lane: Originating SIMD lane (0..lanes-1).
    """

    address: int
    op: RMWOp = RMWOp.READ
    value: float = 0.0
    lane: int = 0


@dataclass
class RequestResult:
    """Functional result of one executed request."""

    address: int
    returned: float
    changed: bool


#: RMWOp <-> integer code tables for array request traces. READ/ADD/SUB get
#: the engine's reserved fast-path codes; the remaining ops are assigned
#: stable codes in declaration order.
_OP_TO_CODE: Dict[RMWOp, int] = {RMWOp.READ: OP_READ, RMWOp.ADD: OP_ADD, RMWOp.SUB: OP_SUB}
for _op in RMWOp:
    if _op not in _OP_TO_CODE:
        _OP_TO_CODE[_op] = OP_OTHER_BASE + len(_OP_TO_CODE) - 3
_CODE_TO_OP: Dict[int, RMWOp] = {code: op for op, code in _OP_TO_CODE.items()}


@dataclass
class RequestTrace:
    """A request-vector stream as flat numpy arrays (one row per request).

    This is the lock-step engine's native trace representation: instead of a
    ``List[List[MemoryRequest]]`` it stores one entry per lane request,
    sorted by ``(vector, lane)``. ``lanes`` holds each request's position
    within its vector (the lane the reference pipeline would assign), and
    ``n_vectors`` counts all vectors including empty ones.

    Attributes:
        addresses: Word addresses, shape ``(n,)``.
        ops: Integer RMW op codes (see ``RMWOp`` <-> code tables).
        values: FPU operands.
        lanes: Lane index of each request within its vector.
        vector_ids: Owning vector of each request (non-decreasing).
        n_vectors: Total number of vectors in the stream.
    """

    addresses: np.ndarray
    ops: np.ndarray
    values: np.ndarray
    lanes: np.ndarray
    vector_ids: np.ndarray
    n_vectors: int

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[MemoryRequest]]) -> "RequestTrace":
        """Flatten an object-based request stream into trace arrays."""
        addresses: List[int] = []
        ops: List[int] = []
        values: List[float] = []
        lanes: List[int] = []
        vector_ids: List[int] = []
        for vector_id, vector in enumerate(vectors):
            for lane, request in enumerate(vector):
                addresses.append(request.address)
                ops.append(_OP_TO_CODE[request.op])
                values.append(request.value)
                lanes.append(lane)
                vector_ids.append(vector_id)
        return cls(
            addresses=np.array(addresses, dtype=np.int64),
            ops=np.array(ops, dtype=np.int16),
            values=np.array(values, dtype=np.float64),
            lanes=np.array(lanes, dtype=np.int64),
            vector_ids=np.array(vector_ids, dtype=np.int64),
            n_vectors=len(vectors),
        )

    def to_vectors(self) -> List[List[MemoryRequest]]:
        """Rebuild the object-based stream (for :class:`SparseMemoryUnit`)."""
        vectors: List[List[MemoryRequest]] = [[] for _ in range(self.n_vectors)]
        for address, op, value, lane, vector_id in zip(
            self.addresses, self.ops, self.values, self.lanes, self.vector_ids
        ):
            vectors[int(vector_id)].append(
                MemoryRequest(
                    address=int(address),
                    op=_CODE_TO_OP[int(op)],
                    value=float(value),
                    lane=int(lane),
                )
            )
        return vectors

    def __len__(self) -> int:
        return int(self.addresses.size)


@dataclass
class SpMUStats:
    """Timing statistics for one SpMU simulation run.

    Attributes:
        cycles: Total cycles from the first issue opportunity until the
            last request completed.
        requests: Requests executed (after repeated-read elision).
        elided_reads: Duplicate read requests squashed at enqueue.
        bank_busy_cycles: Sum over cycles of banks performing an access.
        vectors: Request vectors processed.
        stall_cycles_ordering: Cycles the enqueue stage stalled for ordering
            (Bloom-filter conflicts or in-order constraints).
        per_cycle_active_banks: Active-bank count for every simulated cycle
            as an int64 array, or ``None`` unless the unit was built with
            ``record_trace=True`` -- long traces would otherwise pay
            unbounded per-cycle append memory just to compute aggregate
            utilization, which ``bank_busy_cycles`` already determines
            exactly.
    """

    cycles: int = 0
    requests: int = 0
    elided_reads: int = 0
    bank_busy_cycles: int = 0
    vectors: int = 0
    stall_cycles_ordering: int = 0
    per_cycle_active_banks: Optional[np.ndarray] = None

    @property
    def bank_utilization(self) -> float:
        """Fraction of bank-cycles doing useful work (Table 4's metric)."""
        if self.cycles == 0:
            return 0.0
        return self.bank_busy_cycles / (self.cycles * _BANKS_FOR_UTILIZATION(self))


def _BANKS_FOR_UTILIZATION(stats: "SpMUStats") -> int:
    """Bank count recorded at simulation time (stashed on the stats object)."""
    return getattr(stats, "_banks", 16)


@dataclass
class _QueueEntry:
    """One vector resident in the issue queue."""

    vector_id: int
    # Per-lane list of pending (request, request_index) pairs; a lane may hold
    # requests from this vector only (one vector occupies one queue slot).
    pending: Dict[int, List[Tuple[MemoryRequest, int]]]
    outstanding: int
    enqueue_cycle: int


class SparseMemoryUnit:
    """Cycle-level model of one SpMU: issue queue, allocator, banks, FPUs.

    The reference simulator: the lock-step engine
    (:func:`~repro.core.spmu_array.simulate_variants`) must match it stat
    for stat, and the product never runs it.

    Args:
        config: Structural parameters (banks, queue depth, crossbar inputs,
            allocator iterations/priorities, Bloom filter size).
        lanes: SIMD lanes feeding the unit.
        ordering: Memory ordering mode (Table 3) or the arbitrated baseline.
        bank_mapping: ``"hash"`` (XOR-folded, Capstan) or ``"linear"``.
        allocator_kind: ``"separable"`` (Capstan) or ``"greedy"`` (weak).
        pipeline_latency: Cycles between issue and completion (crossbar,
            SRAM read, FPU, write-back, output crossbar).
        record_trace: Collect :attr:`SpMUStats.per_cycle_active_banks`
            (off by default -- the trace grows one entry per simulated
            cycle).
    """

    def __init__(
        self,
        config: Optional[SpMUConfig] = None,
        lanes: int = 16,
        ordering: OrderingMode = OrderingMode.UNORDERED,
        bank_mapping: str = "hash",
        allocator_kind: str = "separable",
        pipeline_latency: int = 3,
        record_trace: bool = False,
    ):
        self._config = config or SpMUConfig()
        self._config.validate()
        self._lanes = lanes
        self._ordering = ordering
        self._bank_mapper = get_bank_mapper(bank_mapping)
        self._record_trace = record_trace
        self._pipeline_latency = max(1, pipeline_latency)
        self._issues_per_lane = max(1, self._config.crossbar_inputs // lanes)
        self._allocator = make_allocator(
            allocator_kind,
            lanes=lanes,
            banks=self._config.banks,
            iterations=self._config.allocator_iterations,
            priorities=self._config.allocator_priorities,
            queue_depth=self._config.queue_depth,
        )
        self._bloom = BloomFilter(self._config.bloom_filter_entries)
        self._words = self._config.banks * self._config.words_per_bank
        self._data = np.zeros(self._words, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Functional interface
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> SpMUConfig:
        """The unit's structural configuration."""
        return self._config

    @property
    def ordering(self) -> OrderingMode:
        """The configured memory ordering mode."""
        return self._ordering

    @property
    def capacity_words(self) -> int:
        """Number of addressable 32-bit words."""
        return self._words

    def load_data(self, base: int, values: np.ndarray) -> None:
        """Initialise ``len(values)`` words starting at ``base``."""
        values = np.asarray(values, dtype=np.float64)
        if base < 0 or base + values.size > self._words:
            raise SimulationError("load_data outside SpMU capacity")
        self._data[base : base + values.size] = values

    def read_data(self, base: int, count: int) -> np.ndarray:
        """Read ``count`` words starting at ``base`` (debug/verification)."""
        if base < 0 or base + count > self._words:
            raise SimulationError("read_data outside SpMU capacity")
        return self._data[base : base + count].copy()

    def execute_request(self, request: MemoryRequest) -> RequestResult:
        """Functionally execute one request against the local SRAM."""
        address = request.address
        if address < 0 or address >= self._words:
            raise SimulationError(f"address {address} outside SpMU capacity")
        old = float(self._data[address])
        op = request.op
        value = request.value
        returned = old
        new = old
        changed = False
        if op is RMWOp.READ:
            pass
        elif op is RMWOp.WRITE:
            new = value
            changed = new != old
        elif op is RMWOp.ADD:
            new = old + value
            returned = new
            changed = value != 0.0
        elif op is RMWOp.SUB:
            new = old - value
            returned = new
            changed = value != 0.0
        elif op is RMWOp.MIN_REPORT_CHANGED:
            new = min(old, value)
            changed = new != old
            returned = 1.0 if changed else 0.0
        elif op is RMWOp.MAX:
            new = max(old, value)
            changed = new != old
            returned = new
        elif op is RMWOp.SWAP:
            new = value
            returned = old
            changed = new != old
        elif op is RMWOp.TEST_AND_SET:
            new = 1.0
            returned = old
            changed = old == 0.0
        elif op is RMWOp.WRITE_IF_ZERO:
            if old == 0.0:
                new = value
                changed = True
            returned = old
        elif op is RMWOp.BIT_OR:
            new = float(int(old) | int(value))
            returned = new
            changed = new != old
        elif op is RMWOp.BIT_AND:
            new = float(int(old) & int(value))
            returned = new
            changed = new != old
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unsupported RMW op {op}")
        self._data[address] = new
        return RequestResult(address=address, returned=returned, changed=changed)

    # ------------------------------------------------------------------ #
    # Timing simulation
    # ------------------------------------------------------------------ #

    def simulate(self, vectors) -> SpMUStats:
        """Simulate the pipeline over a stream of request vectors.

        Requests are also executed functionally, so after ``simulate``
        returns the SRAM contents reflect every access.

        Args:
            vectors: Either a :class:`RequestTrace` or a sequence whose
                elements are vectorized requests (up to ``lanes`` lane
                requests each). Lane fields are assigned from position.

        Returns:
            Aggregate :class:`SpMUStats` for the run.
        """
        if isinstance(vectors, RequestTrace):
            vectors = vectors.to_vectors()
        prepared = [self._prepare_vector(i, vector) for i, vector in enumerate(vectors)]
        if self._ordering is OrderingMode.ARBITRATED:
            stats = self._simulate_arbitrated(prepared)
        else:
            stats = self._simulate_scheduled(prepared)
        stats.vectors = len(prepared)
        stats._banks = self._config.banks  # type: ignore[attr-defined]
        return stats

    def _prepare_vector(
        self, vector_id: int, vector: Sequence[MemoryRequest]
    ) -> Tuple[int, List[MemoryRequest], int]:
        """Assign lanes, apply repeated-read elision, and count elisions."""
        if len(vector) > self._lanes:
            raise SimulationError(
                f"vector {vector_id} has {len(vector)} requests for {self._lanes} lanes"
            )
        seen_reads: Dict[int, int] = {}
        kept: List[MemoryRequest] = []
        elided = 0
        for lane, request in enumerate(vector):
            request = MemoryRequest(
                address=request.address, op=request.op, value=request.value, lane=lane
            )
            if request.op.is_read_only:
                if request.address in seen_reads:
                    # Duplicate read-only access: squashed, filled from the
                    # initial access when the vector dequeues.
                    elided += 1
                    self.execute_request(request)  # functional no-op read
                    continue
                seen_reads[request.address] = lane
            kept.append(request)
        return vector_id, kept, elided

    def _simulate_scheduled(
        self, prepared: List[Tuple[int, List[MemoryRequest], int]]
    ) -> SpMUStats:
        """Simulate the reordering pipeline (unordered / addr / fully ordered)."""
        stats = SpMUStats()
        queue: List[_QueueEntry] = []
        waiting = list(prepared)
        waiting_index = 0
        completions: List[Tuple[int, _QueueEntry, int]] = []  # (cycle, entry, count)
        cycle = 0
        total_requests = sum(len(kept) for _, kept, _ in prepared)
        stats.elided_reads = sum(elided for _, _, elided in prepared)
        executed = 0
        max_cycles = 64 * (total_requests + len(prepared) + 8)
        trace: Optional[List[int]] = [] if self._record_trace else None

        while executed < total_requests or queue or waiting_index < len(waiting):
            if cycle > max_cycles:
                raise SimulationError("SpMU simulation did not converge")
            # 1. Refill the issue queue, subject to ordering constraints.
            stalled = self._refill_queue(queue, waiting, waiting_index, cycle)
            waiting_index += stalled[0]
            stats.stall_cycles_ordering += stalled[1]

            # 2. Allocation: build per-lane candidate lists and run the
            #    allocator up to ``issues_per_lane`` times (input speedup).
            issued: List[Tuple[_QueueEntry, MemoryRequest]] = []
            banks_taken: set = set()
            for _speedup_pass in range(self._issues_per_lane):
                requests_by_lane = self._collect_candidates(queue, banks_taken)
                if not any(requests_by_lane):
                    break
                result = self._allocator.allocate(requests_by_lane)
                if not result.grants:
                    break
                for lane, bank in result.grants.items():
                    entry, request = self._oldest_request_for(queue, lane, bank)
                    if entry is None or request is None:
                        continue
                    banks_taken.add(bank)
                    issued.append((entry, request))
                    self._mark_issued(entry, lane, request)

            # 3. Execute issued requests; they complete after the pipeline
            #    latency, at which point their vector may dequeue.
            for entry, request in issued:
                self.execute_request(request)
                executed += 1
                completions.append((cycle + self._pipeline_latency, entry, 1))

            if trace is not None:
                trace.append(len({self._bank_of(req.address) for _, req in issued}))
            stats.bank_busy_cycles += len(issued)
            stats.requests += len(issued)

            # 4. Retire completions and free queue slots / Bloom entries.
            still_pending: List[Tuple[int, _QueueEntry, int]] = []
            for complete_cycle, entry, count in completions:
                if complete_cycle <= cycle:
                    entry.outstanding -= count
                else:
                    still_pending.append((complete_cycle, entry, count))
            completions = still_pending
            for entry in list(queue):
                if entry.outstanding == 0 and not any(entry.pending.values()):
                    queue.remove(entry)

            cycle += 1

        # Drain remaining pipeline latency.
        if completions:
            cycle = max(cycle, max(c for c, _, _ in completions) + 1)
        stats.cycles = cycle
        if trace is not None:
            stats.per_cycle_active_banks = np.asarray(trace, dtype=np.int64)
        return stats

    def _simulate_arbitrated(
        self, prepared: List[Tuple[int, List[MemoryRequest], int]]
    ) -> SpMUStats:
        """Simulate the arbitrated baseline: one vector at a time.

        Accesses within the current vector may complete in any order, but
        the vector must finish before the next begins; a vector with ``k``
        requests to its most-contended bank takes ``k`` cycles.
        """
        stats = SpMUStats()
        stats.elided_reads = sum(elided for _, _, elided in prepared)
        cycle = 0
        trace: Optional[List[int]] = [] if self._record_trace else None
        for _vector_id, kept, _ in prepared:
            remaining = list(kept)
            while remaining:
                banks_taken: set = set()
                issued: List[MemoryRequest] = []
                leftover: List[MemoryRequest] = []
                for request in remaining:
                    bank = self._bank_of(request.address)
                    if bank in banks_taken:
                        leftover.append(request)
                    else:
                        banks_taken.add(bank)
                        issued.append(request)
                for request in issued:
                    self.execute_request(request)
                if trace is not None:
                    trace.append(len(banks_taken))
                stats.bank_busy_cycles += len(issued)
                stats.requests += len(issued)
                remaining = leftover
                cycle += 1
        stats.cycles = cycle
        if trace is not None:
            stats.per_cycle_active_banks = np.asarray(trace, dtype=np.int64)
        return stats

    # ------------------------------------------------------------------ #
    # Scheduling helpers
    # ------------------------------------------------------------------ #

    def _bank_of(self, address: int) -> int:
        """Map a word address to its SRAM bank."""
        return self._bank_mapper(address, self._config.banks)

    def _refill_queue(
        self,
        queue: List[_QueueEntry],
        waiting: List[Tuple[int, List[MemoryRequest], int]],
        waiting_index: int,
        cycle: int,
    ) -> Tuple[int, int]:
        """Move vectors from the input stream into the issue queue.

        Returns ``(vectors_accepted, stall_cycles)``.
        """
        accepted = 0
        stalls = 0
        while waiting_index + accepted < len(waiting) and len(queue) < self._config.queue_depth:
            vector_id, kept, _ = waiting[waiting_index + accepted]
            if self._ordering is OrderingMode.FULLY_ORDERED and queue:
                # Program order: only one vector may be in flight.
                stalls += 1
                break
            if self._ordering is OrderingMode.ADDRESS_ORDERED:
                addresses = [req.address for req in kept]
                if len(set(addresses)) != len(addresses):
                    # Intra-vector same-address conflict: the vector must be
                    # split; model the split as a one-cycle stall before the
                    # vector enters (Figure 4's split at bank 2).
                    stalls += 1
                if any(self._bloom.may_contain(addr) for addr in addresses):
                    stalls += 1
                    break
                for addr in addresses:
                    self._bloom.insert(addr)
            pending: Dict[int, List[Tuple[MemoryRequest, int]]] = {}
            for request in kept:
                pending.setdefault(request.lane, []).append((request, len(queue)))
            queue.append(
                _QueueEntry(
                    vector_id=vector_id,
                    pending=pending,
                    outstanding=len(kept),
                    enqueue_cycle=cycle,
                )
            )
            accepted += 1
        return accepted, stalls

    def _collect_candidates(
        self, queue: List[_QueueEntry], banks_taken: set
    ) -> List[List[Tuple[int, int]]]:
        """Build per-lane (bank, age) candidate lists for the allocator."""
        candidates: List[List[Tuple[int, int]]] = [[] for _ in range(self._lanes)]
        if self._ordering is OrderingMode.FULLY_ORDERED:
            return self._collect_in_order_candidates(queue, banks_taken)
        for age, entry in enumerate(queue):
            slot_age = age * 1  # queue position doubles as the age class
            for lane, pending in entry.pending.items():
                for request, _slot in pending:
                    bank = self._bank_of(request.address)
                    if bank in banks_taken:
                        continue
                    candidates[lane].append((bank, min(slot_age, self._config.queue_depth - 1)))
        return candidates

    def _collect_in_order_candidates(
        self, queue: List[_QueueEntry], banks_taken: set
    ) -> List[List[Tuple[int, int]]]:
        """Fully-ordered mode: only a conflict-free program-order prefix bids."""
        candidates: List[List[Tuple[int, int]]] = [[] for _ in range(self._lanes)]
        if not queue:
            return candidates
        entry = queue[0]
        remaining = []
        for lane in sorted(entry.pending):
            for request, _slot in entry.pending[lane]:
                remaining.append((lane, request))
        used_banks = set(banks_taken)
        for lane, request in sorted(remaining, key=lambda pair: pair[1].lane):
            bank = self._bank_of(request.address)
            if bank in used_banks:
                break  # program order: cannot issue past a conflict
            used_banks.add(bank)
            candidates[lane].append((bank, 0))
        return candidates

    def _oldest_request_for(
        self, queue: List[_QueueEntry], lane: int, bank: int
    ) -> Tuple[Optional[_QueueEntry], Optional[MemoryRequest]]:
        """Per-lane priority encoder: the oldest pending request to ``bank``."""
        for entry in queue:
            for request, _slot in entry.pending.get(lane, []):
                if self._bank_of(request.address) == bank:
                    return entry, request
        return None, None

    def _mark_issued(self, entry: _QueueEntry, lane: int, request: MemoryRequest) -> None:
        """Remove ``request`` from the pending metadata once granted."""
        pending = entry.pending.get(lane, [])
        for i, (candidate, _slot) in enumerate(pending):
            if candidate is request:
                pending.pop(i)
                break
        if self._ordering is OrderingMode.ADDRESS_ORDERED:
            try:
                self._bloom.remove(request.address)
            except ValueError:
                pass


def random_request_trace(
    count: int,
    lanes: int = 16,
    address_space: int = 4096,
    seed: int = 0,
    write_fraction: float = 0.0,
) -> RequestTrace:
    """Generate uniformly random request vectors for microbenchmarks.

    This is the "random access trace" workload used for the Table 4 and
    Figure 4 sensitivity studies and for throughput calibration. The
    stream is drawn vector by vector (addresses, then write flags), so a
    given ``seed`` always describes the same workload.
    """
    rng = np.random.default_rng(seed)
    address_rows = []
    write_rows = []
    for _ in range(count):
        address_rows.append(rng.integers(0, address_space, size=lanes))
        write_rows.append(rng.random(lanes) < write_fraction)
    if count:
        addresses = np.concatenate(address_rows).astype(np.int64)
        writes = np.concatenate(write_rows)
    else:
        addresses = np.zeros(0, dtype=np.int64)
        writes = np.zeros(0, dtype=bool)
    return RequestTrace(
        addresses=addresses,
        ops=np.where(writes, OP_ADD, OP_READ).astype(np.int16),
        values=np.ones(count * lanes, dtype=np.float64),
        lanes=np.tile(np.arange(lanes, dtype=np.int64), count),
        vector_ids=np.repeat(np.arange(count, dtype=np.int64), lanes),
        n_vectors=count,
    )


def random_request_vectors(
    count: int,
    lanes: int = 16,
    address_space: int = 4096,
    seed: int = 0,
    write_fraction: float = 0.0,
) -> List[List[MemoryRequest]]:
    """Object-based :func:`random_request_trace` (same workload), for
    feeding request objects to :class:`SparseMemoryUnit`."""
    return random_request_trace(count, lanes, address_space, seed, write_fraction).to_vectors()


def measure_bank_utilization(
    config: SpMUConfig,
    ordering: OrderingMode = OrderingMode.UNORDERED,
    vectors: int = 200,
    lanes: int = 16,
    bank_mapping: str = "hash",
    allocator_kind: str = "separable",
    seed: int = 7,
) -> float:
    """Run a random trace through the reference SpMU and return its bank
    utilization.

    The unmemoized scalar oracle for :func:`effective_bank_throughput_batch`
    (``utilization * banks`` equals its throughput for the same trace).
    """
    unit = SparseMemoryUnit(
        config=config,
        lanes=lanes,
        ordering=ordering,
        bank_mapping=bank_mapping,
        allocator_kind=allocator_kind,
    )
    return unit.simulate(random_request_trace(vectors, lanes=lanes, seed=seed)).bank_utilization


def _persistent_throughput_store():
    """The on-disk throughput store, or ``None`` when disabled/unavailable.

    Imported lazily (and at call time) so this low-level module never pulls
    in the runtime package during import -- :mod:`repro.runtime` sits above
    :mod:`repro.core` and importing it eagerly here would be circular.
    """
    global _STORE_UNAVAILABLE
    if _STORE_UNAVAILABLE:
        return None
    try:
        from ..runtime.cache import ThroughputStore, throughput_store_enabled
    except ImportError:
        _STORE_UNAVAILABLE = True
        return None
    if not throughput_store_enabled():
        return None
    return ThroughputStore()


_STORE_UNAVAILABLE = False


#: The calibration microbenchmark behind every effective throughput the
#: timing model consumes: 120 uniformly random request vectors, seed 7.
#: Table 4 measures the same seed's trace at a different length.
THROUGHPUT_VECTORS = 120
THROUGHPUT_SEED = 7

#: In-process memo keyed on ``(variant, vectors)``.
_THROUGHPUT_CACHE: Dict[Tuple[SpMUVariant, int], float] = {}


def effective_bank_throughput_batch(
    variants: Sequence[SpMUVariant],
    *,
    vectors: int = THROUGHPUT_VECTORS,
) -> np.ndarray:
    """Random-access requests per cycle each SpMU variant sustains.

    A variant's throughput is its bank utilization on a random trace of
    ``vectors`` request vectors (drawn with :data:`THROUGHPUT_SEED`) times
    its bank count (out of ``banks``); the application timing model
    multiplies it by the number of SpMUs involved to convert random
    on-chip access counts into cycles, and Table 4 divides it back into
    utilization.

    The microbenchmark is stochastic but deterministic for a given
    ``(variant, vectors)``, so results are memoized in process and
    persisted to the content-addressed
    :class:`~repro.runtime.cache.ThroughputStore` under that key: cached
    values are loaded with a single ``load_many``, the cold remainder is
    simulated in one lock-step
    :func:`~repro.core.spmu_array.simulate_variants` call (variants with
    equal lane counts share one trace, and variants equal but for
    ``crossbar_inputs`` with equal input speedup share one simulation),
    and the fresh measurements are persisted with a single ``store_many``.
    ``REPRO_MEMORY_BUDGET`` bounds the lock-step state.

    Args:
        variants: The SpMU configuration points to measure.
        vectors: The random trace's length.

    Returns:
        Sustained random-access requests per cycle, aligned with
        ``variants``.
    """
    variants = list(variants)
    results = np.empty(len(variants), dtype=np.float64)
    missing: Dict[SpMUVariant, List[int]] = {}
    for i, variant in enumerate(variants):
        cached = _THROUGHPUT_CACHE.get((variant, vectors))
        if cached is not None:
            results[i] = cached
        else:
            missing.setdefault(variant, []).append(i)
    if not missing:
        return results

    store = _persistent_throughput_store()
    store_keys: Dict[SpMUVariant, str] = {}
    if store is not None:
        store_keys = {v: store.key(v, vectors=vectors) for v in missing}
        persisted = store.load_many(list(store_keys.values()))
        for variant in list(missing):
            value = persisted.get(store_keys[variant])
            if value is not None:
                _THROUGHPUT_CACHE[(variant, vectors)] = value
                results[missing.pop(variant)] = value
    if not missing:
        return results

    # Both engines read ``crossbar_inputs`` only through the input speedup,
    # so each group of cold variants equal but for it simulates once.
    groups: Dict[SpMUVariant, List[SpMUVariant]] = {}
    for variant in missing:
        speedup = _input_speedup(variant)
        config = replace(variant.config, crossbar_inputs=speedup * variant.lanes)
        groups.setdefault(replace(variant, config=config), []).append(variant)
    cold = [members[0] for members in groups.values()]
    traces = {
        lanes: random_request_trace(vectors, lanes=lanes, seed=THROUGHPUT_SEED)
        for lanes in {variant.lanes for variant in cold}
    }
    simulated = simulate_variants(cold, [traces[variant.lanes] for variant in cold])
    fresh: Dict[str, float] = {}
    for members, result in zip(groups.values(), simulated):
        banks = members[0].config.banks
        utilization = (
            result.bank_busy_cycles / (result.cycles * banks) if result.cycles else 0.0
        )
        throughput = utilization * banks
        for variant in members:
            _THROUGHPUT_CACHE[(variant, vectors)] = throughput
            results[missing[variant]] = throughput
            if variant in store_keys:
                fresh[store_keys[variant]] = throughput
    if store is not None and fresh:
        try:
            store.store_many(fresh)
        except OSError:
            pass  # a read-only or full filesystem must never fail costing
    return results
