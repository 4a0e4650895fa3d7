"""Butterfly shuffle (merge) network (Section 3.2, Figure 3d/3e).

The shuffle network routes vectorized memory requests from parallel
outer-loop iterations (one vector per CU) to the memory partition that owns
each address, while preserving enough information to undo the permutation
when replies return -- the property positional dataflow requires.

Each network is a butterfly of *merge units*. At every stage a merge unit
examines one address bit to decide which half of the network a request
belongs to, drops requests intended for the other half, and merges the two
incoming vectors. Merging may shift a request by at most ``max_shift``
lanes (+/-1 in the paper's Mrg-1 design point; 0 for Mrg-0; unrestricted
for the full-crossbar Mrg-16). Requests that cannot be placed within the
shift budget spill to a follow-up vector, consuming an extra network cycle.
A 64-entry inverse-permutation FIFO per merge unit records the shuffle
decisions so replies can be un-permuted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ShuffleConfig, ShuffleMode
from ..errors import SimulationError


@dataclass(frozen=True)
class ShuffleRequest:
    """One element travelling through the shuffle network.

    Attributes:
        source: Originating CU index.
        lane: Lane within the source CU's vector.
        address: Global address used for partition routing.
        payload: Opaque value carried alongside (e.g. the store data).
    """

    source: int
    lane: int
    address: int
    payload: float = 0.0


@dataclass
class ShuffleStats:
    """Timing statistics for routing one batch of vectors.

    Attributes:
        input_vectors: Vectors presented at the network inputs.
        output_vectors: Vectors emitted at the memory-side outputs (summed
            over all destinations); the merge success rate is
            ``input_vectors / output_vectors`` folded over stages.
        merge_cycles: Total merge-unit cycles consumed.
        spilled_requests: Requests that could not be placed within the lane
            shift budget and required an extra output vector.
        bypassed_requests: Requests that skipped the network entirely
            because they were already at their destination partition.
    """

    input_vectors: int = 0
    output_vectors: int = 0
    merge_cycles: int = 0
    spilled_requests: int = 0
    bypassed_requests: int = 0
    per_destination_vectors: Dict[int, int] = field(default_factory=dict)


class MergeUnit:
    """One butterfly merge unit: partition on an address bit, then merge."""

    def __init__(self, lanes: int, max_shift: int, fifo_depth: int = 64):
        if lanes <= 0:
            raise SimulationError("lanes must be positive")
        self._lanes = lanes
        self._max_shift = max_shift
        self._fifo_depth = fifo_depth
        self._decision_fifo: List[Tuple[int, ...]] = []

    def merge(
        self,
        upper: Sequence[Optional[ShuffleRequest]],
        lower: Sequence[Optional[ShuffleRequest]],
    ) -> Tuple[List[List[Optional[ShuffleRequest]]], int]:
        """Merge two already-partitioned vectors into as few vectors as possible.

        Both inputs must contain only requests destined for this unit's half
        (the caller partitions by address bit). Returns the list of output
        vectors and the number of requests that spilled past the first
        output vector.
        """
        slots: List[List[Optional[ShuffleRequest]]] = [[None] * self._lanes]
        spilled = 0
        for vector in (upper, lower):
            for lane, request in enumerate(vector):
                if request is None:
                    continue
                placed = self._place(slots, lane, request)
                if placed > 0:
                    spilled += 1
        if len(self._decision_fifo) >= self._fifo_depth:
            # A full inverse-permutation FIFO back-pressures the pipeline;
            # model it by recycling the oldest entry (replies have returned).
            self._decision_fifo.pop(0)
        self._decision_fifo.append(tuple(range(self._lanes)))
        return slots, spilled

    def _place(
        self,
        slots: List[List[Optional[ShuffleRequest]]],
        preferred_lane: int,
        request: ShuffleRequest,
    ) -> int:
        """Place ``request`` near ``preferred_lane``; return the vector index used."""
        for vector_index, vector in enumerate(slots):
            candidates = self._candidate_lanes(preferred_lane)
            for lane in candidates:
                if vector[lane] is None:
                    vector[lane] = request
                    return vector_index
        # No room within the shift budget in any existing vector: spill.
        new_vector: List[Optional[ShuffleRequest]] = [None] * self._lanes
        new_vector[preferred_lane] = request
        slots.append(new_vector)
        return len(slots) - 1

    def _candidate_lanes(self, preferred: int) -> List[int]:
        """Lanes reachable from ``preferred`` within the shift budget."""
        if self._max_shift >= self._lanes:
            order = sorted(range(self._lanes), key=lambda lane: abs(lane - preferred))
            return order
        lanes = [preferred]
        for delta in range(1, self._max_shift + 1):
            if preferred - delta >= 0:
                lanes.append(preferred - delta)
            if preferred + delta < self._lanes:
                lanes.append(preferred + delta)
        return lanes


class ShuffleNetwork:
    """A butterfly network of merge units routing vectors to partitions.

    Args:
        config: Shuffle configuration (mode, endpoints, FIFO depth).
        lanes: Vector width of each request vector.
    """

    def __init__(self, config: Optional[ShuffleConfig] = None, lanes: int = 16):
        self._config = config or ShuffleConfig()
        self._config.validate()
        self._lanes = lanes
        self._stages = int(np.log2(self._config.endpoints))
        self._max_shift = self._config.mode.max_shift

    @property
    def config(self) -> ShuffleConfig:
        """The network's configuration."""
        return self._config

    @property
    def stages(self) -> int:
        """Number of butterfly stages (log2 of endpoints)."""
        return self._stages

    def route(
        self,
        vectors_by_source: Dict[int, List[ShuffleRequest]],
        partition_of: Optional[Dict[int, int]] = None,
        partitions: Optional[int] = None,
    ) -> Tuple[Dict[int, List[List[Optional[ShuffleRequest]]]], ShuffleStats]:
        """Route request vectors from CUs to destination memory partitions.

        Args:
            vectors_by_source: One request vector per source CU.
            partition_of: Optional explicit address -> partition mapping; if
                omitted, the address's high bits select the partition.
            partitions: Number of destination partitions (defaults to the
                configured endpoint count).

        Returns:
            A mapping from destination partition to the list of output
            vectors delivered there, and the routing statistics.
        """
        n_partitions = partitions or self._config.endpoints
        stats = ShuffleStats(input_vectors=len(vectors_by_source))
        if self._config.mode is ShuffleMode.NONE:
            return self._route_without_network(vectors_by_source, partition_of, n_partitions, stats)

        # Group requests by destination partition, tracking bypasses.
        grouped: Dict[int, List[ShuffleRequest]] = {p: [] for p in range(n_partitions)}
        for source, vector in vectors_by_source.items():
            for request in vector:
                destination = self._destination(request, partition_of, n_partitions)
                if destination == source % n_partitions:
                    stats.bypassed_requests += 1
                grouped[destination].append(request)

        outputs: Dict[int, List[List[Optional[ShuffleRequest]]]] = {}
        merge_unit = MergeUnit(self._lanes, self._max_shift, self._config.permutation_fifo_depth)
        for destination, requests in grouped.items():
            if not requests:
                continue
            vectors: List[List[Optional[ShuffleRequest]]] = []
            spilled_total = 0
            # Requests arrive as per-source vectors; merge them pairwise,
            # one butterfly stage per halving, approximated by a single
            # sequence of pairwise merges (log2(sources) deep).
            pending = self._initial_vectors(requests)
            while len(pending) > 1:
                merged_round: List[List[Optional[ShuffleRequest]]] = []
                for i in range(0, len(pending), 2):
                    if i + 1 >= len(pending):
                        merged_round.append(pending[i])
                        continue
                    merged, spilled = merge_unit.merge(pending[i], pending[i + 1])
                    merged_round.extend(merged)
                    spilled_total += spilled
                    stats.merge_cycles += 1
                if len(merged_round) >= len(pending):
                    # No further compaction possible; stop merging.
                    pending = merged_round
                    break
                pending = merged_round
            vectors = pending
            outputs[destination] = vectors
            stats.output_vectors += len(vectors)
            stats.spilled_requests += spilled_total
            stats.per_destination_vectors[destination] = len(vectors)
        return outputs, stats

    def _route_without_network(
        self,
        vectors_by_source: Dict[int, List[ShuffleRequest]],
        partition_of: Optional[Dict[int, int]],
        n_partitions: int,
        stats: ShuffleStats,
    ) -> Tuple[Dict[int, List[List[Optional[ShuffleRequest]]]], ShuffleStats]:
        """Model the no-network baseline: every cross-partition request is a
        separate scalar transfer (one output vector per request)."""
        outputs: Dict[int, List[List[Optional[ShuffleRequest]]]] = {}
        for source, vector in vectors_by_source.items():
            for request in vector:
                destination = self._destination(request, partition_of, n_partitions)
                padded: List[Optional[ShuffleRequest]] = [None] * self._lanes
                padded[request.lane % self._lanes] = request
                outputs.setdefault(destination, []).append(padded)
                stats.output_vectors += 1
                if destination == source % n_partitions:
                    stats.bypassed_requests += 1
        for destination, vectors in outputs.items():
            stats.per_destination_vectors[destination] = len(vectors)
        return outputs, stats

    def _destination(
        self,
        request: ShuffleRequest,
        partition_of: Optional[Dict[int, int]],
        n_partitions: int,
    ) -> int:
        if partition_of is not None:
            try:
                return partition_of[request.address] % n_partitions
            except KeyError as exc:
                raise SimulationError(f"no partition for address {request.address}") from exc
        return (request.address // max(1, 2 ** 16 // n_partitions)) % n_partitions

    def _initial_vectors(
        self, requests: List[ShuffleRequest]
    ) -> List[List[Optional[ShuffleRequest]]]:
        """Group a destination's requests back into their source vectors."""
        by_source: Dict[int, List[Optional[ShuffleRequest]]] = {}
        for request in requests:
            vector = by_source.setdefault(request.source, [None] * self._lanes)
            lane = request.lane % self._lanes
            if vector[lane] is not None:
                # Two requests from the same source lane (different vectors in
                # time); start a fresh slot keyed by a synthetic source id.
                synthetic = request.source + 10_000 * (1 + sum(1 for s in by_source if s >= 10_000))
                vector = by_source.setdefault(synthetic, [None] * self._lanes)
            vector[lane] = request
        return list(by_source.values())


def _candidate_lane_order(lanes: int, max_shift: int) -> List[List[int]]:
    """Per preferred lane, the placement order ``MergeUnit._place`` probes."""
    unit = MergeUnit(lanes, max_shift)
    return [unit._candidate_lanes(lane) for lane in range(lanes)]


def _merge_pair_masks(
    upper: int, lower: int, candidates: List[List[int]]
) -> List[int]:
    """Bitmask replica of ``MergeUnit.merge`` for unit-payload requests.

    Occupancy is all the merge decision depends on, so each vector is one
    integer whose set bits are occupied positions; requests are placed in
    the same (vector, candidate-lane) probe order as the object-based unit.
    """
    slots = [0]
    for source in (upper, lower):
        remaining = source
        while remaining:
            lane = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            for index, vector in enumerate(slots):
                placed = False
                for candidate in candidates[lane]:
                    if not (vector >> candidate) & 1:
                        slots[index] = vector | (1 << candidate)
                        placed = True
                        break
                if placed:
                    break
            else:
                slots.append(1 << lane)
    return slots


class _RawStreamReplay:
    """Replays a ``numpy.random.Generator``'s draw stream with plain ints.

    The merge-efficiency microbenchmark makes millions of scalar
    ``random()`` / ``integers()`` calls whose per-call numpy overhead
    dwarfs the arithmetic. This replays the exact same value stream from
    bulk ``random_raw`` words: ``random()`` is the standard 53-bit double
    conversion of one word, and bounded ``integers`` is numpy's buffered
    32-bit Lemire rejection (the buffer half-word carries across calls,
    exactly as in the C implementation). The generator is private to one
    measurement, so over-drawing raw words is unobservable. Equality with
    the real generator is pinned by the backend-equivalence tests.
    """

    __slots__ = ("_bit_generator", "_words", "_pos", "_half", "_has_half")

    def __init__(self, seed: int):
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._words: List[int] = []
        self._pos = 0
        self._half = 0
        self._has_half = False

    def _word(self) -> int:
        if self._pos >= len(self._words):
            self._words = self._bit_generator.random_raw(4096).tolist()
            self._pos = 0
        word = self._words[self._pos]
        self._pos += 1
        return word

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._half = word >> 32
        self._has_half = True
        return word & 0xFFFFFFFF

    def integers(self, bound: int) -> int:
        product = self._uint32() * bound
        leftover = product & 0xFFFFFFFF
        if leftover < bound:
            threshold = (4294967296 - bound) % bound
            while leftover < threshold:
                product = self._uint32() * bound
                leftover = product & 0xFFFFFFFF
        return product >> 32


def _merge_efficiency_fast(
    mode: ShuffleMode,
    cross_partition_fraction: float,
    sources: int,
    lanes: int,
    vectors: int,
    partitions: int,
    seed: int,
) -> float:
    """Mask-based fast path of :func:`merge_efficiency`.

    Draws the identical random request stream (same generator draws in the
    same order) but routes it as lane-occupancy bitmasks instead of
    :class:`ShuffleRequest` objects walked through per-slot Python scans.
    Produces exactly the reference's efficiency for the microbenchmark's
    traffic shape, where every (source, lane) carries at most one request
    and the partition stride keeps each address inside its partition.
    """
    rng = _RawStreamReplay(seed)
    candidates = _candidate_lane_order(lanes, mode.max_shift)
    none_mode = mode is ShuffleMode.NONE
    total_requests = 0
    total_vector_slots = 0
    for _ in range(vectors):
        by_destination = [[0] * sources for _ in range(partitions)]
        for source in range(sources):
            home = source % partitions
            for lane in range(lanes):
                if rng.random() < cross_partition_fraction:
                    destination = rng.integers(partitions)
                else:
                    destination = home
                rng.integers(1024)  # the address's low bits; routing-neutral
                by_destination[destination][source] |= 1 << lane
            total_requests += lanes
        if none_mode:
            # Without a network every request is its own output vector.
            total_vector_slots += lanes * sources * lanes
            continue
        for masks in by_destination:
            pending = [mask for mask in masks if mask]
            if not pending:
                continue
            while len(pending) > 1:
                merged_round: List[int] = []
                for i in range(0, len(pending), 2):
                    if i + 1 >= len(pending):
                        merged_round.append(pending[i])
                        continue
                    merged_round.extend(
                        _merge_pair_masks(pending[i], pending[i + 1], candidates)
                    )
                if len(merged_round) >= len(pending):
                    pending = merged_round
                    break
                pending = merged_round
            total_vector_slots += len(pending) * lanes
    if total_vector_slots == 0:
        return 0.0
    return total_requests / total_vector_slots


def merge_efficiency(
    mode: ShuffleMode,
    cross_partition_fraction: float,
    sources: int = 4,
    lanes: int = 16,
    vectors: int = 64,
    partitions: int = 4,
    seed: int = 3,
    config: Optional[ShuffleConfig] = None,
    backend: str = "array",
) -> float:
    """Measure how well a shuffle mode compacts cross-partition traffic.

    Returns the ratio of delivered request slots to delivered vector slots
    (higher is better; 1.0 means every output vector is full). Used by the
    Table 11 harness and the application network model.

    Args:
        config: Optional full shuffle configuration whose crossbar
            parameters (e.g. the inverse-permutation FIFO depth) the
            measured network should use; ``mode`` and the microbenchmark's
            partition count still override its routing shape. ``None``
            measures a default-parameter network.
        backend: ``"array"`` (default) measures through the bitmask fast
            path -- identical results, no per-request object churn;
            ``"reference"`` walks :class:`ShuffleRequest` objects through
            the full :class:`ShuffleNetwork`.
    """
    import dataclasses

    base = config if config is not None else ShuffleConfig()
    network_config = dataclasses.replace(base, mode=mode, endpoints=max(partitions, 2))
    # Validate up front so an invalid configuration is rejected identically
    # on both backends (the reference validates when building the network).
    network_config.validate()
    if backend == "array" and partitions >= 1 and (2**16) // partitions >= 1024:
        # The configured crossbar parameters (FIFO depth) cannot change the
        # measured efficiency, so the fast path ignores them.
        return _merge_efficiency_fast(
            mode, cross_partition_fraction, sources, lanes, vectors, partitions, seed
        )

    rng = np.random.default_rng(seed)
    network = ShuffleNetwork(network_config, lanes=lanes)
    total_requests = 0
    total_vector_slots = 0
    for _ in range(vectors):
        vectors_by_source: Dict[int, List[ShuffleRequest]] = {}
        for source in range(sources):
            vector = []
            for lane in range(lanes):
                if rng.random() < cross_partition_fraction:
                    destination = int(rng.integers(0, partitions))
                else:
                    destination = source % partitions
                address = destination * (2 ** 16 // partitions) + int(rng.integers(0, 1024))
                vector.append(ShuffleRequest(source=source, lane=lane, address=address))
            vectors_by_source[source] = vector
            total_requests += lanes
        outputs, stats = network.route(vectors_by_source, partitions=partitions)
        for destination_vectors in outputs.values():
            total_vector_slots += len(destination_vectors) * lanes
    if total_vector_slots == 0:
        return 0.0
    return total_requests / total_vector_slots
