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
The paper's 64-entry inverse-permutation FIFO per merge unit, which
records the shuffle decisions so replies can be un-permuted, never changes
where a request lands, so it is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import ShuffleMode
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


class MergeUnit:
    """One butterfly merge unit: partition on an address bit, then merge."""

    def __init__(self, lanes: int, max_shift: int):
        if lanes <= 0:
            raise SimulationError("lanes must be positive")
        self._lanes = lanes
        self._max_shift = max_shift

    def merge(
        self,
        upper: Sequence[Optional[ShuffleRequest]],
        lower: Sequence[Optional[ShuffleRequest]],
    ) -> List[List[Optional[ShuffleRequest]]]:
        """Merge two already-partitioned vectors into as few vectors as possible.

        Both inputs must contain only requests destined for this unit's half
        (the caller partitions by address bit). Returns the output vectors;
        requests that fit nowhere within the shift budget spill into extra
        vectors.
        """
        slots: List[List[Optional[ShuffleRequest]]] = [[None] * self._lanes]
        for vector in (upper, lower):
            for lane, request in enumerate(vector):
                if request is not None:
                    self._place(slots, lane, request)
        return slots

    def _place(
        self,
        slots: List[List[Optional[ShuffleRequest]]],
        preferred_lane: int,
        request: ShuffleRequest,
    ) -> None:
        """Place ``request`` near ``preferred_lane`` in the first vector with room."""
        candidates = self._candidate_lanes(preferred_lane)
        for vector in slots:
            for lane in candidates:
                if vector[lane] is None:
                    vector[lane] = request
                    return
        # No room within the shift budget in any existing vector: spill.
        new_vector: List[Optional[ShuffleRequest]] = [None] * self._lanes
        new_vector[preferred_lane] = request
        slots.append(new_vector)

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

    The object-at-a-time network :func:`merge_efficiency_reference` walks,
    the oracle of :func:`merge_efficiency`'s bitmask path.

    Args:
        mode: Merge-unit lane-shifting flexibility.
        lanes: Vector width of each request vector.
    """

    def __init__(self, mode: ShuffleMode = ShuffleMode.MRG1, lanes: int = 16):
        self._mode = mode
        self._lanes = lanes
        self._max_shift = mode.max_shift

    def route(
        self,
        vectors_by_source: Dict[int, List[ShuffleRequest]],
        partitions: int,
    ) -> Dict[int, List[List[Optional[ShuffleRequest]]]]:
        """Route request vectors from CUs to destination memory partitions.

        Args:
            vectors_by_source: One request vector per source CU.
            partitions: Number of destination partitions; an address's high
                bits select its partition.

        Returns:
            A mapping from destination partition to the list of output
            vectors delivered there.
        """
        if self._mode is ShuffleMode.NONE:
            # No network: every request is a separate scalar transfer (one
            # output vector per request).
            outputs: Dict[int, List[List[Optional[ShuffleRequest]]]] = {}
            for vector in vectors_by_source.values():
                for request in vector:
                    destination = self._destination(request, partitions)
                    padded: List[Optional[ShuffleRequest]] = [None] * self._lanes
                    padded[request.lane % self._lanes] = request
                    outputs.setdefault(destination, []).append(padded)
            return outputs

        grouped: Dict[int, List[ShuffleRequest]] = {p: [] for p in range(partitions)}
        for vector in vectors_by_source.values():
            for request in vector:
                grouped[self._destination(request, partitions)].append(request)

        outputs = {}
        merge_unit = MergeUnit(self._lanes, self._max_shift)
        for destination, requests in grouped.items():
            if not requests:
                continue
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
                    merged_round.extend(merge_unit.merge(pending[i], pending[i + 1]))
                if len(merged_round) >= len(pending):
                    # No further compaction possible; stop merging.
                    pending = merged_round
                    break
                pending = merged_round
            outputs[destination] = pending
        return outputs

    @staticmethod
    def _destination(request: ShuffleRequest, n_partitions: int) -> int:
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


#: The merge-efficiency microbenchmark's traffic shape: every vector, each
#: of ``MERGE_SOURCES`` CUs issues one request per lane to one of
#: ``MERGE_PARTITIONS`` memory partitions, drawn from the ``MERGE_SEED``
#: stream.
MERGE_SOURCES = 4
MERGE_PARTITIONS = 4
MERGE_SEED = 3


def merge_efficiency(
    mode: ShuffleMode,
    cross_partition_fraction: float,
    lanes: int = 16,
    vectors: int = 64,
) -> float:
    """Measure how well a shuffle mode compacts cross-partition traffic.

    Returns the ratio of delivered request slots to delivered vector slots
    (higher is better; 1.0 means every output vector is full). Used by the
    Table 11 harness and the application network model.

    Routes lane-occupancy bitmasks through the merge rules instead of
    walking :class:`ShuffleRequest` objects through a :class:`ShuffleNetwork`
    (that walk is :func:`merge_efficiency_reference`, the oracle). It draws
    the identical random request stream and gives exactly the same value,
    because every (source, lane) carries at most one request and each
    address stays inside its partition.
    """
    rng = _RawStreamReplay(MERGE_SEED)
    candidates = _candidate_lane_order(lanes, mode.max_shift)
    none_mode = mode is ShuffleMode.NONE
    total_requests = 0
    total_vector_slots = 0
    for _ in range(vectors):
        by_destination = [[0] * MERGE_SOURCES for _ in range(MERGE_PARTITIONS)]
        for source in range(MERGE_SOURCES):
            home = source % MERGE_PARTITIONS
            for lane in range(lanes):
                if rng.random() < cross_partition_fraction:
                    destination = rng.integers(MERGE_PARTITIONS)
                else:
                    destination = home
                rng.integers(1024)  # the address's low bits; routing-neutral
                by_destination[destination][source] |= 1 << lane
            total_requests += lanes
        if none_mode:
            # Without a network every request is its own output vector.
            total_vector_slots += lanes * MERGE_SOURCES * lanes
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


def merge_efficiency_reference(
    mode: ShuffleMode,
    cross_partition_fraction: float,
    lanes: int = 16,
    vectors: int = 64,
) -> float:
    """The object-at-a-time oracle of :func:`merge_efficiency`.

    Walks :class:`ShuffleRequest` objects through the full
    :class:`ShuffleNetwork`; the equivalence tests pin the two equal.
    """
    rng = np.random.default_rng(MERGE_SEED)
    network = ShuffleNetwork(mode, lanes=lanes)
    stride = 2**16 // MERGE_PARTITIONS
    total_requests = 0
    total_vector_slots = 0
    for _ in range(vectors):
        vectors_by_source: Dict[int, List[ShuffleRequest]] = {}
        for source in range(MERGE_SOURCES):
            vector = []
            for lane in range(lanes):
                if rng.random() < cross_partition_fraction:
                    destination = int(rng.integers(0, MERGE_PARTITIONS))
                else:
                    destination = source % MERGE_PARTITIONS
                address = destination * stride + int(rng.integers(0, 1024))
                vector.append(ShuffleRequest(source=source, lane=lane, address=address))
            vectors_by_source[source] = vector
            total_requests += lanes
        outputs = network.route(vectors_by_source, partitions=MERGE_PARTITIONS)
        for destination_vectors in outputs.values():
            total_vector_slots += len(destination_vectors) * lanes
    if total_vector_slots == 0:
        return 0.0
    return total_requests / total_vector_slots
