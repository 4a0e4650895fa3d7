"""Separable input-first bank allocator (Section 3.1.1).

Every cycle, up to ``lanes * depth`` pending requests bid for access to
``banks`` SRAM banks; the allocator must pick a conflict-free matching (at
most one grant per lane *and* per bank). Capstan uses a multi-iteration
separable allocator [Becker & Dally 2009]:

* Requests are summarized into an ``lanes x banks`` request matrix.
* Each iteration runs two stages of fixed-priority arbiters: first each lane
  keeps at most one requested bank, then each bank accepts at most one lane.
* Later iterations consider only requests that do not conflict with grants
  already established, so they can add grants a greedy pass would miss.
* Age priorities: older queue slots participate in earlier iterations (the
  first 5 slots bid in round one, the first 10 in round two, all 16 in round
  three), which combats head-of-line blocking by stale requests.

The same module also provides the greedy "weak" allocator used in the
Table 9 sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation cycle.

    Attributes:
        grants: Mapping from lane index to granted bank index.
        iterations_used: Allocator iterations actually executed.
        requests_considered: Number of (lane, bank) request pairs examined.
    """

    grants: Dict[int, int]
    iterations_used: int
    requests_considered: int

    @property
    def granted_banks(self) -> int:
        """Number of banks that will be active this cycle."""
        return len(set(self.grants.values()))


class SeparableAllocator:
    """Multi-iteration, multi-priority separable allocator.

    Args:
        lanes: Number of requesting lanes (issue-queue columns).
        banks: Number of SRAM banks.
        iterations: Allocation iterations per cycle (3 in the paper).
        priorities: Number of age-priority classes (1-3 in Table 4). With
            ``p`` priorities, iteration ``i`` (0-based) considers requests
            whose age class is ``<= i`` for ``i < p``; the remaining
            iterations consider all requests.
        queue_depth: Issue-queue depth used to derive age-class boundaries.
    """

    def __init__(
        self,
        lanes: int = 16,
        banks: int = 16,
        iterations: int = 3,
        priorities: int = 3,
        queue_depth: int = 16,
    ):
        if lanes <= 0 or banks <= 0:
            raise ConfigurationError("lanes and banks must be positive")
        if iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if not 1 <= priorities <= iterations:
            raise ConfigurationError("priorities must be in [1, iterations]")
        if queue_depth <= 0:
            raise ConfigurationError("queue_depth must be positive")
        self._lanes = lanes
        self._banks = banks
        self._iterations = iterations
        self._priorities = priorities
        self._queue_depth = queue_depth
        self._age_cutoffs = self._compute_age_cutoffs()

    @property
    def lanes(self) -> int:
        """Number of requesting lanes."""
        return self._lanes

    @property
    def banks(self) -> int:
        """Number of SRAM banks."""
        return self._banks

    @property
    def age_cutoffs(self) -> List[int]:
        """Per-iteration queue-slot age cutoffs (oldest-first priorities)."""
        return list(self._age_cutoffs)

    def _compute_age_cutoffs(self) -> List[int]:
        """Queue-slot cutoffs for each allocation iteration.

        With 3 priorities and a 16-slot queue the paper uses cutoffs of 5,
        10, and 16 slots for the three iterations; we generalize that to
        evenly spaced fractions of the queue depth. Iterations beyond the
        priority count consider the whole queue.
        """
        cutoffs = []
        for iteration in range(self._iterations):
            if iteration < self._priorities - 1:
                fraction = (iteration + 1) / self._priorities
                cutoffs.append(max(1, int(round(self._queue_depth * fraction))))
            else:
                cutoffs.append(self._queue_depth)
        return cutoffs

    def allocate(
        self, requests: Sequence[Sequence[Tuple[int, int]]]
    ) -> AllocationResult:
        """Compute a conflict-free lane-to-bank matching for one cycle.

        Args:
            requests: ``requests[lane]`` is the list of pending requests for
                that lane as ``(bank, age)`` pairs, where ``age`` is the
                request's queue slot (0 = oldest). A lane with no pending
                requests passes an empty list.

        Returns:
            An :class:`AllocationResult` with at most one grant per lane and
            per bank. The per-lane priority encoder behaviour (granting the
            oldest request when a lane holds several requests to the granted
            bank) is the caller's responsibility, since only the caller knows
            which concrete request each (lane, bank) pair refers to.
        """
        if len(requests) != self._lanes:
            raise ConfigurationError(
                f"expected requests for {self._lanes} lanes, got {len(requests)}"
            )
        grants: Dict[int, int] = {}
        taken_banks: set = set()
        considered = 0
        iterations_used = 0
        for iteration in range(self._iterations):
            cutoff = self._age_cutoffs[iteration]
            matrix = np.zeros((self._lanes, self._banks), dtype=bool)
            for lane, lane_requests in enumerate(requests):
                if lane in grants:
                    continue
                for bank, age in lane_requests:
                    if age >= cutoff or bank in taken_banks:
                        continue
                    if not 0 <= bank < self._banks:
                        raise ConfigurationError(f"bank {bank} out of range")
                    matrix[lane, bank] = True
                    considered += 1
            if not matrix.any():
                # Early iterations may be empty purely because of their age
                # cutoff; later iterations consider the full queue.
                continue
            iterations_used = iteration + 1
            new_grants = self._separable_iteration(matrix)
            for lane, bank in new_grants.items():
                grants[lane] = bank
                taken_banks.add(bank)
        return AllocationResult(
            grants=grants,
            iterations_used=iterations_used,
            requests_considered=considered,
        )

    def _separable_iteration(self, matrix: np.ndarray) -> Dict[int, int]:
        """One separable-allocator iteration (two fixed-priority stages).

        Stage 1 prunes each lane (row) to its lowest-numbered requested
        bank; stage 2 prunes each bank (column) to its lowest-numbered
        requesting lane. The result has at most one grant per row and column.
        """
        grants: Dict[int, int] = {}
        # Stage 1: each lane selects one bank (fixed priority: lowest bank).
        lane_choice = np.full(self._lanes, -1, dtype=np.int64)
        for lane in range(self._lanes):
            banks = np.nonzero(matrix[lane])[0]
            if banks.size:
                lane_choice[lane] = banks[0]
        # Stage 2: each bank accepts one lane (fixed priority: lowest lane).
        for bank in range(self._banks):
            lanes = np.nonzero(lane_choice == bank)[0]
            if lanes.size:
                grants[int(lanes[0])] = bank
        return grants


class GreedyAllocator:
    """Single-pass greedy allocator ("Weak Alloc" in Table 9).

    Lane 0 gets its first choice of banks, then lane 1, and so on; no
    retry iterations and no age priorities. Used to quantify how much the
    separable multi-iteration allocator buys.
    """

    def __init__(self, lanes: int = 16, banks: int = 16):
        if lanes <= 0 or banks <= 0:
            raise ConfigurationError("lanes and banks must be positive")
        self._lanes = lanes
        self._banks = banks

    @property
    def lanes(self) -> int:
        """Number of requesting lanes."""
        return self._lanes

    @property
    def banks(self) -> int:
        """Number of SRAM banks."""
        return self._banks

    def allocate(
        self, requests: Sequence[Sequence[Tuple[int, int]]]
    ) -> AllocationResult:
        """Greedy lane-ordered matching over the oldest request per lane."""
        if len(requests) != self._lanes:
            raise ConfigurationError(
                f"expected requests for {self._lanes} lanes, got {len(requests)}"
            )
        grants: Dict[int, int] = {}
        taken: set = set()
        considered = 0
        for lane, lane_requests in enumerate(requests):
            # Consider requests oldest-first; grant the first free bank.
            for bank, _age in sorted(lane_requests, key=lambda pair: pair[1]):
                considered += 1
                if bank not in taken:
                    grants[lane] = bank
                    taken.add(bank)
                    break
        return AllocationResult(grants=grants, iterations_used=1, requests_considered=considered)


#: Every SpMU allocator kind, Capstan's first. The arbitrated baseline is
#: an ordering mode of the SpMU, not an allocator.
ALLOCATOR_KINDS = ("separable", "greedy")


def make_allocator(
    kind: str,
    lanes: int = 16,
    banks: int = 16,
    iterations: int = 3,
    priorities: int = 3,
    queue_depth: int = 16,
):
    """Factory for the allocator variants used in the sensitivity studies.

    Args:
        kind: ``"separable"`` (Capstan) or ``"greedy"`` (weak allocation);
            anything else raises :class:`ConfigurationError`.
    """
    if kind == "separable":
        return SeparableAllocator(
            lanes=lanes,
            banks=banks,
            iterations=iterations,
            priorities=priorities,
            queue_depth=queue_depth,
        )
    if kind == "greedy":
        return GreedyAllocator(lanes=lanes, banks=banks)
    raise ConfigurationError(f"unknown allocator kind {kind!r}")
