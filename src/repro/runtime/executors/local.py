"""Serial in-process executor.

Runs units one at a time, inline on the calling thread -- the baseline
backend every other executor must match result-for-result, and the one
under which monkeypatched registries and in-memory caches behave exactly
as in direct calls. It takes only the retry policy: an in-process unit
cannot be stopped, so a per-unit deadline needs a worker process
(:class:`~repro.runtime.executors.subprocess.SubprocessExecutor`).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict

from ..jobs import execute_unit
from .base import OUTCOME_OK, Executor, UnitOutcome, outcome_from_exception


class LocalExecutor(Executor):
    """Serial executor: one unit at a time on the calling thread."""

    name = "local"

    def _attempt(self, slot: int, payload: Dict[str, Any]) -> UnitOutcome:
        start = time.perf_counter()
        try:
            result = execute_unit(payload)
        except Exception as exc:  # noqa: BLE001 - reported per unit
            return outcome_from_exception(
                exc, time.perf_counter() - start, traceback.format_exc()
            )
        return UnitOutcome(
            status=OUTCOME_OK, result=result, duration_s=time.perf_counter() - start
        )
