"""Fan-out of lock-step SpMU batches over forked processes.

A cold lock-step batch may be split into cost-balanced shares that run in
processes forked for that batch (:func:`repro.core.spmu_array._share_count`
decides). These tests pin that the split changes nothing -- every
``SimResult`` field, traces and issue orders included -- that an error in a
child share surfaces in the caller with no process left behind, and that
each refusal condition forks nothing. The guard's real decision is
exercised in fresh interpreters, where no test-runner thread is alive.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro._budget import ENV_MEMORY_BUDGET
from repro.config import SpMUConfig
from repro.core import spmu_array
from repro.core.ordering import OrderingMode
from repro.core.spmu import RequestTrace, SparseMemoryUnit, random_request_vectors
from repro.core.spmu_array import SpMUVariant, simulate_variants
from repro.errors import SimulationError
from repro.runtime.executors.subprocess import _worker_env

#: Vectors per trace: enough estimated lock-step work (>= 1,000 cycles
#: over the batch) that the real guard fans out on a multi-core host.
VECTORS = 48


def _batch():
    """24 variants across the kilovariant search space's SpMU shape axes."""
    axes = itertools.product(
        (4, 8, 16, 32),  # lanes
        (8, 16, 32, 64),  # banks
        (4, 8, 16, 32),  # queue depth
        (8, 16, 32, 64),  # crossbar inputs
        (OrderingMode.UNORDERED, OrderingMode.ADDRESS_ORDERED),
        ("separable", "greedy"),
        ("hash", "linear"),
    )
    points = random.Random(19).sample(list(axes), 24)
    vectors = {
        lanes: random_request_vectors(VECTORS, lanes=lanes, address_space=2048, seed=lanes)
        for lanes in (4, 8, 16, 32)
    }
    traces = {lanes: RequestTrace.from_vectors(v) for lanes, v in vectors.items()}
    variants = [
        SpMUVariant(
            ordering=ordering,
            bank_mapping=mapping,
            allocator_kind=allocator,
            config=SpMUConfig(banks=banks, queue_depth=depth, crossbar_inputs=crossbar),
            lanes=lanes,
        )
        for lanes, banks, depth, crossbar, ordering, allocator, mapping in points
    ]
    return variants, [traces[v.lanes] for v in variants], vectors


def _fields(result):
    return (
        result.cycles,
        result.requests,
        result.elided_reads,
        result.bank_busy_cycles,
        result.vectors,
        result.stall_cycles_ordering,
        result.per_cycle_active_banks.tolist(),
        result.issue_vectors.tolist(),
        result.issue_lanes.tolist(),
    )


def _digest(results) -> str:
    return hashlib.sha256(json.dumps([_fields(r) for r in results]).encode()).hexdigest()


def _simulate(variants, traces, **kwargs):
    return simulate_variants(variants, traces, record_trace=True, collect_issues=True, **kwargs)


@pytest.fixture(autouse=True)
def no_ambient_budget(monkeypatch):
    """Tests here size their own budgets; an ambient one would re-chunk."""
    monkeypatch.delenv(ENV_MEMORY_BUDGET, raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every process forked in this process."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _force_shares(monkeypatch, k):
    monkeypatch.setattr(spmu_array, "_share_count", lambda costs: k)


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="module")
def serial():
    """The batch and its results with fan-out refused."""
    variants, traces, vectors = _batch()
    with pytest.MonkeyPatch.context() as patch:
        _force_shares(patch, 1)
        return variants, traces, vectors, _simulate(variants, traces)


class TestEquivalence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_fanned_equals_serial(self, serial, monkeypatch, forks, k):
        variants, traces, _, expected = serial
        _force_shares(monkeypatch, k)
        fanned = _simulate(variants, traces)
        assert len(forks) == k - 1
        _assert_reaped(forks)
        assert [_fields(r) for r in fanned] == [_fields(r) for r in expected]

    def test_fanned_under_a_budget_equals_serial(self, serial, monkeypatch, forks):
        variants, traces, _, expected = serial
        _force_shares(monkeypatch, 2)
        assert _digest(_simulate(variants, traces, memory_budget="256K")) == _digest(expected)
        assert forks

    def test_fanned_matches_reference(self, serial, monkeypatch):
        variants, traces, vectors, _ = serial
        _force_shares(monkeypatch, 2)
        subset = [variants[i] for i in (0, 5, 11, 17, 23)]
        fanned = _simulate(subset, [traces[variants.index(v)] for v in subset])
        for variant, result in zip(subset, fanned):
            stats = SparseMemoryUnit(
                config=variant.config,
                lanes=variant.lanes,
                ordering=variant.ordering,
                bank_mapping=variant.bank_mapping,
                allocator_kind=variant.allocator_kind,
                record_trace=True,
            ).simulate(vectors[variant.lanes])
            assert (stats.cycles, stats.requests, stats.stall_cycles_ordering) == (
                result.cycles,
                result.requests,
                result.stall_cycles_ordering,
            )
            assert np.array_equal(stats.per_cycle_active_banks, result.per_cycle_active_banks)

    def test_shares_are_shape_contiguous_and_balanced(self, serial, monkeypatch):
        variants, traces, _, _ = serial
        _force_shares(monkeypatch, 2)
        pairs = list(spmu_array._prepared_pairs(variants, traces))
        shares = spmu_array._deal_shares(pairs)
        assert len(shares) == 2
        assert sorted(itertools.chain(*shares)) == list(range(len(pairs)))
        shapes = [{(variants[i].lanes, variants[i].config.banks) for i in s} for s in shares]
        assert max(shapes[0]) <= min(shapes[1])

        costs = [spmu_array._estimated_cycles(v, p) for v, p in pairs]

        def cost(share):
            cycles = [costs[i] for i in share]
            return spmu_array._CYCLE_OVERHEAD * max(cycles) + sum(cycles)

        # No single cut of the shape order does better than the chosen one.
        order = sorted(itertools.chain(*shares), key=lambda i: (
            variants[i].lanes, variants[i].config.banks, variants[i].ordering.value
        ))
        best = min(max(cost(order[:c]), cost(order[c:])) for c in range(1, len(order)))
        assert max(map(cost, shares)) == best


class TestErrors:
    def _fail_on(self, monkeypatch, lanes, error):
        real = spmu_array._simulate_scheduled_lockstep

        def lockstep(variants, preps, *args):
            if any(v.lanes == lanes for v in variants):
                raise error
            return real(variants, preps, *args)

        monkeypatch.setattr(spmu_array, "_simulate_scheduled_lockstep", lockstep)

    def _split_batch(self):
        # Shares follow shape order: the 4-lane variant is the first
        # (forked) share, the 32-lane one the last (this process's) share.
        variants, traces, _ = _batch()
        pick = [next(i for i, v in enumerate(variants) if v.lanes == lanes) for lanes in (4, 32)]
        return [variants[i] for i in pick], [traces[i] for i in pick]

    def test_child_error_reraises_with_type_and_message(self, monkeypatch, forks):
        _force_shares(monkeypatch, 2)
        self._fail_on(monkeypatch, 4, SimulationError("share exploded at lane 4"))
        variants, traces = self._split_batch()
        with pytest.raises(SimulationError, match=r"^share exploded at lane 4$"):
            _simulate(variants, traces)
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_parent_error_reaps_the_children(self, monkeypatch, forks):
        _force_shares(monkeypatch, 2)
        self._fail_on(monkeypatch, 32, SimulationError("parent share failed"))
        variants, traces = self._split_batch()
        with pytest.raises(SimulationError, match="parent share failed"):
            _simulate(variants, traces)
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_dead_child_is_a_simulation_error(self, monkeypatch, forks):
        _force_shares(monkeypatch, 2)
        real = spmu_array._simulate_scheduled_lockstep
        parent = os.getpid()

        def lockstep(variants, preps, *args):
            if any(v.lanes == 4 for v in variants) and os.getpid() != parent:
                os._exit(3)
            return real(variants, preps, *args)

        monkeypatch.setattr(spmu_array, "_simulate_scheduled_lockstep", lockstep)
        variants, traces = self._split_batch()
        with pytest.raises(SimulationError, match="died"):
            _simulate(variants, traces)
        _assert_reaped(forks)


#: Runs the batch in a fresh interpreter once per condition and prints,
#: per condition, the forks made and the result digest.
_FRESH_SCRIPT = """
import json, os, sys, threading
sys.path.insert(0, sys.argv[1])
import test_spmu_fanout as t
from repro.core import spmu_array

forked = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forked.append(pid)
    return pid
os.fork = fork

variants, traces, _ = t._batch()
def run():
    del forked[:]
    digest = t._digest(t._simulate(variants, traces))
    return {"n": len(forked), "digest": digest}

out = {"cores": len(os.sched_getaffinity(0)), "plain": run()}

stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
out["thread"] = run()
stop.set()
thread.join(60)

cores = os.sched_getaffinity(0)
os.sched_setaffinity(0, {min(cores)})
out["affinity_1"] = run()
os.sched_setaffinity(0, cores)

spmu_array.mark_executor_worker()
out["executor_worker"] = run()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, tests_dir],
        capture_output=True,
        text=True,
        env=_worker_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestFreshInterpreter:
    def test_real_guard_fans_out_with_the_same_digest(self, fresh, serial):
        assert fresh["plain"]["digest"] == _digest(serial[3])
        if fresh["cores"] > 1:
            assert fresh["plain"]["n"] >= 1
        else:
            assert fresh["plain"]["n"] == 0

    @pytest.mark.parametrize("condition", ["thread", "affinity_1", "executor_worker"])
    def test_refusal_forks_nothing(self, fresh, serial, condition):
        assert fresh[condition]["n"] == 0
        assert fresh[condition]["digest"] == _digest(serial[3])


class TestShareCount:
    def test_small_batches_stay_in_process(self):
        assert spmu_array._share_count([10] * 8) == 1

    def test_live_thread_refuses(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(spmu_array.threading, "active_count", lambda: 2)
        assert spmu_array._share_count([1000] * 8) == 1

    def test_single_core_refuses(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(spmu_array.threading, "active_count", lambda: 1)
        assert spmu_array._share_count([1000] * 8) == 1

    def test_shares_bounded_by_cores_variants_and_work(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(spmu_array.threading, "active_count", lambda: 1)
        assert spmu_array._share_count([1000] * 8) == 4
        assert spmu_array._share_count([1000] * 3) == 3
        assert spmu_array._share_count([600] * 2) == 2
        assert spmu_array._share_count([300] * 3) == 1
