"""Fault-plan unit tests: matching, accounting, seams, and the wrapper.

The chaos *invariants* (exactly-once commit, byte-identical cache, ...)
live in ``tests/test_chaos.py``; this file pins the mechanics they rely
on -- a plan that misfires here makes every chaos assertion meaningless.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.runtime import faults
from repro.runtime.executors import LocalExecutor, SubprocessExecutor
from repro.runtime.faults import (
    ENV_FAULT_PLAN,
    Fault,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultyExecutor,
    PermanentFaultInjected,
    UNIT_FAULT_KINDS,
    active_plan,
    install_plan,
)


@pytest.fixture(autouse=True)
def _clean_seams():
    """Every test starts and ends with no plan installed anywhere."""
    install_plan(None)
    os.environ.pop(ENV_FAULT_PLAN, None)
    yield
    install_plan(None)
    os.environ.pop(ENV_FAULT_PLAN, None)


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault(kind="gremlin")

    def test_match_is_payload_subset(self):
        fault = Fault(kind="error", match={"value": 3})
        assert fault.matches({"kind": "probe", "value": 3})
        assert not fault.matches({"kind": "probe", "value": 4})
        assert not fault.matches({"kind": "probe"})

    def test_empty_match_matches_everything(self):
        assert Fault(kind="error").matches({"anything": "at all"})


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [Fault(kind="crash", unit_index=2, times=3, exit_code=9)],
            seed=7,
            state_dir="/tmp/x",
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt.seed == 7
        assert rebuilt.state_dir == "/tmp/x"
        assert rebuilt.faults == plan.faults

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError, match="bad fault plan JSON"):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultPlanError, match="bad fault plan JSON"):
            FaultPlan.from_json('{"faults": [{"kine": "typo"}]}')

    def test_times_bounds_firings(self):
        plan = FaultPlan([Fault(kind="error", times=2)])
        fired = [plan.take(UNIT_FAULT_KINDS, {}) for _ in range(5)]
        assert [fault is not None for fault in fired] == [True, True, False, False, False]

    def test_unit_index_arms_on_nth_match(self):
        plan = FaultPlan([Fault(kind="error", unit_index=2, times=10)])
        fired = [plan.take(UNIT_FAULT_KINDS, {"value": i}) for i in range(4)]
        assert [fault is not None for fault in fired] == [False, False, True, False]

    def test_ordinal_counts_only_matching_payloads(self):
        plan = FaultPlan([Fault(kind="error", match={"app": "bfs"}, unit_index=1)])
        # Non-matching payloads must not advance the ordinal.
        assert plan.take(UNIT_FAULT_KINDS, {"app": "sssp"}) is None
        assert plan.take(UNIT_FAULT_KINDS, {"app": "bfs"}) is None  # ordinal 0
        assert plan.take(UNIT_FAULT_KINDS, {"app": "bfs"}) is not None  # ordinal 1

    def test_probability_is_seed_deterministic(self):
        def decisions(seed):
            plan = FaultPlan([Fault(kind="error", probability=0.5, times=100)], seed=seed)
            return [plan.take(UNIT_FAULT_KINDS, {}) is not None for _ in range(40)]

        first = decisions(seed=1)
        assert decisions(seed=1) == first  # same seed, same plan -> identical
        assert decisions(seed=2) != first  # a different seed moves the draws
        assert 5 <= sum(first) <= 35  # and p=0.5 actually fires sometimes

    def test_state_dir_bounds_firings_across_instances(self, tmp_path):
        # Two plan objects (a worker and its respawn) share the marker
        # directory, so `times` is a global budget, not a per-process one.
        first = FaultPlan([Fault(kind="error", times=2)], state_dir=str(tmp_path))
        second = FaultPlan([Fault(kind="error", times=2)], state_dir=str(tmp_path))
        assert first.take(UNIT_FAULT_KINDS, {}) is not None
        assert second.take(UNIT_FAULT_KINDS, {}) is not None
        assert first.take(UNIT_FAULT_KINDS, {}) is None
        assert second.take(UNIT_FAULT_KINDS, {}) is None


class TestSeams:
    def test_installed_sets_and_restores_both_seams(self):
        plan = FaultPlan([Fault(kind="error")])
        assert active_plan() is None
        with plan.installed():
            assert active_plan() is plan
            assert os.environ[ENV_FAULT_PLAN] == plan.to_json()
        assert active_plan() is None
        assert ENV_FAULT_PLAN not in os.environ

    def test_overlapping_installs_from_two_threads_leave_nothing_installed(self):
        # a holds its install over 0-0.2 s, b over 0.1-0.4 s: a exits first.
        a, b = FaultPlan([Fault(kind="error")], seed=1), FaultPlan([Fault(kind="hang")], seed=2)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def hold_a():
            with a.installed():
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def hold_b():
            a_in.wait(5)
            with b.installed():
                b_in.set()
                a_out.wait(5)
                seen["after_a"] = (active_plan(), os.environ.get(ENV_FAULT_PLAN))

        threads = [threading.Thread(target=hold_a), threading.Thread(target=hold_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen["after_a"] == (b, b.to_json())
        assert active_plan() is None
        assert ENV_FAULT_PLAN not in os.environ

    def test_installs_racing_on_many_threads_leave_nothing_installed(self):
        plans = [FaultPlan([Fault(kind="error")], seed=seed) for seed in range(8)]
        live = set(plans)
        bad = []

        def churn(plan):
            for _ in range(200):
                with plan.installed():
                    if active_plan() not in live:
                        bad.append(active_plan())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(plan,)) for plan in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not bad
        assert active_plan() is None
        assert ENV_FAULT_PLAN not in os.environ

    def test_nested_installs_of_one_plan_unwind_in_order(self):
        a, b = FaultPlan([Fault(kind="error")]), FaultPlan([Fault(kind="hang")])
        with a.installed():
            with b.installed():
                with a.installed():
                    assert active_plan() is a
                assert active_plan() is b
            assert active_plan() is a
        assert active_plan() is None

    def test_env_seam_parse_is_cached(self):
        plan = FaultPlan([Fault(kind="error", times=1)])
        os.environ[ENV_FAULT_PLAN] = plan.to_json()
        seen = active_plan()
        assert seen is not None and seen is active_plan()
        # The cached object keeps its in-memory accounting across calls.
        assert seen.take(UNIT_FAULT_KINDS, {}) is not None
        assert active_plan().take(UNIT_FAULT_KINDS, {}) is None

    def test_inject_error_fault_classifications(self):
        transient = FaultPlan([Fault(kind="error")])
        with transient.installed():
            with pytest.raises(FaultInjected):
                faults.inject_unit_fault({"kind": "probe"})
        permanent = FaultPlan([Fault(kind="error", permanent=True)])
        with permanent.installed():
            with pytest.raises(PermanentFaultInjected):
                faults.inject_unit_fault({"kind": "probe"})

    def test_no_plan_is_a_no_op(self):
        faults.inject_unit_fault({"kind": "probe"})
        faults.inject_startup_fault()
        assert faults.take_protocol_fault({"kind": "probe"}) is None


class TestFaultyExecutor:
    def test_delegates_to_inner(self):
        inner = LocalExecutor(retries=1)
        wrapped = FaultyExecutor(inner, FaultPlan([]))
        assert wrapped.name == "faulty-local"
        assert wrapped.workers == 1
        assert wrapped.retries == 1
        wrapped = FaultyExecutor(SubprocessExecutor(3, timeout_s=2.0), FaultPlan([]))
        assert wrapped.name == "faulty-subprocess"
        assert wrapped.workers == 3
        assert wrapped.timeout_s == 2.0

    def test_with_block_closes_the_inner_executor(self):
        from test_executors import _running

        with FaultyExecutor(SubprocessExecutor(1), FaultPlan([])) as wrapped:
            outcome, = wrapped.run_units([{"kind": "probe", "value": 1}])
            assert _running(outcome.result["pid"])  # the worker outlives the run
        assert not _running(outcome.result["pid"])

    def test_injects_into_run_units(self):
        # One transient error on the second unit: with one retry the wave
        # still completes, and the fault never leaks outside the run.
        plan = FaultPlan([Fault(kind="error", unit_index=1)])
        wrapped = FaultyExecutor(LocalExecutor(retries=1, backoff_s=0.0), plan)
        payloads = [{"kind": "probe", "value": i} for i in range(3)]
        outcomes = wrapped.run_units(payloads)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert [o.attempts for o in outcomes] == [1, 2, 1]
        assert active_plan() is None

    @pytest.mark.parametrize("seam", ["installed", "environment"])
    def test_refuses_to_hide_another_active_plan(self, seam):
        # Installing its own plan would silently drop the outer one for the
        # wave's units and for every worker it spawns.
        outer = FaultPlan([Fault(kind="error", permanent=True)])
        if seam == "installed":
            install_plan(outer)
        else:
            os.environ[ENV_FAULT_PLAN] = outer.to_json()
        wrapped = FaultyExecutor(LocalExecutor(), FaultPlan([Fault(kind="slow", delay_s=0.0)]))
        with pytest.raises(ConfigurationError, match="another fault plan is active"):
            wrapped.run_units([{"kind": "probe", "value": 0}])
        assert active_plan().to_json() == outer.to_json()
        # The executor's own plan, already active, is not another plan.
        same = FaultyExecutor(LocalExecutor(), FaultPlan.from_json(outer.to_json()))
        [outcome] = same.run_units([{"kind": "probe", "value": 0}])
        assert outcome.status == "error"
