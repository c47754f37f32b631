"""Supervised parallel execution: pool, retries, quarantine, determinism.

The load-bearing property is *jobs-invariance*: a sharded run returns
byte-identical results at any jobs count, through worker crashes,
retries, and out-of-order completion. The hypothesis test SIGKILLs a
randomly chosen worker mid-task and asserts exactly that.
"""

import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.runtime.controller import RunController
from repro.runtime.faults import FaultSpec, plan_to_json
from repro.runtime.pool import in_worker, multiprocessing_available
from repro.runtime.supervisor import (ParallelPlan, current_parallel,
                                      resolve_parallel, run_sharded,
                                      use_parallel)
from repro.runtime.tasks import (Task, TaskResult, backoff_delay,
                                 chunk_ranges)

needs_mp = pytest.mark.skipif(not multiprocessing_available(),
                              reason="multiprocessing unavailable")

#: A fast-failure plan for pool tests (tight heartbeats, tiny backoff).
FAST = dict(heartbeat_s=0.05, backoff_base_s=0.001, backoff_cap_s=0.002)


# -- module-level task functions (workers pickle them by reference) --------


def _square(_state, value):
    return value * value


def _plus_state(state, value):
    return state + value


def _flaky(_state, box, fail_times):
    box["calls"] += 1
    if box["calls"] <= fail_times:
        raise RuntimeError(f"flaky call {box['calls']}")
    return "recovered"


def _fail_until_marker(_state, marker, value):
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("first attempt fails")
    return value * value


def _always_fail(_state):
    raise ValueError("poison shard")


def _sleep_long(_state):
    time.sleep(60.0)
    return "never"  # pragma: no cover


def _busy_square(_state, value):
    time.sleep(0.03)  # long enough for a stream of heartbeats
    return value * value


def _stop_self(_state):
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(60.0)
    return "never"  # pragma: no cover


def _poisoned_energy(_state):
    from repro.power import energy

    return energy.total_energy(None, 0.0, 0.0, {}, 1.0)


def _seam_is_wrapped(_state):
    from repro.power import energy
    from repro.runtime.faults import ORIGINAL_ATTR

    return hasattr(energy.total_energy, ORIGINAL_ATTR)


def _tasks(count, fn=_square):
    return [Task(key=f"t{i}", index=i, fn=fn, args=(i,))
            for i in range(count)]


# -- units: chunking and backoff -------------------------------------------


class TestChunkRanges:
    def test_partitions_exactly(self):
        for total in (0, 1, 5, 10, 97):
            for max_chunks in (1, 2, 3, 8, 200):
                ranges = chunk_ranges(total, max_chunks)
                assert len(ranges) <= max_chunks
                covered = [i for start, stop in ranges
                           for i in range(start, stop)]
                assert covered == list(range(total))

    def test_sizes_balanced_larger_first(self):
        ranges = chunk_ranges(10, 3)
        assert ranges == ((0, 4), (4, 7), (7, 10))
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            chunk_ranges(-1, 2)
        with pytest.raises(OptimizationError):
            chunk_ranges(5, 0)


class TestBackoff:
    def test_exponential_growth_and_cap(self):
        raw = [backoff_delay(n, jitter=0.0) for n in range(1, 8)]
        assert raw[:3] == [0.05, 0.1, 0.2]
        assert raw[-1] == 2.0  # capped

    def test_deterministic_jitter_decorrelates_keys(self):
        assert backoff_delay(2, "a") == backoff_delay(2, "a")
        assert backoff_delay(2, "a") != backoff_delay(2, "b")
        for attempt in range(1, 6):
            raw = backoff_delay(attempt, jitter=0.0)
            jittered = backoff_delay(attempt, "task", jitter=0.5)
            assert 0.75 * raw <= jittered <= 1.25 * raw

    def test_validation(self):
        with pytest.raises(OptimizationError):
            backoff_delay(0)
        with pytest.raises(OptimizationError):
            backoff_delay(1, jitter=1.5)


class TestPlanAndContext:
    def test_plan_validation(self):
        with pytest.raises(OptimizationError):
            ParallelPlan(jobs=0)
        with pytest.raises(OptimizationError):
            ParallelPlan(retries=-1)
        with pytest.raises(OptimizationError):
            ParallelPlan(task_timeout_s=0.0)

    def test_ambient_plan_resolution(self):
        assert current_parallel() is None
        plan = ParallelPlan(jobs=3)
        with use_parallel(plan):
            assert current_parallel() is plan
            assert resolve_parallel(None) is plan
            explicit = ParallelPlan(jobs=2)
            assert resolve_parallel(explicit) is explicit
        assert current_parallel() is None

    def test_workers_refuse_nested_pools(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_WORKER", "1")
        assert in_worker()
        with use_parallel(ParallelPlan(jobs=4)):
            assert current_parallel() is None
            assert resolve_parallel(ParallelPlan(jobs=4)) is None

    def test_duplicate_task_keys_rejected(self):
        tasks = [Task(key="same", index=0, fn=_square, args=(1,)),
                 Task(key="same", index=1, fn=_square, args=(2,))]
        with pytest.raises(OptimizationError, match="duplicate task key"):
            run_sharded(tasks)


# -- in-process execution (jobs=1 and the no-MP fallback) ------------------


class TestSerialExecution:
    def test_values_in_canonical_order(self):
        run = run_sharded(_tasks(5))
        assert run.ok
        assert run.values() == (0, 1, 4, 9, 16)
        assert run.stats.mode == "in-process"
        assert run.stats.completed == 5

    def test_init_state_reaches_every_task(self):
        tasks = [Task(key=f"t{i}", index=i, fn=_plus_state, args=(i,))
                 for i in range(3)]
        run = run_sharded(tasks, init_fn=lambda base: base, init_args=(100,))
        assert run.values() == (100, 101, 102)

    def test_retry_then_recover(self):
        box = {"calls": 0}
        tasks = [Task(key="flaky", index=0, fn=_flaky, args=(box, 2))]
        run = run_sharded(tasks, plan=ParallelPlan(jobs=1, retries=2,
                                                   **FAST))
        (result,) = run.results
        assert result.ok and result.value == "recovered"
        assert result.attempts == 3 and len(result.failures) == 2
        assert run.stats.retried == 2

    def test_quarantine_after_retries_exhausted(self):
        tasks = [Task(key="bad", index=0, fn=_always_fail),
                 Task(key="good", index=1, fn=_square, args=(3,))]
        run = run_sharded(tasks, plan=ParallelPlan(jobs=1, retries=1,
                                                   **FAST))
        bad, good = run.results
        assert bad.status == "quarantined" and bad.attempts == 2
        assert "poison shard" in bad.error
        assert bad.degradation["stage"] == "quarantine"
        assert bad.degradation["task"] == "bad"
        assert good.ok and good.value == 9
        assert not run.ok and run.stats.quarantined == 1
        with pytest.raises(OptimizationError, match="quarantined"):
            run.values()

    def test_stop_after_failure_skips_the_rest(self):
        tasks = [Task(key="bad", index=0, fn=_always_fail),
                 Task(key="late", index=1, fn=_square, args=(2,))]
        run = run_sharded(tasks,
                          plan=ParallelPlan(jobs=1, retries=0,
                                            stop_after_failure=True, **FAST))
        assert [result.status for result in run.results] == \
            ["quarantined", "skipped"]
        assert run.stats.skipped == 1

    def test_mp_unavailable_falls_back_with_warning(self, monkeypatch,
                                                    caplog):
        monkeypatch.setenv("REPRO_NO_MP", "1")
        assert not multiprocessing_available()
        with caplog.at_level("WARNING", logger="repro.runtime.supervisor"):
            run = run_sharded(_tasks(4), plan=ParallelPlan(jobs=4, **FAST))
        assert run.values() == (0, 1, 4, 9)
        assert run.stats.mode == "in-process"
        assert any("multiprocessing unavailable" in record.message
                   for record in caplog.records)


# -- the real pool ---------------------------------------------------------


@needs_mp
class TestPoolExecution:
    def test_pool_matches_serial(self):
        serial = run_sharded(_tasks(9))
        pooled = run_sharded(_tasks(9), plan=ParallelPlan(jobs=3, **FAST))
        assert pooled.values() == serial.values()
        assert pooled.stats.mode == "pool"
        assert pooled.stats.workers == 3

    def test_worker_crash_is_retried_transparently(self):
        plan = ParallelPlan(jobs=2, retries=1, crash_tasks=("t1",), **FAST)
        run = run_sharded(_tasks(4), plan=plan)
        assert run.values() == (0, 1, 4, 9)
        assert run.stats.worker_respawns >= 1
        assert run.stats.retried >= 1

    def test_failing_task_retries_across_processes(self, tmp_path):
        marker = str(tmp_path / "marker")
        tasks = [Task(key="once", index=0, fn=_fail_until_marker,
                      args=(marker, 7))]
        run = run_sharded(tasks, plan=ParallelPlan(jobs=2, retries=2,
                                                   **FAST))
        (result,) = run.results
        assert result.ok and result.value == 49
        assert result.attempts == 2
        assert "first attempt fails" in result.failures[0]

    def test_task_timeout_quarantines_the_hog(self):
        tasks = [Task(key="hog", index=0, fn=_sleep_long, timeout_s=0.3),
                 Task(key="ok", index=1, fn=_square, args=(5,))]
        run = run_sharded(tasks, plan=ParallelPlan(jobs=2, retries=0,
                                                   **FAST))
        hog, fine = run.results
        assert hog.status == "quarantined"
        assert "deadline" in hog.error
        assert fine.ok and fine.value == 25
        assert run.stats.worker_respawns >= 1

    def test_hung_worker_detected_by_heartbeat_loss(self):
        tasks = [Task(key="hung", index=0, fn=_stop_self)]
        plan = ParallelPlan(jobs=2, retries=0, heartbeat_s=0.05,
                            heartbeat_timeout_s=0.4,
                            backoff_base_s=0.001, backoff_cap_s=0.002)
        run = run_sharded(tasks, plan=plan)
        (result,) = run.results
        assert result.status == "quarantined"
        assert "heartbeat" in result.error
        assert run.stats.worker_respawns >= 1

    def test_pool_counters_reach_the_parent_registry(self):
        registry = MetricsRegistry()
        plan = ParallelPlan(jobs=2, retries=1, crash_tasks=("t0",), **FAST)
        with use_metrics(registry):
            run_sharded(_tasks(4), plan=plan)
        counters = registry.counters()
        assert counters["pool.tasks.completed"] == 4
        assert counters["pool.tasks.retried"] >= 1
        assert counters["pool.workers.respawned"] >= 1
        assert counters["pool.workers.started"] >= 2

    def test_worker_lifetime_spans_traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_sharded(_tasks(4), plan=ParallelPlan(jobs=2, **FAST))
        names = [span.name for span in tracer.spans]
        assert "pool.run" in names
        assert names.count("pool.worker") == 2
        (pool_span,) = [span for span in tracer.spans
                        if span.name == "pool.run"]
        assert pool_span.attrs["completed"] == 4

    def test_per_shard_traces_exported(self, tmp_path):
        plan = ParallelPlan(jobs=2, trace_dir=str(tmp_path), **FAST)
        run = run_sharded(_tasks(3), plan=plan)
        assert run.ok
        files = sorted(path.name for path in tmp_path.iterdir())
        assert len(files) == 3
        assert all(name.startswith("shard-") and
                   name.endswith(".trace.jsonl") for name in files)

    def test_fault_plan_armed_inside_workers_only(self):
        from repro.power import energy
        from repro.runtime.faults import ORIGINAL_ATTR

        plan_json = plan_to_json([FaultSpec(seam="energy",
                                            kind="exception",
                                            at_call=1, count=99)])
        tasks = [Task(key="probe", index=0, fn=_seam_is_wrapped),
                 Task(key="victim", index=1, fn=_poisoned_energy)]
        plan = ParallelPlan(jobs=2, retries=1, fault_plan_json=plan_json,
                            **FAST)
        run = run_sharded(tasks, plan=plan)
        probe, victim = run.results
        assert probe.ok and probe.value is True
        assert victim.status == "quarantined"
        assert "FaultInjectedError" in victim.error
        # The parent process never armed the plan.
        assert not hasattr(energy.total_energy, ORIGINAL_ATTR)

    def test_crashes_amid_heartbeats_never_wedge_the_survivors(self):
        """Half the tasks SIGKILL their worker while the others stream
        heartbeats: no kill may silence the surviving workers. The
        deadline turns a wedged pool into a failure, not a hang."""
        tasks = [Task(key=f"t{i}", index=i, fn=_busy_square, args=(i,))
                 for i in range(12)]
        plan = ParallelPlan(jobs=3, retries=1, heartbeat_s=0.001,
                            crash_tasks=tuple(f"t{i}"
                                              for i in range(0, 12, 2)),
                            backoff_base_s=0.001, backoff_cap_s=0.002)
        for _ in range(3):
            run = run_sharded(tasks, plan=plan,
                              controller=RunController(deadline_s=30.0))
            assert run.values() == tuple(i * i for i in range(12))
            assert run.stats.worker_respawns >= 6

    @given(crash=st.integers(min_value=0, max_value=6),
           jobs=st.integers(min_value=2, max_value=4))
    @hsettings(max_examples=5, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])
    def test_killed_worker_never_changes_results(self, crash, jobs):
        """SIGKILL a random worker mid-task: results stay byte-identical."""
        serial = run_sharded(_tasks(7)).values()
        plan = ParallelPlan(jobs=jobs, retries=2,
                            crash_tasks=(f"t{crash}",), **FAST)
        run = run_sharded(_tasks(7), plan=plan)
        assert run.values() == serial
        assert run.stats.worker_respawns >= 1


# -- end-to-end: the optimizer grid under a crashed worker ------------------


@needs_mp
class TestOptimizerIntegration:
    def test_parallel_grid_identical_through_a_crash(self, s27_problem,
                                                     monkeypatch):
        from repro.optimize.heuristic import (HeuristicSettings,
                                              optimize_joint)

        settings = HeuristicSettings(grid_vdd=7, grid_vth=5,
                                     refine_iters=6, refine_rounds=1)
        serial = optimize_joint(s27_problem, settings=settings)
        monkeypatch.setenv("REPRO_POOL_CRASH_TASKS", "first")
        plan = ParallelPlan(jobs=2, retries=2, **FAST)
        with use_parallel(plan):
            pooled = optimize_joint(s27_problem, settings=settings)
        assert pooled.design == serial.design
        assert pooled.total_energy == serial.total_energy
        assert pooled.evaluations == serial.evaluations
        assert pooled.details.get("parallel_jobs") == 2
