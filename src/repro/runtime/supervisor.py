"""The supervised parallel executor: retries, quarantine, determinism.

:func:`run_sharded` executes a list of pure :class:`~repro.runtime.tasks.Task`
shards — (Vdd, Vth) grid chunks, experiments, Monte-Carlo batches —
on a crash-isolated :class:`~repro.runtime.pool.ProcessPool` and merges
the outcomes in canonical (index) order. The policy it enforces:

* **crash recovery** — a worker that dies mid-task (SIGKILL, OOM,
  segfault) is respawned and the task retried on a fresh process;
* **hang detection** — workers heartbeat while running; silence beyond
  the heartbeat timeout, or exceeding the per-task deadline, gets the
  worker killed and the task retried;
* **retry with backoff** — failed attempts reschedule after
  :func:`~repro.runtime.tasks.backoff_delay` (exponential, capped,
  deterministic jitter), up to ``retries`` retries;
* **poison-task quarantine** — a task that fails every allowed attempt
  is reported as a labeled quarantined :class:`TaskResult` (mirroring
  ``DegradedResult``), never silently dropped;
* **jobs-invariance** — shard functions are pure and merge order is
  canonical, so ``jobs=8`` with injected crashes produces byte-identical
  results to ``jobs=1`` serial.

Parallelism reaches the optimizers the same way controllers and metrics
do: ambiently. ``use_parallel(ParallelPlan(jobs=4))`` installs a plan;
code at a shardable seam calls :func:`resolve_parallel` and hands its
tasks to :func:`run_sharded`. Inside a pool worker ``resolve_parallel``
always returns ``None`` — nested pools are refused, inner seams simply
run serially.

When multiprocessing is unavailable (restricted sandboxes) the run
degrades to in-process serial execution with the same retry/quarantine
policy, logging a warning rather than failing.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DeadlineExceeded, OptimizationError, RunCancelled
from repro.obs.instrument import (POOL_TASKS_COMPLETED, POOL_TASKS_QUARANTINED,
                                  POOL_TASKS_RETRIED, POOL_WORKER_RESPAWNS,
                                  POOL_WORKERS_STARTED)
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer
from repro.runtime.controller import RunController, resolve_controller
from repro.runtime.pool import (CRASH_TASKS_ENV, FAULT_PLAN_ENV, MSG_DONE,
                                MSG_ERROR, MSG_HEARTBEAT, MSG_READY,
                                MSG_STARTED, ProcessPool, WorkerOptions,
                                in_worker, multiprocessing_available)
from repro.runtime.tasks import (PoolStats, ShardedRun, Task, TaskResult,
                                 backoff_delay, failure_summary)

logger = logging.getLogger("repro.runtime.supervisor")

#: Poll interval of the supervisor event loop (seconds).
_POLL_S = 0.02


@dataclass(frozen=True)
class ParallelPlan:
    """How a sharded run should execute.

    ``jobs=1`` is a meaningful plan: in-process execution but with the
    same retry/quarantine policy. ``active`` is what shardable seams
    check before paying any sharding overhead.
    """

    jobs: int = 1
    #: Retries per task after its first attempt (0 = fail fast to
    #: quarantine).
    retries: int = 2
    #: Default per-task wall-clock budget (None = unbounded); a task's
    #: own ``timeout_s`` overrides it.
    task_timeout_s: Optional[float] = None
    #: Worker heartbeat period while a task runs.
    heartbeat_s: float = 0.5
    #: Silence longer than this marks a worker hung (None = derived:
    #: ``max(5 s, 10 x heartbeat_s)``).
    heartbeat_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Directory for per-shard trace files (None = no shard traces).
    trace_dir: Optional[str] = None
    #: JSON fault plan armed inside every worker (tests/CI).
    fault_plan_json: Optional[str] = None
    #: Task keys whose first attempt crashes their worker (tests/CI).
    crash_tasks: Tuple[str, ...] = ()
    #: Stop dispatching after the first quarantined task (fail fast);
    #: undispatched tasks finish as ``"skipped"``.
    stop_after_failure: bool = False
    #: Multiprocessing start method override (None = fork when offered).
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise OptimizationError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise OptimizationError(
                f"retries must be >= 0, got {self.retries}")
        if self.heartbeat_s <= 0.0:
            raise OptimizationError(
                f"heartbeat_s must be > 0, got {self.heartbeat_s}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0.0:
            raise OptimizationError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}")

    @property
    def active(self) -> bool:
        """Should a shardable seam bother sharding at all?"""
        return self.jobs > 1

    @property
    def hang_timeout_s(self) -> float:
        if self.heartbeat_timeout_s is not None:
            return self.heartbeat_timeout_s
        return max(5.0, 10.0 * self.heartbeat_s)


#: Ambient plan for the current thread/task (see use_parallel).
_CURRENT: ContextVar[Optional[ParallelPlan]] = ContextVar(
    "repro_parallel_plan", default=None)


def current_parallel() -> Optional[ParallelPlan]:
    """The ambient plan installed by :func:`use_parallel`, if any."""
    if in_worker():
        return None
    return _CURRENT.get()


def resolve_parallel(explicit: Optional[ParallelPlan] = None
                     ) -> Optional[ParallelPlan]:
    """The plan a shardable seam should use: explicit wins over ambient.

    Always ``None`` inside a pool worker — nested pools are refused, so
    inner shardable seams transparently run serially.
    """
    if in_worker():
        return None
    return explicit if explicit is not None else _CURRENT.get()


@contextlib.contextmanager
def use_parallel(plan: Optional[ParallelPlan]
                 ) -> Iterator[Optional[ParallelPlan]]:
    """Install ``plan`` as the ambient parallel plan for this context."""
    token = _CURRENT.set(plan)
    try:
        yield plan
    finally:
        _CURRENT.reset(token)


# -- env-driven test/CI injection ------------------------------------------


def _crash_tasks(plan: ParallelPlan, tasks: Sequence[Task]
                 ) -> Tuple[str, ...]:
    """The plan's crash keys plus any from ``REPRO_POOL_CRASH_TASKS``.

    The env sentinel ``first`` names the run's first task without the
    caller having to know its key — how CI injects "kill one worker
    mid-run" into an arbitrary sweep.
    """
    keys = list(plan.crash_tasks)
    raw = os.environ.get(CRASH_TASKS_ENV, "")
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "first":
            keys.append(tasks[0].key)
        else:
            keys.append(item)
    return tuple(dict.fromkeys(keys))


def _fault_plan_json(plan: ParallelPlan) -> Optional[str]:
    return plan.fault_plan_json or os.environ.get(FAULT_PLAN_ENV) or None


# -- the public entry point ------------------------------------------------


def run_sharded(tasks: Sequence[Task],
                init_fn: Optional[Callable] = None,
                init_args: Tuple = (),
                plan: Optional[ParallelPlan] = None,
                controller: Optional[RunController] = None,
                on_result: Optional[Callable[[TaskResult], None]] = None,
                what: str = "sharded run") -> ShardedRun:
    """Execute ``tasks`` under supervision and merge canonically.

    ``init_fn(*init_args)`` runs once per worker (and once for the
    in-process path); its return value is the ``state`` every task
    function receives. ``on_result`` fires as each task reaches a final
    state — in **completion order**, not canonical order — which is how
    the optimizers record finished shards into their checkpoint.
    ``controller`` (explicit or ambient) bounds the whole run; a
    deadline or cancellation propagates after the pool is torn down.
    """
    tasks = list(tasks)
    seen_keys = set()
    for task in tasks:
        if task.key in seen_keys:
            raise OptimizationError(
                f"duplicate task key {task.key!r} in {what}")
        seen_keys.add(task.key)
    stats = PoolStats()
    if not tasks:
        return ShardedRun([], stats)

    plan = plan if plan is not None else ParallelPlan(jobs=1)
    controller = resolve_controller(controller)
    metrics = current_metrics()
    tracer = current_tracer()

    use_pool = plan.jobs > 1 and not in_worker()
    if use_pool and not multiprocessing_available(plan.start_method):
        logger.warning(
            "multiprocessing unavailable; running %s in-process "
            "(%d tasks, requested jobs=%d)", what, len(tasks), plan.jobs)
        use_pool = False

    with tracer.span("pool.run", what=what, tasks=len(tasks),
                     jobs=plan.jobs if use_pool else 1,
                     mode="pool" if use_pool else "in-process") as span:
        if use_pool:
            run = _run_pool(tasks, init_fn, init_args, plan, controller,
                            on_result, metrics, tracer, stats, what)
        else:
            run = _run_serial(tasks, init_fn, init_args, plan, controller,
                              on_result, metrics, stats, what)
        span.annotate(completed=stats.completed, retried=stats.retried,
                      quarantined=stats.quarantined, skipped=stats.skipped,
                      respawns=stats.worker_respawns)
    return run


# -- in-process fallback ---------------------------------------------------


def _run_serial(tasks, init_fn, init_args, plan, controller, on_result,
                metrics, stats, what) -> ShardedRun:
    """The degraded path: same policy, one process, no preemption.

    Worker-crash injection and per-task timeouts need process isolation
    and are inert here; retries, backoff pacing, and quarantine behave
    identically to the pool.
    """
    stats.mode = "in-process"
    state = init_fn(*init_args) if init_fn is not None else None
    results: List[TaskResult] = []
    stopped = False
    for task in tasks:
        if stopped:
            results.append(TaskResult(key=task.key, index=task.index,
                                      status="skipped"))
            stats.skipped += 1
            continue
        if controller is not None:
            controller.check(what)
        failures: List[str] = []
        result: Optional[TaskResult] = None
        for attempt in range(1, plan.retries + 2):
            start = time.perf_counter()
            try:
                value = task.fn(state, *task.args)
            except (DeadlineExceeded, RunCancelled):
                raise  # control flow, not a task fault
            except Exception as error:  # noqa: BLE001 - isolation boundary
                failures.append(failure_summary(error))
                if attempt <= plan.retries:
                    stats.retried += 1
                    metrics.incr(POOL_TASKS_RETRIED)
                    time.sleep(backoff_delay(
                        attempt, task.key,
                        base_s=plan.backoff_base_s,
                        cap_s=plan.backoff_cap_s))
                continue
            result = TaskResult(key=task.key, index=task.index, status="ok",
                                value=value, attempts=attempt,
                                elapsed_s=time.perf_counter() - start,
                                failures=tuple(failures))
            break
        if result is None:
            result = TaskResult(key=task.key, index=task.index,
                                status="quarantined", error=failures[-1],
                                attempts=plan.retries + 1,
                                failures=tuple(failures))
            stats.quarantined += 1
            metrics.incr(POOL_TASKS_QUARANTINED)
            if plan.stop_after_failure:
                stopped = True
        else:
            stats.completed += 1
            metrics.incr(POOL_TASKS_COMPLETED)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return ShardedRun(results, stats)


# -- the pool supervisor ---------------------------------------------------


class _TaskState:
    """Supervisor-side bookkeeping of one task."""

    __slots__ = ("task", "attempts", "failures")

    def __init__(self, task: Task):
        self.task = task
        self.attempts = 0
        self.failures: List[str] = []


def _run_pool(tasks, init_fn, init_args, plan, controller, on_result,
              metrics, tracer, stats, what) -> ShardedRun:
    stats.mode = "pool"
    crash_keys = _crash_tasks(plan, tasks)
    options = WorkerOptions(heartbeat_s=plan.heartbeat_s,
                            metrics_enabled=metrics.enabled,
                            trace_dir=plan.trace_dir,
                            fault_plan_json=_fault_plan_json(plan),
                            crash_tasks=crash_keys)
    jobs = min(plan.jobs, len(tasks))
    pool = ProcessPool(jobs, init_fn, init_args, options,
                       start_method=plan.start_method)
    stats.workers = jobs
    metrics.incr(POOL_WORKERS_STARTED, jobs)
    # Far above any legitimate respawn need; a worker that dies before
    # becoming ready on every spawn would otherwise loop forever.
    respawn_budget = (plan.retries + 1) * len(tasks) + 3 * jobs

    states: Dict[str, _TaskState] = {task.key: _TaskState(task)
                                     for task in tasks}
    #: (task, not-before monotonic time), dispatch-eligible work.
    pending: List[Tuple[Task, float]] = [(task, 0.0) for task in tasks]
    results: Dict[str, TaskResult] = {}
    stopped = False

    def finish(result: TaskResult) -> None:
        results[result.key] = result
        if on_result is not None:
            on_result(result)

    def task_failed(state: _TaskState, summary: str, now: float) -> None:
        nonlocal stopped
        state.failures.append(summary)
        if state.attempts <= plan.retries:
            stats.retried += 1
            metrics.incr(POOL_TASKS_RETRIED)
            delay = backoff_delay(state.attempts, state.task.key,
                                  base_s=plan.backoff_base_s,
                                  cap_s=plan.backoff_cap_s)
            pending.append((state.task, now + delay))
        else:
            stats.quarantined += 1
            metrics.incr(POOL_TASKS_QUARANTINED)
            finish(TaskResult(key=state.task.key, index=state.task.index,
                              status="quarantined",
                              error=state.failures[-1],
                              attempts=state.attempts,
                              failures=tuple(state.failures)))
            if plan.stop_after_failure:
                stopped = True

    def handle_messages(messages: List[tuple]) -> None:
        for message in messages:
            _handle_message(message, pool, states, results, plan, metrics,
                            stats, finish, task_failed, what)

    def reap(worker_id: int, reason: str, now: float) -> None:
        """A worker died or was killed mid-task: fail the task, replace
        the worker if unfinished work still needs a seat."""
        handle = pool.workers.get(worker_id)
        if handle is None:
            return
        running = handle.running
        if running is not None:
            key = running[0]
            state = states[key]
            if key not in results:
                task_failed(state, f"{reason} (attempt {running[2]} "
                                   f"of task {key!r})", now)
        busy_elsewhere = sum(
            1 for other in pool.workers.values()
            if other.worker_id != worker_id and other.running is not None)
        unfinished = len(tasks) - len(results)
        stats.worker_respawns += 1
        metrics.incr(POOL_WORKER_RESPAWNS)
        if respawn_budget <= stats.worker_respawns:
            pool.retire(worker_id)
            raise OptimizationError(
                f"{what}: worker respawn budget exhausted "
                f"({stats.worker_respawns} respawns) — workers are dying "
                f"before completing work")
        if unfinished > busy_elsewhere and not stopped:
            pool.respawn(worker_id)
        else:
            pool.retire(worker_id)

    try:
        while len(results) < len(tasks):
            if stopped:
                for key, state in states.items():
                    if key not in results:
                        stats.skipped += 1
                        finish(TaskResult(key=key, index=state.task.index,
                                          status="skipped",
                                          attempts=state.attempts,
                                          failures=tuple(state.failures)))
                break
            if controller is not None:
                controller.check(what)
            now = time.monotonic()

            # Dispatch eligible pending tasks onto idle ready workers.
            idle = [handle for handle in pool.workers.values()
                    if handle.idle and handle.alive]
            for handle in idle:
                chosen = next(
                    (entry for entry in pending
                     if entry[1] <= now and entry[0].key not in results),
                    None)
                if chosen is None:
                    break
                pending.remove(chosen)
                task = chosen[0]
                state = states[task.key]
                state.attempts += 1
                handle.assign(task, state.attempts)

            # Pump worker messages.
            handle_messages(pool.receive(timeout=_POLL_S))

            # Health sweep: crashes, per-task timeouts, lost heartbeats.
            now = time.monotonic()
            for worker_id in list(pool.workers):
                handle = pool.workers.get(worker_id)
                if handle is None:
                    continue
                if not handle.alive:
                    # What it sent before dying still counts.
                    handle_messages(pool.read(handle))
                    reap(worker_id, "worker crashed", now)
                    continue
                if handle.running is None:
                    continue
                key, _index, _attempt, started_at = handle.running
                timeout = states[key].task.timeout_s
                if timeout is None:
                    timeout = plan.task_timeout_s
                if timeout is not None and now - started_at > timeout:
                    reap(worker_id,
                         f"task deadline of {timeout:.3g} s exceeded", now)
                    continue
                if now - handle.last_signal > plan.hang_timeout_s:
                    reap(worker_id,
                         f"no heartbeat for {plan.hang_timeout_s:.3g} s "
                         f"(worker hung)", now)
    finally:
        pool.close()
        now = time.monotonic()
        if tracer.enabled:
            for handle in pool.retired:
                with tracer.span("pool.worker",
                                 worker_id=handle.worker_id,
                                 tasks=handle.tasks_done,
                                 lifetime_s=round(now - handle.spawned_at,
                                                  6)):
                    pass

    return ShardedRun(list(results.values()), stats)


def _handle_message(message, pool, states, results, plan, metrics, stats,
                    finish, task_failed, what) -> None:
    kind = message[0]
    now = time.monotonic()
    if kind == MSG_READY:
        _kind, worker_id, _pid = message
        handle = pool.workers.get(worker_id)
        if handle is not None:
            handle.ready = True
            handle.last_signal = now
        return
    if kind == MSG_STARTED:
        _kind, worker_id, key, attempt = message
        handle = pool.workers.get(worker_id)
        if handle is not None and handle.running is not None \
                and handle.running[0] == key \
                and handle.running[2] == attempt:
            # Re-arm the per-task deadline from actual execution start
            # (queue latency does not count against the task).
            handle.running = (key, handle.running[1], attempt, now)
            handle.last_signal = now
        return
    if kind == MSG_HEARTBEAT:
        _kind, worker_id, key = message
        handle = pool.workers.get(worker_id)
        if handle is not None and handle.running is not None \
                and handle.running[0] == key:
            handle.last_signal = now
        return
    if kind == MSG_DONE:
        _kind, worker_id, key, attempt, value, counters, elapsed_s = message
        _mark_worker_idle(pool, worker_id, key, now)
        if key in results:
            return  # duplicate (late result of a worker we gave up on)
        for name, amount in counters.items():
            metrics.incr(name, amount)
        state = states[key]
        stats.completed += 1
        metrics.incr(POOL_TASKS_COMPLETED)
        finish(TaskResult(key=key, index=state.task.index, status="ok",
                          value=value, attempts=attempt,
                          elapsed_s=elapsed_s,
                          failures=tuple(state.failures)))
        return
    if kind == MSG_ERROR:
        _kind, worker_id, key, _attempt, summary, counters, _elapsed = message
        if key is None:
            raise OptimizationError(
                f"{what}: worker initialization failed — {summary}")
        _mark_worker_idle(pool, worker_id, key, now)
        if key in results:
            return
        for name, amount in counters.items():
            metrics.incr(name, amount)
        task_failed(states[key], summary, now)
        return
    raise OptimizationError(
        f"unknown pool message kind {kind!r}")  # pragma: no cover


def _mark_worker_idle(pool, worker_id, key, now) -> None:
    handle = pool.workers.get(worker_id)
    if handle is not None and handle.running is not None \
            and handle.running[0] == key:
        handle.running = None
        handle.last_signal = now
        handle.tasks_done += 1

