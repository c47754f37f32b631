"""Crash-isolated worker processes for the supervised pool.

This module owns the *mechanics* of parallel execution — worker process
lifecycles, the message protocol, heartbeats — while
:mod:`repro.runtime.supervisor` owns the *policy* (retries, quarantine,
deadlines, merge order).

Each worker is one OS process with its own task queue; the supervisor
assigns tasks explicitly, so it always knows exactly which task died
with a crashed worker. Each worker reports on its own result pipe,
written by no other process, so a worker killed mid-message can tear
only its own channel; a result queue shared by all workers would leave
its write lock held by the dead process and silence every survivor:

``("ready", worker_id, pid)``
    Init finished; the worker is accepting tasks.
``("started", worker_id, key, attempt)``
    A task began executing (arms the per-task deadline).
``("heartbeat", worker_id, key)``
    Emitted by a worker-side daemon thread every ``heartbeat_s`` while
    a task runs — silence longer than the heartbeat timeout means the
    worker is wedged (stopped, swapping, stuck in C) and gets killed.
``("done", worker_id, key, attempt, value, counters, elapsed_s)``
``("error", worker_id, key, attempt, summary, counters, elapsed_s)``
    Task outcomes. ``counters`` is the worker-side metrics snapshot of
    the attempt, merged into the parent registry so counter totals are
    jobs-invariant.

Workers reset inherited ambient parallelism (no nested pools), arm the
fault-injection plan shipped in :class:`WorkerOptions` (so recovery
paths are testable *inside* subprocesses), and honour the deterministic
crash injection used by the property tests and the CI smoke: a task key
listed in ``crash_tasks`` SIGKILLs the worker on the task's first
attempt — the supervisor must retry it elsewhere and still merge the
exact serial result.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Tuple

from repro.errors import OptimizationError
from repro.runtime.tasks import failure_summary

#: Environment flag set inside pool workers (blocks nested pools).
IN_WORKER_ENV = "REPRO_POOL_WORKER"

#: Env var: comma-separated task keys whose first attempt SIGKILLs the
#: worker (deterministic crash injection; ``first`` = the run's task 0).
CRASH_TASKS_ENV = "REPRO_POOL_CRASH_TASKS"

#: Env var carrying a JSON fault plan armed inside every worker.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

MSG_READY = "ready"
MSG_STARTED = "started"
MSG_HEARTBEAT = "heartbeat"
MSG_DONE = "done"
MSG_ERROR = "error"


@dataclass(frozen=True)
class WorkerOptions:
    """Per-run knobs shipped to every worker at spawn."""

    heartbeat_s: float = 1.0
    #: Mirror worker-side metrics back to the parent registry.
    metrics_enabled: bool = False
    #: Directory for per-shard trace files (None = no shard traces).
    trace_dir: Optional[str] = None
    #: JSON fault plan armed inside the worker (see runtime.faults).
    fault_plan_json: Optional[str] = None
    #: Task keys whose first attempt crashes the worker (tests/CI only).
    crash_tasks: Tuple[str, ...] = ()


def in_worker() -> bool:
    """True inside a pool worker process (nested pools are refused)."""
    return os.environ.get(IN_WORKER_ENV) == "1"


def multiprocessing_available(start_method: Optional[str] = None) -> bool:
    """Can this interpreter actually run a process pool?

    Restricted sandboxes commonly fail at semaphore or pipe creation,
    not at import — so probe by building the primitives a pool needs.
    """
    if os.environ.get("REPRO_NO_MP") == "1":
        return False
    try:
        context = _pool_context(start_method)
        queue = context.SimpleQueue()
        queue.close()
    except Exception:  # noqa: BLE001 - any failure means "unavailable"
        return False
    return True


def _pool_context(start_method: Optional[str] = None):
    """The multiprocessing context the pool runs on.

    ``fork`` is preferred where offered: workers inherit the parent's
    loaded modules (and test monkeypatches) and start in milliseconds.
    Elsewhere the platform default applies; everything crossing the
    queues is picklable either way.
    """
    import multiprocessing

    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- worker side -----------------------------------------------------------


class _ResultChannel:
    """A worker's write end of its result pipe.

    Sends are synchronous, and a thread lock keeps the heartbeat thread
    from interleaving with the task thread's messages.
    """

    def __init__(self, connection):
        self._connection = connection
        self._lock = threading.Lock()

    def put(self, message: tuple) -> None:
        with self._lock:
            self._connection.send(message)


def _heartbeat_loop(results: _ResultChannel, worker_id: int, key: str,
                    interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            results.put((MSG_HEARTBEAT, worker_id, key))
        except Exception:  # pragma: no cover - parent gone mid-send
            return


def _run_attempt(state, fn, args, options: WorkerOptions, key: str,
                 attempt: int):
    """Execute one task attempt under its own observability scope.

    Returns ``(value, counters)``; the per-attempt metrics registry and
    (optional) per-shard tracer keep worker-side instrumentation from
    interleaving between concurrent shards.
    """
    from repro.obs.metrics import MetricsRegistry, use_metrics
    from repro.obs.trace import Tracer, use_tracer

    registry = MetricsRegistry() if options.metrics_enabled else None
    tracer = Tracer() if options.trace_dir is not None else None
    try:
        with ExitStack() as stack:
            if registry is not None:
                stack.enter_context(use_metrics(registry))
            if tracer is not None:
                stack.enter_context(use_tracer(tracer))
                stack.enter_context(
                    tracer.span("shard", key=key, attempt=attempt,
                                pid=os.getpid()))
            value = fn(state, *args)
    finally:
        if tracer is not None:
            from pathlib import Path

            safe = "".join(c if c.isalnum() or c in "-_." else "_"
                           for c in key)
            tracer.export_jsonl(
                Path(options.trace_dir)
                / f"shard-{safe}.attempt{attempt}.trace.jsonl",
                metrics=registry)
    counters = registry.counters() if registry is not None else {}
    return value, counters


def worker_main(worker_id: int, init_fn, init_args,
                task_queue, result_connection,
                options: WorkerOptions) -> None:
    """Entry point of one pool worker process."""
    os.environ[IN_WORKER_ENV] = "1"
    results = _ResultChannel(result_connection)
    injector = None
    try:
        if options.fault_plan_json:
            from repro.runtime.faults import FaultInjector, plan_from_json

            injector = FaultInjector(plan_from_json(options.fault_plan_json))
            injector.arm()
        try:
            state = init_fn(*init_args) if init_fn is not None else None
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            results.put((MSG_ERROR, worker_id, None, 0,
                         failure_summary(error), {}, 0.0))
            return
        results.put((MSG_READY, worker_id, os.getpid()))
        crash_keys = frozenset(options.crash_tasks)

        while True:
            item = task_queue.get()
            if item is None:
                return
            key, _index, fn, args, attempt = item
            results.put((MSG_STARTED, worker_id, key, attempt))
            if key in crash_keys and attempt == 1:
                # Deterministic mid-task crash (tests/CI): die the hard
                # way, exactly like an OOM kill — no cleanup, no result.
                os.kill(os.getpid(), signal.SIGKILL)
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(results, worker_id, key,
                      options.heartbeat_s, stop),
                daemon=True)
            beat.start()
            start = time.perf_counter()
            try:
                value, counters = _run_attempt(state, fn, args, options,
                                               key, attempt)
                results.put((MSG_DONE, worker_id, key, attempt, value,
                             counters, time.perf_counter() - start))
            except BaseException as error:  # noqa: BLE001 - isolation
                results.put((MSG_ERROR, worker_id, key, attempt,
                             failure_summary(error), {},
                             time.perf_counter() - start))
            finally:
                stop.set()
    finally:
        if injector is not None:
            injector.disarm()


# -- parent side -----------------------------------------------------------


@dataclass
class WorkerHandle:
    """Parent-side record of one worker process."""

    worker_id: int
    process: object
    task_queue: object
    #: Read end of the worker's private result pipe.
    results: object
    #: None while idle, else (key, index, attempt, assigned_monotonic).
    running: Optional[Tuple[str, int, int, float]] = None
    #: True once the worker's init completed.
    ready: bool = False
    #: Monotonic time of the last started/heartbeat/ready signal.
    last_signal: float = field(default_factory=time.monotonic)
    #: Monotonic spawn time (feeds the worker-lifetime spans).
    spawned_at: float = field(default_factory=time.monotonic)
    tasks_done: int = 0

    @property
    def idle(self) -> bool:
        return self.ready and self.running is None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def assign(self, task, attempt: int) -> None:
        if self.running is not None:
            raise OptimizationError(
                f"worker {self.worker_id} is already running "
                f"{self.running[0]!r}")
        now = time.monotonic()
        self.running = (task.key, task.index, attempt, now)
        self.last_signal = now
        self.task_queue.put((task.key, task.index, task.fn, task.args,
                             attempt))

    def kill(self) -> None:
        """SIGKILL the worker (used for hangs/timeouts) and reap it."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)

    def shutdown(self, grace_s: float = 1.0) -> None:
        """Politely stop an idle worker, escalating to SIGKILL."""
        try:
            if self.process.is_alive():
                self.task_queue.put(None)
        except Exception:  # pragma: no cover - queue already broken
            pass
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)


class ProcessPool:
    """Spawns, tracks, respawns, and tears down worker processes."""

    def __init__(self, jobs: int, init_fn, init_args,
                 options: WorkerOptions,
                 start_method: Optional[str] = None):
        self._context = _pool_context(start_method)
        self._init_fn = init_fn
        self._init_args = init_args
        self._options = options
        self._next_worker_id = 0
        self.workers: dict[int, WorkerHandle] = {}
        #: Workers that have been replaced or shut down (lifetime stats).
        self.retired: list[WorkerHandle] = []
        for _ in range(jobs):
            self.spawn()

    def spawn(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._context.SimpleQueue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_main,
            args=(worker_id, self._init_fn, self._init_args,
                  task_queue, writer, self._options),
            daemon=True,
            name=f"repro-pool-{worker_id}")
        process.start()
        # The worker now holds the only write end, so its death reads
        # as end-of-file here.
        writer.close()
        handle = WorkerHandle(worker_id=worker_id, process=process,
                              task_queue=task_queue, results=reader)
        self.workers[worker_id] = handle
        return handle

    def respawn(self, worker_id: int) -> WorkerHandle:
        """Replace a dead/killed worker with a fresh process."""
        self.retire(worker_id)
        return self.spawn()

    def retire(self, worker_id: int) -> None:
        """Kill and reap one worker without replacing it."""
        old = self.workers.pop(worker_id)
        old.kill()
        old.results.close()
        self.retired.append(old)

    def receive(self, timeout: float) -> List[tuple]:
        """Every message the workers have sent, waiting up to
        ``timeout`` for the first."""
        open_pipes = {handle.results: handle
                      for handle in self.workers.values()
                      if not handle.results.closed}
        messages: List[tuple] = []
        for pipe in wait(list(open_pipes), timeout):
            messages.extend(self.read(open_pipes[pipe]))
        return messages

    @staticmethod
    def read(handle: WorkerHandle) -> List[tuple]:
        """The complete messages waiting in one worker's pipe; a pipe at
        end-of-file (the worker exited) is closed."""
        messages: List[tuple] = []
        pipe = handle.results
        try:
            while not pipe.closed and pipe.poll():
                messages.append(pipe.recv())
        except (EOFError, OSError):
            pipe.close()
        return messages

    def close(self) -> None:
        for handle in self.workers.values():
            handle.shutdown()
            handle.results.close()
            self.retired.append(handle)
        self.workers.clear()
