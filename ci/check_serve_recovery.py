"""CI gate: the serve daemon must survive a SIGKILL mid-job.

Usage::

    python ci/check_serve_recovery.py [--root DIR] [--circuit s298]

Starts the serve daemon with ``REPRO_KILL_AFTER_SAVES=k``, so that it
SIGKILLs itself right after the solve's k-th checkpoint save, submits a
multi-second job through the file spool, restarts the daemon without
the hook, and asserts:

* the first daemon died by SIGKILL mid-solve, with the job ``RUNNING``
  and its checkpoint on disk,
* every accepted job reaches a terminal state (``DONE``),
* recovery actually executed (``serve.jobs.recovered >= 1`` — a run
  where the kill happened to land after the solve finished proves
  nothing and fails),
* resubmitting the identical request is served from the result cache
  (``serve.cache.hits >= 1``) with byte-identical payload.

Exits nonzero with a one-line diagnosis on any divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runtime.checkpoint import KILL_AFTER_SAVES_ENV

#: The checkpoint save after which the first daemon SIGKILLs itself: a
#: fixed point of the search, well before its end, however fast the
#: engine solves.
KILL_AT_SAVE = 3


def fail(message: str) -> NoReturn:
    print(f"check_serve_recovery: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_daemon(root: Path, *extra: str,
                 kill_at_save: int | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    env.pop(KILL_AFTER_SAVES_ENV, None)
    if kill_at_save is not None:
        env[KILL_AFTER_SAVES_ENV] = str(kill_at_save)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(root), *extra],
        env=env, start_new_session=True)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if (root / "daemon.json").exists() or process.poll() is not None:
            break
        time.sleep(0.05)
    if process.poll() is not None:
        fail(f"daemon exited during startup (rc={process.returncode})")
    return process


def kill_daemon(process: subprocess.Popen) -> None:
    if process.poll() is None:
        try:
            os.killpg(os.getpgid(process.pid), signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait(timeout=30)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="serve-smoke",
                        help="service root directory (default serve-smoke)")
    parser.add_argument("--circuit", default="s298")
    parser.add_argument("--grid", type=int, nargs=2, default=(25, 20),
                        metavar=("VDD", "VTH"),
                        help="search grid; big enough that checkpoint "
                             f"save {KILL_AT_SAVE} comes mid-solve "
                             "(default 25 20)")
    args = parser.parse_args()

    from repro.serve.client import (read_job_status, submit_request,
                                    wait_for_reply, wait_for_terminal)
    from repro.serve.jobs import TERMINAL_STATES, JobRequest

    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    request = JobRequest(circuit=args.circuit, frequency_mhz=100.0,
                         grid_vdd=args.grid[0], grid_vth=args.grid[1])

    print(f"[1/3] daemon up; submitting {args.circuit} on a "
          f"{args.grid[0]}x{args.grid[1]} grid; the daemon SIGKILLs itself "
          f"after checkpoint save {KILL_AT_SAVE}")
    daemon = start_daemon(root, kill_at_save=KILL_AT_SAVE)
    try:
        ticket = submit_request(root, request)
        reply = wait_for_reply(root, ticket, timeout_s=60)
        if reply.get("status") != "accepted":
            fail(f"submission not accepted: {reply}")
        job_id = reply["job_id"]
        try:
            returncode = daemon.wait(timeout=120)
        except subprocess.TimeoutExpired:
            fail(f"the daemon outlived checkpoint save {KILL_AT_SAVE} by "
                 "120 s")
    finally:
        kill_daemon(daemon)
    if returncode != -signal.SIGKILL:
        fail(f"the daemon exited with {returncode}, not by SIGKILL "
             f"({-signal.SIGKILL})")

    status = read_job_status(root, job_id)
    if status["state"] in TERMINAL_STATES:
        fail(f"kill landed after the solve finished ({status['state']}); "
             f"the gate proved nothing — enlarge --grid")
    checkpoint = root / "checkpoints" / f"{job_id}.ckpt"
    if status["state"] != "RUNNING" or not checkpoint.exists():
        fail(f"job died {status['state']} without a flushed checkpoint; "
             "expected RUNNING with one")

    print("[2/3] daemon restarted; waiting for journaled recovery")
    daemon = start_daemon(root, "--max-jobs", "1", "--max-idle", "60")
    try:
        status = wait_for_terminal(root, job_id, timeout_s=300)
    finally:
        daemon.wait(timeout=120)
        kill_daemon(daemon)
    if status["state"] != "DONE":
        fail(f"recovered job ended {status['state']}, expected DONE: "
             f"{status.get('detail')}")
    metrics = json.loads((root / "metrics.json").read_text())
    recovered = metrics["counters"].get("serve.jobs.recovered", 0)
    if recovered < 1:
        fail("serve.jobs.recovered is 0; recovery never executed")
    statuses = [json.loads(path.read_text())
                for path in (root / "jobs").glob("*.json")]
    non_terminal = [s["job_id"] for s in statuses
                    if s["state"] not in TERMINAL_STATES]
    if non_terminal:
        fail(f"jobs left non-terminal after recovery: {non_terminal}")
    if len(statuses) != 1:
        fail(f"expected exactly 1 job after recovery, found "
             f"{[s['job_id'] for s in statuses]}")
    first_bytes = (root / "results" / f"{job_id}.json").read_bytes()

    print("[3/3] resubmitting the identical request; expecting a "
          "cache hit")
    daemon = start_daemon(root, "--max-jobs", "1", "--max-idle", "60")
    try:
        ticket = submit_request(root, request)
        reply = wait_for_reply(root, ticket, timeout_s=60)
        if reply.get("status") != "accepted":
            fail(f"resubmission not accepted: {reply}")
        status = wait_for_terminal(root, reply["job_id"], timeout_s=120)
    finally:
        daemon.wait(timeout=120)
        kill_daemon(daemon)
    if status["state"] != "DONE" or not status["detail"].get("cached"):
        fail(f"resubmission was not a cache hit: {status}")
    metrics = json.loads((root / "metrics.json").read_text())
    hits = metrics["counters"].get("serve.cache.hits", 0)
    if hits < 1:
        fail(f"serve.cache.hits = {hits}; the cache never served")
    hit_bytes = (root / "results"
                 / f"{reply['job_id']}.json").read_bytes()
    if hit_bytes != first_bytes:
        fail("cache hit payload differs from the recovered solve")

    print(f"serve recovery OK: job {job_id} survived SIGKILL "
          f"({recovered} recovered), resubmission served from cache "
          f"({hits} hit(s)), payloads byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
