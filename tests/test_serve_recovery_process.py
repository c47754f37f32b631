"""Crash recovery under a real SIGKILL, across daemon processes.

The property, in PR-4 style: SIGKILL the serve daemon mid-solve, at a
seed-varied moment; a restarted daemon must bring every accepted job
to a terminal state, never lose or duplicate one, and produce a
result byte-identical to an uninterrupted run. A resubmission of the
finished request must then be a cache hit that never touches the pool.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import (read_job_status, submit_request,
                                wait_for_reply, wait_for_terminal)
from repro.serve.jobs import TERMINAL_STATES, JobRequest
from repro.serve.service import OptimizationService

#: s298 on a 50x30 grid runs for seconds — a SIGKILL lands mid-solve.
#: The grid is sized for the fastest engine (batch, about 1.2 s on a
#: 2-vCPU x86 host), so the seeded 0.1-0.6 s kill delay still falls
#: before the solve ends under every ``REPRO_ENGINE``.
SLOW = dict(circuit="s298", frequency_mhz=100.0, grid_vdd=50, grid_vth=30)


def daemon_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_daemon(root, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(root), *extra],
        env=daemon_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    daemon_file = Path(root) / "daemon.json"
    while time.monotonic() < deadline:
        if daemon_file.exists() or process.poll() is not None:
            break
        time.sleep(0.05)
    assert process.poll() is None, "serve daemon died during startup"
    return process

def kill_daemon(process):
    """SIGKILL the daemon's whole process group — no cleanup handlers."""
    if process.poll() is None:
        try:
            os.killpg(os.getpgid(process.pid), signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait(timeout=10)


def wait_for(predicate, timeout_s=60, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


@pytest.mark.slow
def test_sigkill_mid_solve_recovers_and_then_caches(tmp_path):
    root = tmp_path / "serve"
    root.mkdir()

    # The uninterrupted reference, in process: the recovered result
    # must be byte-identical to this one.
    reference = OptimizationService(tmp_path / "ref",
                                    registry=MetricsRegistry())
    ref_job = reference.submit(JobRequest(**SLOW))
    reference.step()
    reference.close()
    ref_bytes = (tmp_path / "ref" / "results"
                 / f"{ref_job.job_id}.json").read_bytes()

    daemon = start_daemon(root)
    try:
        ticket = submit_request(root, JobRequest(**SLOW))
        reply = wait_for_reply(root, ticket, timeout_s=60)
        assert reply["status"] == "accepted"
        job_id = reply["job_id"]

        # Kill only once the solve has both started *and* checkpointed,
        # so the restart genuinely resumes mid-search. The extra delay
        # is seed-varied so reruns kill at different corners.
        checkpoint = root / "checkpoints" / f"{job_id}.ckpt"
        wait_for(lambda: read_job_status(root, job_id) is not None
                 and read_job_status(root, job_id)["state"] == "RUNNING"
                 and checkpoint.exists(),
                 what="job running with a checkpoint")
        time.sleep(random.Random(0).uniform(0.1, 0.6))
        kill_daemon(daemon)

        status = read_job_status(root, job_id)
        assert status["state"] not in TERMINAL_STATES  # died mid-flight
    finally:
        kill_daemon(daemon)

    # Restart: recovery replays the journal, re-enqueues, resumes.
    daemon = start_daemon(root, "--max-jobs", "1", "--max-idle", "30")
    try:
        status = wait_for_terminal(root, job_id, timeout_s=120)
    finally:
        daemon.wait(timeout=60)
        kill_daemon(daemon)
    assert status["state"] == "DONE"
    assert status["detail"]["cached"] is False
    metrics = json.loads((root / "metrics.json").read_text())
    assert metrics["counters"]["serve.jobs.recovered"] >= 1

    # No job lost, none duplicated: exactly one job, terminal.
    statuses = [json.loads(path.read_text())
                for path in (root / "jobs").glob("*.json")]
    assert [s["job_id"] for s in statuses] == [job_id]

    # The resumed result is byte-identical to the uninterrupted run
    # (job ids differ; the payload bytes must not).
    recovered_bytes = (root / "results" / f"{job_id}.json").read_bytes()
    assert recovered_bytes == ref_bytes

    # Resubmission of the identical request: served from the cache,
    # without a solve.
    daemon = start_daemon(root, "--max-jobs", "1", "--max-idle", "30")
    try:
        ticket = submit_request(root, JobRequest(**SLOW))
        reply = wait_for_reply(root, ticket, timeout_s=60)
        resubmitted = wait_for_terminal(root, reply["job_id"],
                                        timeout_s=60)
    finally:
        daemon.wait(timeout=60)
        kill_daemon(daemon)
    assert resubmitted["state"] == "DONE"
    assert resubmitted["detail"]["cached"] is True
    metrics = json.loads((root / "metrics.json").read_text())
    assert metrics["counters"]["serve.cache.hits"] >= 1
    hit_bytes = (root / "results"
                 / f"{reply['job_id']}.json").read_bytes()
    assert hit_bytes == ref_bytes


@pytest.mark.slow
def test_repeated_kills_never_lose_a_job(tmp_path):
    """Two kill/restart rounds at seed-varied delays, then converge."""
    root = tmp_path / "serve"
    root.mkdir()
    rng = random.Random(1)

    daemon = start_daemon(root)
    try:
        ticket = submit_request(root, JobRequest(**SLOW))
        reply = wait_for_reply(root, ticket, timeout_s=60)
        job_id = reply["job_id"]
        wait_for(lambda: (root / "checkpoints"
                          / f"{job_id}.ckpt").exists(),
                 what="first checkpoint flush")
    finally:
        kill_daemon(daemon)

    for _round in range(2):
        daemon = start_daemon(root)
        try:
            time.sleep(rng.uniform(0.2, 1.0))
        finally:
            kill_daemon(daemon)
        status = read_job_status(root, job_id)
        assert status is not None, "job vanished across a crash"

    # ``--max-idle 5``: if a kill landed *after* the solve finished,
    # there is nothing left to run and the daemon must exit on idle.
    daemon = start_daemon(root, "--max-jobs", "1", "--max-idle", "5")
    try:
        status = wait_for_terminal(root, job_id, timeout_s=120)
    finally:
        daemon.wait(timeout=60)
        kill_daemon(daemon)
    assert status["state"] == "DONE"
    statuses = [json.loads(path.read_text())
                for path in (root / "jobs").glob("*.json")]
    assert [s["job_id"] for s in statuses] == [job_id]
