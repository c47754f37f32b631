"""The optimization service end to end, in process.

The load-bearing properties: a cache hit never touches the pool and
reproduces the original result byte for byte; recovery re-enqueues
every unfinished job exactly once; unusable checkpoints are discarded
and recomputed, never resumed; overload is a labeled rejection.
(Process-level SIGKILL recovery lives in test_serve_recovery_process.)
"""

import json
import math

import pytest

from repro.errors import (ActivityError, OptimizationError,
                          ServiceOverloaded)
from repro.obs.instrument import (SERVE_CACHE_HITS, SERVE_CACHE_MISSES,
                                  SERVE_CHECKPOINT_DISCARDED,
                                  SERVE_JOBS_RECOVERED,
                                  SERVE_JOURNAL_TRUNCATED)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.checkpoint import SearchCheckpoint
from repro.runtime.pool import multiprocessing_available
from repro.serve.client import list_jobs, new_ticket, submit_request
from repro.serve.jobs import (CANCELLED, DEGRADED, DONE, FAILED, QUEUED,
                              JobRequest, search_fingerprint_for)
from repro.serve.service import OptimizationService

needs_mp = pytest.mark.skipif(not multiprocessing_available(),
                              reason="multiprocessing unavailable")

#: s27 on a 4x4 grid solves in ~50 ms — fast enough to run many times.
FAST = dict(circuit="s27", frequency_mhz=1000.0, grid_vdd=4, grid_vth=4)
#: Same circuit at a frequency no grid corner can meet (calibrated).
IMPOSSIBLE = dict(circuit="s27", frequency_mhz=4000.0, grid_vdd=5,
                  grid_vth=5)


def make_service(root, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return OptimizationService(root, **kwargs)


def result_bytes(service, job):
    return (service.root / "results" / f"{job.job_id}.json").read_bytes()


class TestHappyPath:
    def test_submit_step_done(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        assert job.state == QUEUED
        assert service.step() == 1
        assert job.state == DONE
        assert job.detail["cached"] is False
        payload = json.loads(result_bytes(service, job))
        assert payload["summary"]["feasible"] is True
        assert payload["degraded"] is False
        counters = service.registry.counters()
        assert counters["serve.jobs.submitted"] == 1
        assert counters["serve.jobs.done"] == 1
        assert counters[SERVE_CACHE_MISSES] == 1

    def test_status_file_tracks_the_lifecycle(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        status = tmp_path / "jobs" / f"{job.job_id}.json"
        assert json.loads(status.read_text())["state"] == QUEUED
        service.step()
        final = json.loads(status.read_text())
        assert final["state"] == DONE
        assert final["terminal"] is True

    def test_events_emitted_per_transition(self, tmp_path):
        service = make_service(tmp_path)
        service.submit(JobRequest(**FAST))
        service.step()
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        phases = [json.loads(line)["phase"] for line in lines]
        assert phases == ["serve.queued", "serve.running", "serve.done"]

    def test_metrics_snapshot_written(self, tmp_path):
        service = make_service(tmp_path)
        service.submit(JobRequest(**FAST))
        service.step()
        service.write_metrics()
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        assert snapshot["counters"]["serve.jobs.done"] == 1


class TestCacheHits:
    def test_hit_skips_the_pool_and_is_byte_identical(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(JobRequest(**FAST))
        service.step()
        pool_before = {key: value
                       for key, value in service.registry.counters().items()
                       if key.startswith("pool.")}

        second = service.submit(JobRequest(**FAST))
        service.step()
        assert second.state == DONE
        assert second.detail["cached"] is True
        pool_after = {key: value
                      for key, value in service.registry.counters().items()
                      if key.startswith("pool.")}
        assert pool_after == pool_before  # the pool never saw the job
        assert service.registry.counters()[SERVE_CACHE_HITS] == 1
        assert result_bytes(service, first) == result_bytes(service, second)

    def test_distinct_requests_do_not_share_results(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(JobRequest(**FAST))
        other = service.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        service.step()
        service.step()
        assert first.digest != other.digest
        assert service.registry.counters().get(SERVE_CACHE_HITS, 0) == 0


class TestOverload:
    def test_labeled_rejection_when_full(self, tmp_path):
        service = make_service(tmp_path, capacity=1)
        service.submit(JobRequest(**FAST))
        with pytest.raises(ServiceOverloaded) as excinfo:
            service.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        assert excinfo.value.capacity == 1
        assert service.registry.counters()["serve.jobs.rejected"] == 1
        assert len(service.jobs) == 1  # nothing half-admitted

    def test_spool_rejection_reply(self, tmp_path):
        service = make_service(tmp_path, capacity=1)
        service.submit(JobRequest(**FAST))
        ticket = submit_request(tmp_path, JobRequest(**dict(FAST,
                                                            grid_vdd=5)))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "rejected"
        assert reply["error"] == "ServiceOverloaded"
        assert reply["capacity"] == 1

    def test_capacity_frees_after_a_step(self, tmp_path):
        service = make_service(tmp_path, capacity=1)
        service.submit(JobRequest(**FAST))
        service.step()
        job = service.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        assert job.state == QUEUED


class TestSpoolProtocol:
    def test_accepted_reply_and_exactly_once_replay(self, tmp_path):
        service = make_service(tmp_path)
        ticket = submit_request(tmp_path, JobRequest(**FAST))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "accepted"
        assert len(service.jobs) == 1

        # The same ticket replayed (crash between journal append and
        # spool unlink) re-acks the existing job — never a duplicate.
        spool_file = tmp_path / "spool" / f"{ticket}.json"
        spool_file.write_text(json.dumps(JobRequest(**FAST).to_dict()))
        service.poll_spool()
        replay_reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert replay_reply["job_id"] == reply["job_id"]
        assert len(service.jobs) == 1

    def test_invalid_request_gets_an_invalid_reply(self, tmp_path):
        service = make_service(tmp_path)
        ticket = new_ticket()
        (tmp_path / "spool" / f"{ticket}.json").write_text(
            json.dumps({"circuit": "s27", "bogus_knob": 3}))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "invalid"
        assert service.jobs == {}


class TestNonFiniteAdmission:
    """NaN passes every ``<= 0`` check; admission must still refuse it."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, value):
        with pytest.raises(OptimizationError, match="frequency_mhz"):
            JobRequest(circuit="s27", frequency_mhz=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_activity_rejected(self, value):
        with pytest.raises(OptimizationError, match="activity"):
            JobRequest(circuit="s27", activity=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_deadline_rejected(self, value):
        with pytest.raises(OptimizationError, match="deadline_s"):
            JobRequest(circuit="s27", deadline_s=value)

    def test_spool_answers_invalid_and_journals_nothing(self, tmp_path):
        service = make_service(tmp_path)
        ticket = new_ticket()
        (tmp_path / "spool" / f"{ticket}.json").write_text(
            json.dumps(dict(FAST, frequency_mhz=math.nan)))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "invalid"
        assert "frequency_mhz" in reply["message"]
        assert service.jobs == {}


class TestRangeAdmission:
    """Values the solver would refuse are refused at admission."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, value):
        with pytest.raises(OptimizationError, match="probability"):
            JobRequest(circuit="s27", probability=value)

    @pytest.mark.parametrize("value", [1.5, -0.2])
    def test_probability_outside_unit_interval_rejected(self, value):
        with pytest.raises(ActivityError, match="probability"):
            JobRequest(circuit="s27", probability=value)

    def test_activity_beyond_the_probability_limit_rejected(self):
        # p = 0.02 allows a transition density of at most 0.04.
        with pytest.raises(ActivityError, match="Markov limit"):
            JobRequest(circuit="s27", probability=0.02, activity=0.1)

    def test_grid_vdd_below_two_rejected(self):
        with pytest.raises(OptimizationError, match="2x2"):
            JobRequest(circuit="s27", grid_vdd=1)

    def test_grid_vth_below_two_rejected(self):
        with pytest.raises(OptimizationError, match="2x2"):
            JobRequest(circuit="s27", grid_vth=1)

    def test_m_steps_below_two_rejected(self):
        with pytest.raises(OptimizationError, match="m_steps"):
            JobRequest(circuit="s27", m_steps=1)

    @pytest.mark.parametrize("field, value", [
        ("grid_vdd", 2.5), ("grid_vth", 2.5), ("m_steps", 3.5),
        ("search_budget", 2.5), ("grid_vdd", True), ("m_steps", "12")])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(OptimizationError, match="must be an integer"):
            JobRequest(circuit="s27", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("refine_rounds", 2.5), ("refine_iters", float("nan")),
        ("refine_iters", 6.0), ("refine_rounds", True),
        ("refine_iters", "18")])
    def test_non_integer_refine_knob_rejected(self, field, value):
        with pytest.raises(OptimizationError,
                           match=f"{field} must be an integer"):
            JobRequest(circuit="s27", **{field: value})

    @pytest.mark.parametrize("field", ["refine_iters", "refine_rounds"])
    def test_negative_refine_knob_rejected(self, field):
        with pytest.raises(OptimizationError, match="must be >= 0"):
            JobRequest(circuit="s27", **{field: -1})

    @pytest.mark.parametrize("field", ["refine_iters", "refine_rounds"])
    def test_zero_refine_knob_solves(self, tmp_path, field):
        # Zero is the loop's own lower bound: no rounds, or rounds that
        # probe only the bracket midpoint.
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**dict(FAST, **{field: 0})))
        service.step()
        assert job.state == DONE

    def test_spool_answers_invalid_for_a_fractional_refine_knob(
            self, tmp_path):
        service = make_service(tmp_path)
        ticket = new_ticket()
        (tmp_path / "spool" / f"{ticket}.json").write_text(
            json.dumps(dict(FAST, refine_rounds=2.5)))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "invalid"
        assert reply["error"] == "OptimizationError"
        assert service.jobs == {}

    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_non_finite_or_bool_margin_rejected(self, value):
        with pytest.raises(OptimizationError, match="yield_margin_z"):
            JobRequest(circuit="s27", robust="p95", robust_margin_z=value)

    @pytest.mark.parametrize("value", [2.5, False])
    def test_non_integer_prune_probes_rejected(self, value):
        from repro.optimize.heuristic import HeuristicSettings

        with pytest.raises(OptimizationError, match="prune_probes"):
            HeuristicSettings(prune_probes=value)

    def test_spool_answers_invalid_and_journals_nothing(self, tmp_path):
        service = make_service(tmp_path)
        ticket = new_ticket()
        (tmp_path / "spool" / f"{ticket}.json").write_text(
            json.dumps(dict(FAST, probability=1.5)))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "invalid"
        assert reply["error"] == "ActivityError"
        assert service.jobs == {}

    def test_spool_answers_invalid_for_a_fractional_grid(self, tmp_path):
        service = make_service(tmp_path)
        ticket = new_ticket()
        (tmp_path / "spool" / f"{ticket}.json").write_text(
            json.dumps(dict(FAST, grid_vdd=2.5)))
        service.poll_spool()
        reply = json.loads(
            (tmp_path / "replies" / f"{ticket}.json").read_text())
        assert reply["status"] == "invalid"
        assert reply["error"] == "OptimizationError"
        assert service.jobs == {}


class TestCancellation:
    def test_cancel_a_queued_job(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        service.cancel(job.job_id)
        assert job.state == CANCELLED
        assert service.step() == 0  # nothing left to run

    def test_cancel_reaches_a_running_solve(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        # The marker pre-exists, so the solve's controller sees it on
        # its first evaluation — the in-flight path, deterministically.
        (tmp_path / "control" / f"{job.job_id}.cancel").touch()
        service.step()
        assert job.state == CANCELLED
        assert not (tmp_path / "control" / f"{job.job_id}.cancel").exists()

    def test_cancel_unknown_job_is_harmless(self, tmp_path):
        service = make_service(tmp_path)
        service.cancel("job-999999-deadbeef")
        assert not list((tmp_path / "control").glob("*.cancel"))


class TestFailureTaxonomy:
    def test_infeasible_is_failed_not_retried(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**IMPOSSIBLE))
        service.step()
        assert job.state == FAILED
        assert job.detail["error"] == "InfeasibleError"
        counters = service.registry.counters()
        assert counters.get("pool.tasks.retried", 0) == 0

    def test_expired_deadline_is_failed(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**dict(FAST, deadline_s=1e-6)))
        service.step()
        assert job.state == FAILED
        assert job.detail["error"] == "DeadlineExceeded"

    def test_fallback_degrades_instead_of_failing(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**dict(IMPOSSIBLE, fallback=True)))
        service.step()
        assert job.state == DEGRADED
        assert job.detail["degradation"]["stage"] == "relax_cycle_time"
        payload = json.loads(result_bytes(service, job))
        assert payload["degraded"] is True
        assert payload["summary"]["feasible"] is True

    def test_degraded_results_are_cacheable_too(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(JobRequest(**dict(IMPOSSIBLE,
                                                 fallback=True)))
        service.step()
        second = service.submit(JobRequest(**dict(IMPOSSIBLE,
                                                  fallback=True)))
        service.step()
        assert second.state == DEGRADED
        assert second.detail["cached"] is True
        assert result_bytes(service, first) == result_bytes(service, second)


class TestCheckpointHygiene:
    def test_garbage_checkpoint_discarded_and_recomputed(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        ckpt = tmp_path / "checkpoints" / f"{job.job_id}.ckpt"
        ckpt.write_bytes(b'{"_format": "repro-checkpo')  # torn write
        service.step()
        assert job.state == DONE
        assert job.detail["checkpoint_discarded"] is True
        assert ckpt.with_suffix(".ckpt.corrupt").exists()
        counters = service.registry.counters()
        assert counters[SERVE_CHECKPOINT_DISCARDED] == 1

    def test_foreign_fingerprint_checkpoint_not_resumed(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        ckpt = tmp_path / "checkpoints" / f"{job.job_id}.ckpt"
        # A well-formed checkpoint for a *different* search: stale
        # state must be recomputed, never served.
        foreign = search_fingerprint_for(JobRequest(**dict(FAST,
                                                           grid_vdd=9)))
        SearchCheckpoint(foreign, path=ckpt).save()
        service.step()
        assert job.state == DONE
        assert job.detail["checkpoint_discarded"] is True
        assert "fingerprint" in job.detail["checkpoint_error"] \
            or "different search" in job.detail["checkpoint_error"]

    def test_finished_job_leaves_no_checkpoint(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(JobRequest(**FAST))
        service.step()
        assert not (tmp_path / "checkpoints" / f"{job.job_id}.ckpt").exists()


class TestRecovery:
    def test_unfinished_jobs_recovered_exactly_once(self, tmp_path):
        first = make_service(tmp_path)
        queued = first.submit(JobRequest(**FAST))
        running = first.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        first._transition(running, "RUNNING", {})
        first.close()  # the "crash": no terminal state was reached

        second = make_service(tmp_path)
        assert len(second.jobs) == 2
        recovered = second.jobs[running.job_id]
        assert recovered.state == QUEUED
        assert recovered.detail == {"recovered": True}
        assert second.jobs[queued.job_id].state == QUEUED
        counters = second.registry.counters()
        assert counters[SERVE_JOBS_RECOVERED] == 2

        while second.step():
            pass
        assert all(job.state == DONE for job in second.jobs.values())

    def test_recovered_result_matches_an_uninterrupted_run(self, tmp_path):
        reference = make_service(tmp_path / "ref")
        ref_job = reference.submit(JobRequest(**FAST))
        reference.step()

        crashed = make_service(tmp_path / "crashed")
        job = crashed.submit(JobRequest(**FAST))
        crashed._transition(job, "RUNNING", {})
        crashed.close()
        revived = make_service(tmp_path / "crashed")
        revived.step()
        survivor = revived.jobs[job.job_id]
        assert survivor.state == DONE
        assert result_bytes(revived, survivor) \
            == result_bytes(reference, ref_job)

    def test_torn_journal_tail_repaired_on_reopen(self, tmp_path):
        first = make_service(tmp_path)
        job = first.submit(JobRequest(**FAST))
        first.step()
        first.close()
        with open(tmp_path / "journal.jsonl", "a") as stream:
            stream.write('{"type": "state", "job_id"')  # torn append

        second = make_service(tmp_path)
        assert second.jobs[job.job_id].state == DONE
        assert second.registry.counters()[SERVE_JOURNAL_TRUNCATED] == 1
        # And the repaired journal accepts new work cleanly.
        new_job = second.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        second.step()
        assert new_job.state == DONE

    def test_journaled_request_failing_admission_skipped(self, tmp_path):
        # A journal written before admission checked the probability
        # range may hold a request that now fails it: recovery skips
        # that job and still runs the others.
        first = make_service(tmp_path)
        doomed = first.submit(JobRequest(**FAST))
        kept = first.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        first.close()
        path = tmp_path / "journal.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record.get("job_id") == doomed.job_id \
                    and record.get("type") == "job":
                record["request"]["probability"] = 1.5
        path.write_text("".join(json.dumps(record) + "\n"
                                for record in records))

        second = make_service(tmp_path)
        assert list(second.jobs) == [kept.job_id]
        assert second.registry.counters()[SERVE_JOBS_RECOVERED] == 1
        assert [row["job_id"] for row in list_jobs(tmp_path)] \
            == [kept.job_id]
        second.step()
        assert second.jobs[kept.job_id].state == DONE

    def test_terminal_jobs_are_not_re_enqueued(self, tmp_path):
        first = make_service(tmp_path)
        first.submit(JobRequest(**FAST))
        first.step()
        first.close()
        second = make_service(tmp_path)
        assert second.registry.counters().get(SERVE_JOBS_RECOVERED, 0) == 0
        assert second.step() == 0


@needs_mp
class TestPoolExecution:
    def test_two_jobs_solve_in_one_parallel_batch(self, tmp_path):
        service = make_service(tmp_path, pool_jobs=2)
        first = service.submit(JobRequest(**FAST))
        second = service.submit(JobRequest(**dict(FAST, grid_vdd=5)))
        assert service.step() == 2
        assert first.state == DONE
        assert second.state == DONE
        counters = service.registry.counters()
        assert counters["serve.jobs.done"] == 2
        assert counters.get("pool.workers.started", 0) >= 1
