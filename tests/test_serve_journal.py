"""The write-ahead journal: durability, tail repair, replay edge cases."""

import json

import pytest

from repro.errors import JobStateError, OptimizationError
from repro.obs.instrument import SERVE_JOURNAL_TRUNCATED
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serve import journal
from repro.serve.jobs import (CANCELLED, DONE, QUEUED, RUNNING, Job,
                              JobRequest, replay, transition)
from repro.serve.journal import JobJournal


def job_record(job_id, seq=1, circuit="s27", **extra):
    record = {"type": "job", "job_id": job_id, "seq": seq,
              "request": JobRequest(circuit=circuit).to_dict(),
              "digest": "d" * 64, "priority": 0, "deadline_s": None}
    record.update(extra)
    return record


def state_record(job_id, state, detail=None):
    return {"type": "state", "job_id": job_id, "state": state,
            "detail": detail or {}}


class TestRead:
    def test_missing_journal_is_a_fresh_service(self, tmp_path):
        records, damage = journal.read(tmp_path / "journal.jsonl")
        assert records == []
        assert damage is None

    def test_empty_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        records, damage = journal.read(path)
        assert records == []
        assert damage is None

    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
            log.append(state_record("job-1", RUNNING))
        records, damage = journal.read(path)
        assert damage is None
        assert [record["type"] for record in records] == ["job", "state"]

    def test_half_written_last_line_is_damage_not_traceback(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
        good_size = path.stat().st_size
        with open(path, "a") as stream:
            stream.write('{"type": "state", "job_id": "job-1", "sta')
        records, damage = journal.read(path)
        assert len(records) == 1
        assert damage is not None
        assert damage.good_bytes == good_size
        assert "torn" in damage.reason

    def test_terminated_but_undecodable_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
        with open(path, "a") as stream:
            stream.write('{"type": "state", broken\n')
        records, damage = journal.read(path)
        assert len(records) == 1
        assert "undecodable" in damage.reason

    def test_non_object_line_is_damage(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('["not", "an", "object"]\n')
        records, damage = journal.read(path)
        assert records == []
        assert "object" in damage.reason

    def test_damage_mid_file_drops_the_suffix(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
        good_size = path.stat().st_size
        with open(path, "a") as stream:
            stream.write("garbage garbage\n")
            stream.write(json.dumps(state_record("job-1", RUNNING)) + "\n")
        records, damage = journal.read(path)
        assert len(records) == 1
        assert damage.good_bytes == good_size


class TestOpenRepair:
    def test_clean_journal_untouched(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
        before = path.read_bytes()
        repaired, records = JobJournal.open_repair(path)
        repaired.close()
        assert path.read_bytes() == before
        assert len(records) == 1

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as log:
            log.append(job_record("job-1"))
        good = path.read_bytes()
        with open(path, "a") as stream:
            stream.write('{"torn')
        registry = MetricsRegistry()
        with use_metrics(registry):
            repaired, records = JobJournal.open_repair(path)
        assert path.read_bytes() == good
        assert len(records) == 1
        assert registry.counters()[SERVE_JOURNAL_TRUNCATED] == 1
        # The repaired journal appends cleanly after the truncation.
        repaired.append(state_record("job-1", RUNNING))
        repaired.close()
        records, damage = journal.read(path)
        assert damage is None
        assert len(records) == 2

    def test_missing_journal_opens_fresh(self, tmp_path):
        repaired, records = JobJournal.open_repair(tmp_path / "j.jsonl")
        assert records == []
        repaired.append(job_record("job-1"))
        repaired.close()
        assert len(journal.read(tmp_path / "j.jsonl")[0]) == 1


class TestReplay:
    def test_lifecycle_replay(self):
        jobs = replay([
            job_record("job-1"),
            state_record("job-1", RUNNING),
            state_record("job-1", DONE, {"cached": False}),
        ])
        assert jobs["job-1"].state == DONE
        assert jobs["job-1"].detail == {"cached": False}

    def test_duplicate_job_ids_keep_the_first(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([
                job_record("job-1", seq=1, circuit="s27"),
                job_record("job-1", seq=2, circuit="s298"),
            ])
        assert len(jobs) == 1
        assert jobs["job-1"].request.circuit == "s27"
        assert any("duplicate" in message for message in caplog.messages)

    def test_transition_for_unknown_job_skipped(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([state_record("ghost", RUNNING)])
        assert jobs == {}
        assert any("unknown job" in message for message in caplog.messages)

    def test_illegal_transition_skipped_not_fatal(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([
                job_record("job-1"),
                state_record("job-1", DONE),  # QUEUED -> DONE: illegal
            ])
        assert jobs["job-1"].state == QUEUED
        assert any("illegal transition" in message
                   for message in caplog.messages)

    def test_unparseable_request_skipped(self, caplog):
        bad = job_record("job-1")
        bad["request"] = {"circuit": "s27", "bogus_knob": 1}
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([bad])
        assert jobs == {}

    def test_request_failing_admission_skipped(self, caplog):
        # A request journaled before admission checked the probability
        # range is skipped on replay; the jobs around it survive.
        bad = job_record("job-2", seq=2)
        bad["request"] = dict(bad["request"], probability=1.5)
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([
                job_record("job-1", seq=1),
                bad,
                state_record("job-2", RUNNING),
                job_record("job-3", seq=3),
            ])
        assert list(jobs) == ["job-1", "job-3"]
        assert any("unparseable request for job-2" in message
                   for message in caplog.messages)

    def test_unknown_record_type_skipped(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serve"):
            jobs = replay([{"type": "mystery"}])
        assert jobs == {}


class TestStateMachine:
    def test_terminal_states_are_terminal(self):
        job = Job(job_id="job-1", request=JobRequest(circuit="s27"),
                  digest="d" * 64, seq=1)
        transition(job, RUNNING)
        transition(job, DONE)
        with pytest.raises(JobStateError):
            transition(job, RUNNING)

    def test_queued_can_only_run_or_cancel(self):
        job = Job(job_id="job-1", request=JobRequest(circuit="s27"),
                  digest="d" * 64, seq=1)
        with pytest.raises(JobStateError):
            transition(job, DONE)
        transition(job, CANCELLED)
        assert job.terminal

    def test_running_requeue_is_legal(self):
        job = Job(job_id="job-1", request=JobRequest(circuit="s27"),
                  digest="d" * 64, seq=1)
        transition(job, RUNNING)
        transition(job, QUEUED, {"recovered": True})
        assert job.state == QUEUED
        assert job.detail == {"recovered": True}

    def test_unknown_state_rejected(self):
        job = Job(job_id="job-1", request=JobRequest(circuit="s27"),
                  digest="d" * 64, seq=1)
        with pytest.raises(JobStateError):
            transition(job, "EXPLODED")


class TestRequestSchema:
    def test_unknown_fields_rejected(self):
        with pytest.raises(OptimizationError, match="unknown job request"):
            JobRequest.from_dict({"circuit": "s27", "prioritiy": 3})

    def test_round_trip(self):
        request = JobRequest(circuit="s298", priority=5, deadline_s=12.5,
                             fallback=True)
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_missing_circuit_rejected(self):
        with pytest.raises(OptimizationError, match="circuit"):
            JobRequest.from_dict({"priority": 1})
