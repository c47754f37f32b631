"""Checkpoint/resume: exact state round-trips and resume identity.

The headline property: a Procedure 2 search interrupted at *any* corner
and resumed from its checkpoint finishes with the identical design point
and total energy as an uninterrupted run.
"""

import dataclasses
import json
import math

import pytest

from repro.errors import CheckpointError, RunCancelled
from repro.optimize.heuristic import optimize_joint
from repro.runtime.checkpoint import (
    CHECKPOINT_EVERY,
    FORMAT_KEY,
    FORMAT_VERSION,
    SearchCheckpoint,
)
from repro.runtime.controller import RunController

FINGERPRINT = {"network": "unit", "strategy": "grid", "vdd_range": (1.0, 3.3)}


class TestSearchCheckpointUnit:
    def test_record_lookup_and_dedupe(self):
        checkpoint = SearchCheckpoint(FINGERPRINT)
        assert checkpoint.lookup(1.0, 0.2) is None
        checkpoint.record(1.0, 0.2, 5e-12, True,
                          best_energy=5e-12, best_point=(1.0, 0.2),
                          best_widths={"g1": 2.0})
        checkpoint.record(1.0, 0.2, 5e-12, True,
                          best_energy=5e-12, best_point=(1.0, 0.2),
                          best_widths={"g1": 2.0})
        assert checkpoint.completed == 1
        assert checkpoint.lookup(1.0, 0.2) == (5e-12, True)
        assert checkpoint.best_point == (1.0, 0.2)

    def test_worse_best_does_not_displace(self):
        checkpoint = SearchCheckpoint(FINGERPRINT)
        checkpoint.record(1.0, 0.2, 5e-12, True, 5e-12, (1.0, 0.2),
                          {"g1": 2.0})
        checkpoint.record(2.0, 0.3, 7e-12, True, 5e-12, (1.0, 0.2),
                          {"g1": 2.0})
        assert checkpoint.best_energy == 5e-12
        assert checkpoint.best_point == (1.0, 0.2)

    def test_validation(self):
        with pytest.raises(CheckpointError, match="every"):
            SearchCheckpoint(FINGERPRINT, every=0)

    def test_save_load_roundtrip_with_nonfinite_floats(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = SearchCheckpoint(FINGERPRINT, path=path)
        checkpoint.record(1.0, 0.2, math.inf, False, math.inf, None, None)
        checkpoint.record(2.0, math.nan, 4e-12, True, 4e-12, (2.0, 0.25),
                          {"g1": 1.5, "g2": 3.0})
        loaded = SearchCheckpoint.load(path, FINGERPRINT)
        assert loaded.completed == 2
        assert loaded.lookup(1.0, 0.2) == (math.inf, False)
        vdd, vth, energy, feasible = loaded.log[1]
        assert vdd == 2.0 and math.isnan(vth)
        assert loaded.best_energy == 4e-12
        assert loaded.best_point == (2.0, 0.25)
        assert loaded.best_widths == {"g1": 1.5, "g2": 3.0}

    def test_every_batches_saves_and_flush_forces(self, tmp_path):
        path = tmp_path / "batched.json"
        checkpoint = SearchCheckpoint(FINGERPRINT, path=path, every=3)
        checkpoint.record(1.0, 0.2, 1e-12, True, 1e-12, (1.0, 0.2), {})
        checkpoint.record(1.1, 0.2, 2e-12, True, 1e-12, (1.0, 0.2), {})
        assert not path.exists()
        checkpoint.flush()
        assert SearchCheckpoint.load(path, FINGERPRINT).completed == 2

    def test_rerecording_a_logged_corner_does_not_count(self, tmp_path):
        path = tmp_path / "dedup.json"
        checkpoint = SearchCheckpoint(FINGERPRINT, path=path, every=2)
        checkpoint.record(1.0, 0.2, 2e-12, True, 2e-12, (1.0, 0.2), {})
        # The merge of a pooled round re-records corners its finished
        # chunks already logged; with no better best, nothing changed.
        checkpoint.record(1.0, 0.2, 2e-12, True, 2e-12, (1.0, 0.2), {})
        assert not path.exists()
        # A logged corner with a better best snapshot does count.
        checkpoint.record(1.0, 0.2, 2e-12, True, 1e-12, (1.1, 0.2), {})
        assert SearchCheckpoint.load(path, FINGERPRINT).best_energy == 1e-12

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        SearchCheckpoint(FINGERPRINT, path=path).save()
        other = dict(FINGERPRINT, strategy="paper")
        with pytest.raises(CheckpointError, match="different search"):
            SearchCheckpoint.load(path, other)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"_format": "repro-checkpoint", "evalu')
        with pytest.raises(CheckpointError, match="invalid JSON"):
            SearchCheckpoint.load(path, FINGERPRINT)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text('{"vdd": 1.2}')
        with pytest.raises(CheckpointError, match="format marker"):
            SearchCheckpoint.load(path, FINGERPRINT)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"_format": FORMAT_KEY,
                                    "_version": FORMAT_VERSION + 1,
                                    "fingerprint": {}}))
        with pytest.raises(CheckpointError, match="version"):
            SearchCheckpoint.load(path, FINGERPRINT)


@pytest.fixture(scope="module")
def reference(s27_problem, fast_settings):
    """The uninterrupted search every resume must reproduce."""
    return optimize_joint(s27_problem, settings=fast_settings)


def _assert_same_optimum(result, reference):
    assert result.design.vdd == reference.design.vdd
    assert result.design.vth == reference.design.vth
    assert result.design.widths == reference.design.widths
    assert result.total_energy == reference.total_energy
    assert result.evaluations == reference.evaluations


class TestCheckpointedSearch:
    def test_checkpointing_does_not_change_the_answer(
            self, s27_problem, fast_settings, reference, tmp_path):
        path = tmp_path / "s27.ckpt"
        controller = RunController(checkpoint_path=path)
        settings = dataclasses.replace(fast_settings, controller=controller)
        result = optimize_joint(s27_problem, settings=settings)
        _assert_same_optimum(result, reference)
        assert result.details["checkpoint"] == str(path)
        assert result.details["resumed_corners"] == 0
        assert path.exists()

    def test_resume_of_a_finished_search_replays_from_cache(
            self, s27_problem, fast_settings, reference, tmp_path):
        path = tmp_path / "s27.ckpt"
        first = optimize_joint(s27_problem, settings=fast_settings,
                               resume_from=path)
        resumed = optimize_joint(s27_problem, settings=fast_settings,
                                 resume_from=path)
        _assert_same_optimum(first, reference)
        _assert_same_optimum(resumed, reference)
        assert resumed.details["resumed_corners"] > 0

    def test_resume_refuses_a_different_strategy(
            self, s27_problem, fast_settings, tmp_path):
        path = tmp_path / "s27.ckpt"
        optimize_joint(s27_problem, settings=fast_settings, resume_from=path)
        paper = dataclasses.replace(fast_settings, strategy="paper")
        with pytest.raises(CheckpointError, match="different search"):
            optimize_joint(s27_problem, settings=paper, resume_from=path)

    @pytest.mark.parametrize("interrupt_after", [1, 17, 63, 109])
    def test_interrupt_anywhere_then_resume_is_identical(
            self, s27_problem, fast_settings, reference, tmp_path,
            interrupt_after):
        """The resume-identity property, sampled across the search."""
        path = tmp_path / f"s27-{interrupt_after}.ckpt"
        box = {}
        events = []

        def cancel_after_k(event):
            events.append(event)
            if len(events) == interrupt_after:
                box["controller"].cancel()

        controller = RunController(progress=cancel_after_k,
                                   checkpoint_path=path)
        box["controller"] = controller
        settings = dataclasses.replace(fast_settings, controller=controller)
        with pytest.raises(RunCancelled):
            optimize_joint(s27_problem, settings=settings)
        assert path.exists(), "interrupted search must leave its checkpoint"

        resumed = optimize_joint(s27_problem, settings=fast_settings,
                                 resume_from=path)
        _assert_same_optimum(resumed, reference)
        assert 0 < resumed.details["resumed_corners"] <= interrupt_after


def test_sigkill_loss_is_bounded_by_the_cadence(
        s27_problem, fast_settings, reference, tmp_path):
    """What a SIGKILL would leave on disk after k recorded evaluations.

    Each snapshot of the live checkpoint is a prefix of the final log,
    is at most ``CHECKPOINT_EVERY - 1`` evaluations behind, and resumes
    to the uninterrupted optimum.
    """
    path = tmp_path / "live.ckpt"
    wanted = {1, CHECKPOINT_EVERY - 1, CHECKPOINT_EVERY,
              CHECKPOINT_EVERY + 13, 3 * CHECKPOINT_EVERY - 1}
    snapshots = {}
    recorded = []

    def snapshot(event):
        # Serial searches report once per fresh (recorded) corner.
        recorded.append(event)
        k = len(recorded)
        if k in wanted:
            snapshots[k] = path.read_bytes() if path.exists() else None

    controller = RunController(progress=snapshot, checkpoint_path=path)
    settings = dataclasses.replace(fast_settings, controller=controller)
    _assert_same_optimum(optimize_joint(s27_problem, settings=settings),
                         reference)
    assert sorted(snapshots) == sorted(wanted)
    final_log = json.loads(path.read_text())["evaluations"]
    assert len(final_log) == len(recorded)

    for k, data in sorted(snapshots.items()):
        log = json.loads(data)["evaluations"] if data is not None else []
        assert log == final_log[:len(log)], f"k={k}: not a prefix"
        assert k - (CHECKPOINT_EVERY - 1) <= len(log) <= k
        if data is None:
            continue
        copy = tmp_path / f"killed-at-{k}.ckpt"
        copy.write_bytes(data)
        resumed = optimize_joint(s27_problem, settings=fast_settings,
                                 resume_from=copy)
        _assert_same_optimum(resumed, reference)
        assert resumed.details["resumed_corners"] == len(log)
