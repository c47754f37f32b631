"""The service's job model: requests, lifecycle states, journal replay.

A :class:`JobRequest` is the complete, JSON-serializable description of
one optimization job — circuit, technology deck, constraints, search
knobs. It is deliberately *value-like*: two requests with equal fields
produce equal fingerprints (:func:`request_fingerprint`), which is what
makes the result cache content-addressed and the crash-recovery resume
exact.

A :class:`Job` is one accepted request moving through the lifecycle
state machine::

    QUEUED ──▶ RUNNING ──▶ DONE        (clean result)
      │           │  ├───▶ DEGRADED    (fallback result, labels intact)
      │           │  ├───▶ FAILED      (infeasible / exhausted fallback)
      │           │  ├───▶ CANCELLED   (cooperative cancel honoured)
      │           │  └───▶ QUARANTINED (poison job: crashed every retry)
      │           └───▶ QUEUED         (daemon died mid-run; re-enqueued
      └───▶ CANCELLED                   on recovery, resumes checkpoint)

Transitions are validated by :func:`transition` and journaled before
they take effect, so :func:`replay` can rebuild the exact queue state
from the write-ahead journal after a SIGKILL.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import JobStateError, OptimizationError, ReproError

LOGGER = logging.getLogger("repro.serve")

# -- lifecycle states ------------------------------------------------------

QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
DEGRADED = "DEGRADED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
QUARANTINED = "QUARANTINED"

#: Every lifecycle state, in diagram order.
JOB_STATES = (QUEUED, RUNNING, DONE, DEGRADED, FAILED, CANCELLED,
              QUARANTINED)

#: States a job can end in; a recovered daemon drives every job here.
TERMINAL_STATES = frozenset({DONE, DEGRADED, FAILED, CANCELLED,
                             QUARANTINED})

#: Legal transitions (RUNNING → QUEUED is the crash-recovery re-enqueue).
_TRANSITIONS: Mapping[str, frozenset] = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, DEGRADED, FAILED, CANCELLED, QUARANTINED,
                        QUEUED}),
}


# -- requests --------------------------------------------------------------

#: JSON keys accepted by :meth:`JobRequest.from_dict` (the wire schema).
_REQUEST_FIELDS = ("circuit", "deck", "frequency_mhz", "activity",
                   "probability", "n_vth", "strategy", "search_budget",
                   "seed", "engine", "width_method", "grid_vdd", "grid_vth",
                   "refine_iters", "refine_rounds", "m_steps", "fallback",
                   "priority", "deadline_s", "robust", "yield_target",
                   "sigma_within", "sigma_die", "robust_samples",
                   "robust_cull_samples", "robust_seed", "robust_margin_z")


def _is_finite(value: object) -> bool:
    """True for a finite real number (NaN, infinities, strings: False)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


@dataclass(frozen=True)
class JobRequest:
    """One optimization request, as submitted over the wire."""

    #: Benchmark circuit name (see ``repro.netlist.benchmarks``).
    circuit: str
    #: Built-in technology deck name.
    deck: str = "generic-0.25um"
    #: Required clock frequency (MHz).
    frequency_mhz: float = 300.0
    #: Uniform input transition density.
    activity: float = 0.1
    #: Uniform input signal probability.
    probability: float = 0.5
    #: Distinct threshold voltages (>1 routes to the multi-Vth solver).
    n_vth: int = 1
    #: Procedure 2 search strategy ("grid", "random", "surrogate",
    #: "hyperband", or "paper").
    strategy: str = "grid"
    #: Adaptive strategies: sampling-phase evaluation budget (None =
    #: the strategy's default).
    search_budget: Optional[int] = None
    #: Adaptive strategies: proposal RNG seed. Part of the result-cache
    #: key — a cached seed-0 run never satisfies a seed-1 request.
    seed: int = 0
    #: Evaluation engine request ("auto", "scalar", "fast", ...).
    engine: str = "auto"
    #: Width solver ("closed_form" or "bisect").
    width_method: str = "closed_form"
    grid_vdd: int = 15
    grid_vth: int = 13
    refine_iters: int = 18
    refine_rounds: int = 2
    m_steps: int = 12
    #: Solve through the declared fallback chain instead of failing.
    fallback: bool = False
    #: Admission priority (higher runs first; ties in submission order).
    priority: int = 0
    #: Per-job wall-clock budget in seconds (None = unbounded).
    deadline_s: Optional[float] = None
    #: Robust risk measure ("mean"/"p95"/"cvar"); None = nominal job.
    #: Part of the result-cache key via the search fingerprint — a
    #: cached nominal result never satisfies a robust request.
    robust: Optional[str] = None
    yield_target: float = 0.95
    sigma_within: float = 0.010
    sigma_die: float = 0.015
    robust_samples: int = 40
    robust_cull_samples: int = 8
    robust_seed: int = 0
    robust_margin_z: float = 1.0

    def __post_init__(self) -> None:
        if not self.circuit:
            raise OptimizationError("job request needs a circuit name")
        # NaN slips past every ordering check below; reject it (and
        # infinities) here so the spool answers "invalid" instead of a
        # worker failing deep inside the solve.
        finite = {"frequency_mhz": self.frequency_mhz,
                  "activity": self.activity,
                  "probability": self.probability}
        if self.deadline_s is not None:
            finite["deadline_s"] = self.deadline_s
        for name, value in finite.items():
            if not _is_finite(value):
                raise OptimizationError(
                    f"{name} must be a finite number, got {value!r}")
        if self.frequency_mhz <= 0.0:
            raise OptimizationError(
                f"frequency_mhz must be > 0, got {self.frequency_mhz}")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise OptimizationError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if self.n_vth < 1:
            raise OptimizationError(f"n_vth must be >= 1, got {self.n_vth}")
        # The solver's own checks, run now rather than in the worker:
        # the input profile's (probability in [0, 1], density within
        # its Markov limit) and the search settings' counts (integers,
        # in range).
        from repro.activity.profiles import InputProfile
        from repro.optimize.heuristic import HeuristicSettings

        InputProfile(probabilities={"inputs": self.probability},
                     densities={"inputs": self.activity})
        HeuristicSettings(m_steps=self.m_steps, grid_vdd=self.grid_vdd,
                          grid_vth=self.grid_vth,
                          refine_iters=self.refine_iters,
                          refine_rounds=self.refine_rounds,
                          search_budget=self.search_budget)
        if self.robust is not None:
            if self.n_vth > 1:
                raise OptimizationError(
                    "robust jobs support a single Vth (n_vth=1); the "
                    "multi-Vth solver has no statistical objective yet")
            # Statistical inputs are validated here — at admission —
            # so a bad yield target is an {"status": "invalid"}
            # response, never a deep worker crash.
            robust_config_for(self)

    def to_dict(self) -> Dict[str, object]:
        """The wire/journal form of the request (plain JSON types)."""
        return {name: getattr(self, name) for name in _REQUEST_FIELDS}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobRequest":
        """Parse a wire/journal payload, rejecting unknown keys.

        Unknown keys are an error, not a silent drop — a client typo
        like ``"prioritiy"`` must fail loudly instead of producing a
        different job than the client believes it submitted.
        """
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise OptimizationError(
                f"unknown job request field(s): {', '.join(unknown)}")
        if "circuit" not in payload:
            raise OptimizationError("job request needs a circuit name")
        return cls(**dict(payload))


# -- problem / settings / fingerprints -------------------------------------


@lru_cache(maxsize=64)
def _cached_problem(circuit: str, deck_name: str, frequency_hz: float,
                    activity: float, probability: float, n_vth: int):
    from repro.activity.profiles import uniform_profile
    from repro.netlist.benchmarks import benchmark_circuit
    from repro.optimize.problem import OptimizationProblem
    from repro.technology.library import deck

    technology = deck(deck_name)
    network = benchmark_circuit(circuit)
    profile = uniform_profile(network, probability=probability,
                              density=activity)
    return OptimizationProblem.build(technology, network, profile,
                                     frequency=frequency_hz, n_vth=n_vth)


def problem_for(request: JobRequest):
    """The :class:`~repro.optimize.problem.OptimizationProblem` of a job."""
    from repro.units import MHZ

    return _cached_problem(request.circuit, request.deck,
                           request.frequency_mhz * MHZ, request.activity,
                           request.probability, request.n_vth)


def robust_config_for(request: JobRequest):
    """The :class:`~repro.robust.RobustConfig` of a robust request.

    Raises the config's own labeled
    :class:`~repro.errors.OptimizationError` on bad statistical inputs
    (unknown measure, yield target outside (0, 1), negative sigmas,
    too few samples); ``None`` for nominal requests.
    """
    if request.robust is None:
        return None
    from repro.robust import RobustConfig

    return RobustConfig(measure=request.robust,
                        yield_target=request.yield_target,
                        sigma_within=request.sigma_within,
                        sigma_die=request.sigma_die,
                        samples=request.robust_samples,
                        cull_samples=request.robust_cull_samples,
                        seed=request.robust_seed,
                        yield_margin_z=request.robust_margin_z)


def settings_for(request: JobRequest):
    """The single-Vth Procedure 2 settings a request maps to."""
    from repro.optimize.heuristic import HeuristicSettings

    return HeuristicSettings(strategy=request.strategy,
                             search_budget=request.search_budget,
                             seed=request.seed,
                             m_steps=request.m_steps,
                             grid_vdd=request.grid_vdd,
                             grid_vth=request.grid_vth,
                             refine_iters=request.refine_iters,
                             refine_rounds=request.refine_rounds,
                             width_method=request.width_method,
                             engine=request.engine,
                             robust=robust_config_for(request))


def search_fingerprint_for(request: JobRequest) -> Dict[str, object]:
    """The *exact* checkpoint fingerprint the solver will demand.

    Recovery validates an on-disk checkpoint against this before
    resuming; :class:`~repro.runtime.checkpoint.SearchCheckpoint.load`
    compares the full key/value set, so this must be byte-for-byte what
    ``optimize_joint`` computes internally — hence the delegation to the
    optimizer's own fingerprint function rather than a reimplementation.
    """
    from repro.engine import resolve_engine_name
    from repro.optimize.heuristic import _ranges, _search_fingerprint

    problem = problem_for(request)
    settings = settings_for(request)
    vdd_range, vth_range = _ranges(problem, settings)
    return _search_fingerprint(problem, settings, vdd_range, vth_range,
                               resolve_engine_name(request.engine))


def request_fingerprint(request: JobRequest
                        ) -> Tuple[Dict[str, object], str]:
    """Content address of a request: (fingerprint dict, sha256 digest).

    Extends the search fingerprint with everything else that shapes the
    *result* but not the checkpoint — technology deck, activity profile,
    multi-Vth count, fallback mode — so two jobs share a cache slot iff
    they are guaranteed to produce the identical result.
    """
    fingerprint = dict(search_fingerprint_for(request))
    fingerprint.update({
        "circuit": request.circuit,
        "technology": request.deck,
        "activity": request.activity,
        "probability": request.probability,
        "n_vth": request.n_vth,
        "fallback": request.fallback,
    })
    canonical = json.dumps(fingerprint, sort_keys=True,
                           separators=(",", ":"))
    return fingerprint, hashlib.sha256(canonical.encode()).hexdigest()


def result_digest(payload: Mapping[str, object]) -> str:
    """Integrity digest of a cached/served result payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- jobs ------------------------------------------------------------------


@dataclass
class Job:
    """One accepted request and its position in the lifecycle."""

    job_id: str
    request: JobRequest
    #: Content-address digest (cache key) of the request.
    digest: str
    #: Monotonic submission sequence number (FIFO tie-break).
    seq: int
    priority: int = 0
    deadline_s: Optional[float] = None
    state: str = QUEUED
    #: Free-form context of the last transition (error labels,
    #: degradation records, ``{"recovered": true}`` markers...).
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Status-file form of the job."""
        return {
            "job_id": self.job_id,
            "request": self.request.to_dict(),
            "digest": self.digest,
            "seq": self.seq,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "state": self.state,
            "detail": self.detail,
            "terminal": self.state in TERMINAL_STATES,
        }

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def transition(job: Job, state: str,
               detail: Optional[Mapping[str, object]] = None) -> None:
    """Apply one validated lifecycle transition in place.

    Raises :class:`~repro.errors.JobStateError` on an illegal move
    (e.g. out of a terminal state) — the journal must never record a
    transition the state machine would refuse to replay.
    """
    if state not in JOB_STATES:
        raise JobStateError(f"unknown job state {state!r}")
    allowed = _TRANSITIONS.get(job.state, frozenset())
    if state not in allowed:
        raise JobStateError(
            f"job {job.job_id}: illegal transition {job.state} -> {state}")
    job.state = state
    job.detail = dict(detail or {})


# -- journal replay --------------------------------------------------------


def replay(records: Iterable[Mapping[str, object]]) -> Dict[str, Job]:
    """Rebuild the job table from journal records, oldest first.

    Damage-tolerant by design: duplicate job ids, requests that no
    longer pass admission, transitions for unknown jobs, and
    transitions the state machine rejects are logged and *skipped*,
    never fatal — a recovering daemon must come up with
    every salvageable job rather than refuse to start. Returns jobs in
    submission order (dict insertion order).
    """
    jobs: Dict[str, Job] = {}
    for record in records:
        kind = record.get("type")
        if kind == "job":
            job_id = str(record.get("job_id", ""))
            if not job_id:
                LOGGER.warning("journal: job record without job_id skipped")
                continue
            if job_id in jobs:
                LOGGER.warning("journal: duplicate job id %s skipped",
                               job_id)
                continue
            try:
                request = JobRequest.from_dict(record["request"])
            except (KeyError, TypeError, ReproError) as exc:
                LOGGER.warning("journal: unparseable request for %s "
                               "skipped (%s)", job_id, exc)
                continue
            jobs[job_id] = Job(job_id=job_id, request=request,
                               digest=str(record.get("digest", "")),
                               seq=int(record.get("seq", 0)),
                               priority=int(record.get("priority", 0)),
                               deadline_s=record.get("deadline_s"))
        elif kind == "state":
            job_id = str(record.get("job_id", ""))
            job = jobs.get(job_id)
            if job is None:
                LOGGER.warning("journal: transition for unknown job %s "
                               "skipped", job_id)
                continue
            try:
                transition(job, str(record.get("state", "")),
                           record.get("detail"))
            except JobStateError as exc:
                LOGGER.warning("journal: %s", exc)
        else:
            LOGGER.warning("journal: unknown record type %r skipped", kind)
    return jobs


def job_table_rows(jobs: Mapping[str, Job]) -> List[Dict[str, object]]:
    """Compact listing rows (``repro jobs``), newest submissions last."""
    rows = []
    for job in sorted(jobs.values(), key=lambda item: item.seq):
        rows.append({
            "job_id": job.job_id,
            "circuit": job.request.circuit,
            "state": job.state,
            "priority": job.priority,
            "digest": job.digest[:12],
            "detail": job.detail,
        })
    return rows
