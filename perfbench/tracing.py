"""Benchmark-side spans: a recorder and the wrappers that feed it.

The traced run (``--trace 1``) wraps the program's public entry points
where callers look them up — class attributes for methods, module
attributes for functions imported at call time — so every call opens a
span with a name, start, end, parent and the ID of the unit (one
repetition or one served job) it belongs to. Spans stay in memory and
are written out when the run ends. Untraced units install nothing and
get a :class:`NullRecorder`, whose spans cost one no-op context
manager at the benchmark's own phase boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import Histogram

#: (module, class, methods, span prefix). Methods are wrapped on every
#: class in the hierarchy that defines them itself, so an inherited
#: method is wrapped once and an override is wrapped too.
METHOD_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.engine.base", "Engine",
     ("size_widths", "sta", "total_energy", "measure", "measure_batch",
      "evaluate", "apply_move", "apply_voltage", "begin", "restore"),
     "engine"),
    ("repro.robust.estimator", "RobustEstimator", ("estimate",), "robust"),
    ("repro.runtime.checkpoint", "SearchCheckpoint", ("save", "flush"),
     "checkpoint"),
    ("repro.serve.cache", "ResultCache", ("get", "put"), "serve.cache"),
    ("repro.serve.journal", "JobJournal", ("append",), "serve.journal"),
    ("repro.serve.service", "OptimizationService", ("submit", "step"),
     "serve"),
)

#: (module, function, span name). The serve job task imports
#: ``optimize_joint`` from its module at call time, so patching the
#: module attribute reaches the in-service solve; ``optimize_robust``
#: calls the name it imported into its own module.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.optimize.heuristic", "optimize_joint", "search"),
    ("repro.robust.optimize", "optimize_joint", "search"),
)

#: Engine modules imported before wrapping so their subclasses exist.
ENGINE_MODULES = ("repro.engine.array", "repro.engine.batch",
                  "repro.engine.incremental", "repro.engine.scalar")


class NullRecorder:
    """The untraced run's recorder: phase spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class SpanRecorder:
    """In-memory span log of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        #: ID shared by every span of the current unit.
        self.group: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans), "name": name, "group": self.group,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as stream:
            for record in self.spans:
                stream.write(json.dumps(record, sort_keys=True) + "\n")


def _hierarchy(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every target entry point for the duration of the block."""
    for module in ENGINE_MODULES:
        importlib.import_module(module)
    patches: List[Tuple[object, str, object]] = []
    for module, cls_name, methods, prefix in METHOD_TARGETS:
        root = getattr(importlib.import_module(module), cls_name)
        for klass in _hierarchy(root):
            for method in methods:
                original = klass.__dict__.get(method)
                if original is None:
                    continue
                patches.append((klass, method, original))
                setattr(klass, method,
                        recorder.wrap(f"{prefix}.{method}", original))
    for module, function, name in FUNCTION_TARGETS:
        owner = importlib.import_module(module)
        original = getattr(owner, function)
        patches.append((owner, function, original))
        setattr(owner, function, recorder.wrap(name, original))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


class SpanStats:
    """Durations and self times per span name, over the traced units.

    A span whose parent has the same name is a delegation (the
    incremental engine forwards stateless calls to its inner array
    engine): it adds self time but not a second call or duration.
    """

    def __init__(self, spans: List[Dict[str, object]]) -> None:
        child_time: Dict[int, float] = defaultdict(float)
        for record in spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += _duration(record)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_time: Dict[str, float] = defaultdict(float)
        for record in spans:
            duration = _duration(record)
            name = record["name"]
            parent = record["parent"]
            if parent is None or spans[parent]["name"] != name:
                self.durations[name].append(duration)
            self.self_time[name] += duration - child_time[record["id"]]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def percentile(self, name: str, q: float) -> float:
        """Percentile of a span's durations (s); 0 if it never ran."""
        histogram = Histogram()
        for duration in self.durations.get(name, ()):
            histogram.observe(duration)
        return histogram.percentile(q) if histogram.count else 0.0


def _duration(record: Dict[str, object]) -> float:
    return float(record["end"]) - float(record["start"])
