"""``"batch"`` is an alias of the ``"fast"`` engine; this module is empty.

:class:`~repro.engine.array.ArrayEngine` batches natively
(``measure_batch`` / ``evaluate_batch`` over the shared ``(B, n)``
kernels), :func:`repro.engine.make_engine` builds it for the name
``"batch"``, and the name fingerprints as ``"fast"``. The module stays
only because the benchmark's span tracer (``perfbench/tracing.py``)
imports it; it can go when that import does.
"""
