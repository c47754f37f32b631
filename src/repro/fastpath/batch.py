"""Arguments of a batched (multi-design) fastpath call.

The kernels themselves live in :mod:`repro.fastpath.evaluate`, written
once for one design and for a batch (see its docstring for the rank
rule and the bit-identity contract). This module normalizes a batched
invocation's arguments: ``widths`` ``(B, n)`` (or ``(1, n)`` for a
design shared across rows), and voltages as :class:`BatchValue`\\ s — a
global float, per-row scalars ``(B, 1)``, or per-gate vectors
``(1, n)`` / ``(B, n)``.

A batch is per-row scalars or per-gate rows, never a mix — mixed
batches are the caller's (engine fallback's) problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from repro.errors import OptimizationError
from repro.fastpath.arrays import ArrayContext


@dataclass(frozen=True)
class BatchValue:
    """One normalized batched voltage.

    ``values`` is a float (global), a ``(B, 1)`` array (per-row
    scalars), or a ``(1, n)`` / ``(B, n)`` array (per-gate vectors,
    flagged by ``per_gate``). Arrays are in *internal* (processing)
    order.
    """

    values: Union[float, np.ndarray]
    per_gate: bool

    @property
    def rows(self) -> int:
        if isinstance(self.values, np.ndarray):
            return int(self.values.shape[0])
        return 1

    def row(self, b: int) -> Union[float, np.ndarray]:
        """Row ``b`` in single-design form: a float or an ``(n,)``
        vector — exactly what the looped kernel would have received.

        ``values`` may also be a quantity derived from a batch's
        voltages (drive, slope coefficients, ``k·Vdd``): a float or a
        1-D value is shared by every row and returned as it is.
        """
        values = self.values
        if not isinstance(values, np.ndarray) or values.ndim == 1:
            return values
        values = values[min(b, values.shape[0] - 1)]
        return values if self.per_gate else float(values[0])

    def take(self, rows: np.ndarray) -> "BatchValue":
        """The batch restricted to ``rows`` (row values unchanged)."""
        if not isinstance(self.values, np.ndarray) \
                or self.values.shape[0] == 1:
            return self
        return BatchValue(self.values[rows], self.per_gate)


def as_batch_value(arrays: ArrayContext, value, batch: int) -> BatchValue:
    """Normalize one voltage argument for a ``batch``-row invocation.

    Accepted: :class:`BatchValue` (validated), float (global), mapping
    or ``(n,)`` vector (per-gate, shared by all rows), ``(B, 1)``
    (per-row scalars), ``(1, n)`` / ``(B, n)`` (per-gate). A bare
    ``(B,)`` vector is rejected as ambiguous against ``(n,)`` — reshape
    to ``(B, 1)`` to mean per-row scalars.
    """
    n = arrays.n_gates
    if isinstance(value, BatchValue):
        if isinstance(value.values, np.ndarray):
            shape = value.values.shape
            expected = (1, n) if value.per_gate else (1, 1)
            if shape not in ((batch,) + expected[1:], expected):
                raise OptimizationError(
                    f"batch voltage has shape {shape}, expected "
                    f"{(batch,) + expected[1:]} or {expected}")
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            if value.shape == (batch, 1):
                return BatchValue(value, per_gate=False)
            if value.shape in ((batch, n), (1, n)):
                return BatchValue(value, per_gate=True)
            raise OptimizationError(
                f"batch voltage has shape {value.shape}; expected "
                f"({batch}, 1), ({batch}, {n}) or (1, {n})")
        if value.shape == (n,):
            return BatchValue(value.reshape(1, n), per_gate=True)
        raise OptimizationError(
            f"batch voltage has shape {value.shape}; a per-row vector "
            f"must be ({batch}, 1), a shared per-gate vector ({n},)")
    if isinstance(value, Mapping):
        vec = arrays.values_to_array(value)
        return BatchValue(np.asarray(vec).reshape(1, n), per_gate=True)
    return BatchValue(float(value), per_gate=False)


def is_batch(value) -> bool:
    """True when a kernel argument carries a design batch axis."""
    return isinstance(value, BatchValue) or (
        isinstance(value, np.ndarray) and value.ndim == 2)


def _arg_rows(value) -> int:
    if isinstance(value, BatchValue):
        return value.rows
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return int(value.shape[0])
    return 1


def normalize_args(arrays: ArrayContext, vdd, vth,
                   w: Optional[np.ndarray] = None):
    """Normalize a batched kernel invocation's arguments.

    Returns ``(vdd, vth, w, batch)`` with voltages as
    :class:`BatchValue`, widths as ``(B, n)`` or shared ``(1, n)``, and
    ``batch`` the number of design rows (the max over the arguments;
    every batched argument must carry either 1 or ``batch`` rows).
    """
    rows = [_arg_rows(vdd), _arg_rows(vth)]
    if w is not None:
        if w.ndim == 1:
            w = w.reshape(1, -1)
        if w.shape[1] != arrays.n_gates:
            raise OptimizationError(
                f"width batch has shape {w.shape}, expected "
                f"(B, {arrays.n_gates})")
        rows.append(int(w.shape[0]))
    batch = max(rows)
    if any(r not in (1, batch) for r in rows):
        raise OptimizationError(
            f"inconsistent batch sizes {rows}: rows must be 1 or {batch}")
    return (as_batch_value(arrays, vdd, batch),
            as_batch_value(arrays, vth, batch), w, batch)
