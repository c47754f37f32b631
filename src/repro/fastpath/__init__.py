"""Vectorized (NumPy) evaluation engine.

Procedure 2 evaluates the circuit hundreds of times; the scalar
reference implementation walks Python dicts gate by gate. This subpackage
provides a drop-in vectorized engine:

* :class:`~repro.fastpath.arrays.ArrayContext` — flat NumPy mirrors of a
  :class:`~repro.context.CircuitContext` (CSR fanin/fanout structure,
  per-gate capacitance coefficients, level partition for topological
  vectorization),
* :mod:`~repro.fastpath.evaluate` — the one kernel set: vectorized
  minimum-width sizing (budget repair included), STA and energy, each
  written once for a single design ``(n,)`` and a batch of designs
  ``(B, n)``, accepting per-gate Vdd/Vth vectors as well as global
  scalars,
* :mod:`~repro.fastpath.batch` — argument normalization for batched
  calls.

Every row of a batched call is ``==`` to the single-design call on that
row, and the incremental engine's state is ``==`` to a fresh
single-design call: all three run the same kernel code over the same
numbers, and transistor currents come from an array device model that
is ``==`` to the scalar one. Against the scalar reference engine, which
sums the same terms in other associations, the tests assert agreement
to float round-off on every benchmark circuit and on random design
points, repair corners included — there is no scalar fallback anywhere.
Optimizers consume these kernels through
:class:`repro.engine.array.ArrayEngine` (settings ``engine="fast"``, or
``engine="auto"`` with ``REPRO_ENGINE=fast``).
"""

from repro.fastpath.arrays import ArrayContext
from repro.fastpath.evaluate import (
    fast_size_widths,
    fast_sta,
    fast_total_energy,
)

__all__ = [
    "ArrayContext",
    "fast_size_widths",
    "fast_sta",
    "fast_total_energy",
]
