"""Vectorized (NumPy) evaluation engine.

Procedure 2 evaluates the circuit hundreds of times; the scalar
reference implementation walks Python dicts gate by gate. This subpackage
provides a drop-in vectorized engine:

* :class:`~repro.fastpath.arrays.ArrayContext` — flat NumPy mirrors of a
  :class:`~repro.context.CircuitContext` (CSR fanin/fanout structure,
  per-gate capacitance coefficients, level partition for topological
  vectorization),
* :mod:`~repro.fastpath.evaluate` — vectorized minimum-width sizing
  (budget repair included), STA and energy evaluation, all accepting
  per-gate Vdd/Vth vectors as well as global scalars.

The kernels are *bit-compatible by construction* with the scalar path
(the same formulas over the same numbers, just batched; transistor
currents come from an array device model that is ``==`` to the scalar
one); the test suite asserts agreement to float round-off on every
benchmark circuit and on random design points, repair corners included —
there is no scalar fallback anywhere. Optimizers consume these kernels
through :class:`repro.engine.array.ArrayEngine` (settings
``engine="fast"``, or ``engine="auto"`` with ``REPRO_ENGINE=fast``).
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
