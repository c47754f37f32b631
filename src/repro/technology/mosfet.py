"""Transregional MOSFET drain-current model.

The paper's delay model (Appendix A.2) is built on a *transregional*
extension of the Sakurai–Newton alpha-power saturation current law [9]:
it must be accurate both in strong inversion (``Vdd > Vth``) and in
subthreshold (``Vdd <= Vth``), because the optimizer deliberately explores
supply voltages below threshold when the delay target is loose.

We implement a single smooth formula with the two correct asymptotes:

* strong inversion: ``I/w = B * (Vgs - Vth)^alpha`` (alpha-power law, with
  ``B`` calibrated so the reference corner of the technology deck
  reproduces ``idsat_reference``),
* subthreshold:     ``I/w = i0 * exp((Vgs - Vth) / (n * vT))`` (anchored at
  the deck's ``subthreshold_i0``, i.e. ``I_off = i0 * 10^(-Vth/S)``),

blended by a softplus of the gate overdrive::

    I/w = B * (n*vT*alpha * softplus((Vgs - Vth') / (n*vT*alpha)))^alpha

where ``softplus(x) = ln(1 + e^x)`` and ``Vth' = Vth - dV`` is a small
threshold shift that makes the subthreshold asymptote hit the ``i0``
anchor exactly. ``B`` is then re-calibrated (fixed point, converges in a
couple of iterations) so the strong-inversion reference corner is exact
too. A drain-saturation factor ``(1 - exp(-Vds/vT))`` models the loss of
drive at very small drain bias.

The model is monotonically increasing in ``Vgs`` and decreasing in
``Vth`` — properties the paper's binary searches rely on and that the test
suite checks with hypothesis.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

from repro.errors import TechnologyError
from repro.technology.process import Technology


def _softplus(x: float) -> float:
    """Numerically-safe ``ln(1 + e^x)``."""
    if x > 40.0:
        return x
    if x < -40.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


@lru_cache(maxsize=128)
def _transregional_params(tech: Technology) -> Tuple[float, float, float]:
    """Calibrated ``(B, threshold_shift, blend_voltage)`` for a deck.

    ``B`` is the alpha-power current factor, ``threshold_shift`` the small
    ``dV`` aligning the subthreshold asymptote with ``subthreshold_i0`` and
    ``blend_voltage`` the softplus scale ``n * vT * alpha``.
    """
    n_vt = tech.ideality * tech.thermal_voltage
    blend = n_vt * tech.alpha
    b_factor = tech.current_factor
    shift = 0.0
    overdrive_ref = tech.vdd_reference - tech.vth_reference
    for _ in range(8):
        # Align the subthreshold asymptote with the i0 anchor.
        prefactor = b_factor * blend ** tech.alpha
        shift = n_vt * math.log(tech.subthreshold_i0 / prefactor)
        # Re-calibrate B so the reference corner is exact with the shift.
        raw = (blend * _softplus((overdrive_ref + shift) / blend)) ** tech.alpha
        b_factor = tech.idsat_reference / raw
    return b_factor, shift, blend


def saturation_current_per_width(tech: Technology, vgs: float, vth: float) -> float:
    """Pure alpha-power saturation current per unit width (no subthreshold).

    Returns 0 for ``vgs <= vth``. Mostly useful for tests and for comparing
    against the transregional model; the optimizer uses
    :func:`drain_current_per_width`.
    """
    overdrive = vgs - vth
    if overdrive <= 0.0:
        return 0.0
    return tech.current_factor * overdrive ** tech.alpha


def subthreshold_current_per_width(tech: Technology, vgs: float, vth: float,
                                   vds: float | None = None) -> float:
    """Pure subthreshold (weak-inversion) current per unit width.

    ``I/w = i0 * exp((vgs - vth)/(n vT)) * (1 - exp(-vds/vT))``. With
    ``vds=None`` the drain factor is taken as 1 (drain in full saturation).
    """
    n_vt = tech.ideality * tech.thermal_voltage
    current = tech.subthreshold_i0 * math.exp((vgs - vth) / n_vt)
    if vds is not None:
        current *= _drain_saturation_factor(tech, vds)
    return current


def _drain_saturation_factor(tech: Technology, vds: float) -> float:
    """``1 - exp(-Vds/vT)`` drain-bias factor, clamped to [0, 1]."""
    if vds <= 0.0:
        return 0.0
    return -math.expm1(-vds / tech.thermal_voltage)


def drain_current_per_width(tech: Technology, vgs: float, vth: float,
                            vds: float | None = None) -> float:
    """Transregional switching drain current per unit feature-size width (A).

    This is the paper's ``I_Diw``: the worst-case drive of a switching
    MOSFET with its gate at ``vgs`` (normally ``Vdd``) and the given
    threshold voltage. Valid and smooth across the sub/superthreshold
    boundary. ``vds`` defaults to ``vgs`` (output swinging from the rail).
    """
    if not math.isfinite(vgs):
        raise TechnologyError(f"vgs must be finite, got {vgs}")
    if not math.isfinite(vth):
        raise TechnologyError(f"vth must be finite, got {vth}")
    if vds is not None and not math.isfinite(vds):
        raise TechnologyError(f"vds must be finite, got {vds}")
    if vgs < 0.0:
        raise TechnologyError(f"vgs must be >= 0, got {vgs}")
    if vth <= 0.0:
        raise TechnologyError(f"vth must be > 0, got {vth}")
    b_factor, shift, blend = _transregional_params(tech)
    effective_overdrive = blend * _softplus((vgs - vth + shift) / blend)
    try:
        current = b_factor * effective_overdrive ** tech.alpha
    except OverflowError:
        raise TechnologyError(
            f"vgs={vgs} overflows the drain-current model") from None
    drain_bias = vgs if vds is None else vds
    return current * _drain_saturation_factor(tech, drain_bias)


def transconductance_per_width(tech: Technology, vgs: float, vth: float,
                               step: float = 1e-4) -> float:
    """Numerical ``dI/dVgs`` per unit width (A/V), central difference.

    Used by tests to check smoothness across the transregional boundary and
    by the sensitivity reports.
    """
    lo = max(vgs - step, 0.0)
    hi = vgs + step
    i_lo = drain_current_per_width(tech, lo, vth, vds=vgs)
    i_hi = drain_current_per_width(tech, hi, vth, vds=vgs)
    return (i_hi - i_lo) / (hi - lo)
