"""Static (off-state) leakage models.

Appendix A.1 of the paper includes two contributors to the static
dissipation of a gate:

* subthreshold conduction through the (nominally off) MOSFET channel,
* reverse leakage of the drain junction diodes.

Both are per unit feature-size width, matching the paper's
``E_si = Vdd * w_i * I_off / f_c`` form where ``w_i`` is the gate's width
multiplier.
"""

from __future__ import annotations

import math

from repro.errors import TechnologyError
from repro.technology.process import Technology


def subthreshold_off_current_per_width(tech: Technology, vth: float,
                                       vds: float | None = None) -> float:
    """Subthreshold channel leakage per unit width at ``Vgs = 0`` (A).

    ``I_sub = i0 * 10^(-vth / S)`` — the textbook exponential dependence on
    the threshold voltage that drives the whole optimization: as the
    optimizer lowers ``Vth`` to keep speed at low ``Vdd``, this term grows
    by one decade per subthreshold-slope's worth of reduction.
    """
    if not math.isfinite(vth):
        raise TechnologyError(f"vth must be finite, got {vth}")
    if vth <= 0.0:
        raise TechnologyError(f"vth must be > 0, got {vth}")
    current = tech.subthreshold_i0 * 10.0 ** (-vth / tech.subthreshold_slope)
    if vds is not None:
        if not math.isfinite(vds):
            raise TechnologyError(f"vds must be finite, got {vds}")
        if vds < 0.0:
            raise TechnologyError(f"vds must be >= 0, got {vds}")
        current *= -math.expm1(-vds / tech.thermal_voltage)
    return current


def junction_leakage_per_width(tech: Technology) -> float:
    """Drain-junction reverse leakage per unit width (A).

    Modelled as bias-independent (a reverse-biased diode's saturation
    current); orders of magnitude below subthreshold leakage except at very
    high ``Vth``.
    """
    return tech.junction_leakage


def off_current_per_width(tech: Technology, vth: float,
                          vds: float | None = None) -> float:
    """Total off current ``I_off`` per unit feature-size width (A).

    The quantity that enters the paper's static energy
    ``E_si = Vdd * w_i * I_off / f_c`` (Appendix A.1, eq. A1).
    """
    return (subthreshold_off_current_per_width(tech, vth, vds=vds)
            + junction_leakage_per_width(tech))


def leakage_decades_saved(tech: Technology, vth_from: float, vth_to: float) -> float:
    """How many decades of subthreshold leakage separate two thresholds.

    Positive when ``vth_to > vth_from`` (raising Vth saves leakage).
    Handy for reports: ``(vth_to - vth_from) / S``.
    """
    if vth_from <= 0.0 or vth_to <= 0.0:
        raise TechnologyError("thresholds must be positive")
    return (vth_to - vth_from) / tech.subthreshold_slope
