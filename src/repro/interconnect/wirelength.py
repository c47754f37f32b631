"""Davis a-priori point-to-point wire-length distribution.

Derived (Davis/De/Meindl, refs. [4][5] of the paper) by recursively
applying Rent's rule with conservation of I/Os on a square array of ``N``
gates. The expected number of point-to-point interconnects of length ``l``
(in gate pitches) has the closed form::

    region I  (1 <= l <= sqrt(N)):
        i(l) = (Gamma/2) * (l^3/3 - 2*sqrt(N)*l^2 + 2*N*l) * l^(2p-4)
    region II (sqrt(N) <= l <= 2*sqrt(N)):
        i(l) = (Gamma/6) * (2*sqrt(N) - l)^3 * l^(2p-4)

with ``p`` the Rent exponent and ``Gamma`` a normalization constant. We
only ever use the *shape* (normalized density, mean, quantiles, samples),
so ``Gamma`` is fixed by normalizing over the integer lengths
``1 .. 2*sqrt(N)``.

Lengths are in units of the average gate pitch; conversion to metres (and
then to farads/ohms/seconds) happens in
:mod:`repro.interconnect.parasitics`.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.errors import ReproError
from repro.interconnect.rent import RentParameters


class WireLengthDistribution:
    """Normalized point-to-point wire-length distribution for one design."""

    def __init__(self, n_gates: int,
                 rent: RentParameters | None = None):
        if n_gates < 1:
            raise ReproError(f"n_gates must be >= 1, got {n_gates}")
        self.n_gates = n_gates
        self.rent = rent or RentParameters.random_logic()
        self._lengths, self._pmf = self._build_pmf()
        self._cdf = self._build_cdf()
        self._mean = sum(length * probability for length, probability
                         in zip(self._lengths, self._pmf))

    # --- construction -----------------------------------------------------

    def _density(self, length: float) -> float:
        """Unnormalized i(l); zero outside (0, 2*sqrt(N)]."""
        n = float(self.n_gates)
        side = math.sqrt(n)
        if length <= 0.0 or length > 2.0 * side:
            return 0.0
        power = length ** (2.0 * self.rent.exponent - 4.0)
        if length <= side:
            polynomial = (length ** 3 / 3.0
                          - 2.0 * side * length ** 2
                          + 2.0 * n * length)
            value = 0.5 * polynomial * power
        else:
            value = (2.0 * side - length) ** 3 * power / 6.0
        return max(value, 0.0)

    def _build_pmf(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        max_length = max(int(math.ceil(2.0 * math.sqrt(self.n_gates))), 1)
        lengths = tuple(range(1, max_length + 1))
        raw = [self._density(float(length)) for length in lengths]
        total = sum(raw)
        if total <= 0.0:
            # Degenerate (N = 1): every wire is one pitch long.
            return (1,), (1.0,)
        return lengths, tuple(value / total for value in raw)

    def _build_cdf(self) -> Tuple[float, ...]:
        cumulative = 0.0
        cdf: List[float] = []
        for probability in self._pmf:
            cumulative += probability
            cdf.append(cumulative)
        cdf[-1] = 1.0
        return tuple(cdf)

    # --- queries -------------------------------------------------------------

    @property
    def lengths(self) -> Tuple[int, ...]:
        """Support of the distribution (gate pitches)."""
        return self._lengths

    @property
    def pmf(self) -> Tuple[float, ...]:
        """Normalized probability of each support length."""
        return self._pmf

    def probability(self, length: int) -> float:
        if length < 1 or length > self._lengths[-1]:
            return 0.0
        return self._pmf[length - 1]

    def mean_length(self) -> float:
        """Expected point-to-point length (gate pitches)."""
        return self._mean

    def quantile(self, fraction: float) -> int:
        """Smallest length whose CDF reaches ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ReproError(f"fraction must be in [0, 1], got {fraction}")
        for length, cumulative in zip(self._lengths, self._cdf):
            if cumulative >= fraction:
                return length
        return self._lengths[-1]

    def sample(self, rng: random.Random) -> int:
        """Draw one point-to-point length."""
        roll = rng.random()
        for length, cumulative in zip(self._lengths, self._cdf):
            if roll < cumulative:
                return length
        return self._lengths[-1]

    def net_length(self, fanout: int, sharing: float = 0.75) -> float:
        """Expected total length of a ``fanout``-sink net (gate pitches).

        Multi-sink nets share trunk segments, so the total routed length
        grows sublinearly with fanout; ``sharing`` < 1 scales the
        incremental branches (a Steiner-tree sharing factor). ``fanout=0``
        (an unconnected primary output) still gets one pitch of boundary
        wiring.
        """
        if fanout < 0:
            raise ReproError(f"fanout must be >= 0, got {fanout}")
        if not 0.0 < sharing <= 1.0:
            raise ReproError(f"sharing must be in (0, 1], got {sharing}")
        mean = self.mean_length()
        if fanout == 0:
            return mean
        return mean * (1.0 + sharing * (fanout - 1))


@lru_cache(maxsize=64)
def distribution_for(n_gates: int, terminals_per_gate: float,
                     exponent: float) -> WireLengthDistribution:
    """Cached distribution lookup keyed by its defining scalars."""
    rent = RentParameters(terminals_per_gate=terminals_per_gate,
                          exponent=exponent)
    return WireLengthDistribution(n_gates, rent)
