"""Pinned digests of the variation sampler and its two consumers.

The robust estimator and the Monte-Carlo analysis share one
counter-seeded Vth sampler and one die loop. Every value they produce
is pinned here as a sha256 digest, recorded before the two were merged
onto the shared sampler: the sampled threshold rows, the Monte-Carlo
outcomes on the reference (``engine=None``) and batched paths, and
robust estimates on every engine. Any change to the draw order, the
clamp, the quarantine loop or the engines' per-row arithmetic moves a
digest. Every engine is named explicitly, so the digests hold under any
``REPRO_ENGINE``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_variation
from repro.engine import make_engine
from repro.optimize.problem import DesignPoint
from repro.robust import RobustConfig
from repro.robust.estimator import estimate_design
from repro.robust.sampler import VthSampler

DIES = 40

ROWS = {
    (0, "scalar"):
        "43e201f58bed77c4cb40738ee4bb5db833689e503778da9230b51a55606264d4",
    (0, "per_gate"):
        "d4bfb22c353b1d276ea7bd0aba6ac131c21b7457a9873c25c1e0385d0ba041ba",
    (12, "scalar"):
        "b9fb7acbd110bc6a38e3d56b0f7a594d3d56443486e511ed26930c44a133ba50",
    (12, "per_gate"):
        "48c79b9310efd79e90f09457578b686f5074f6fec29137ba4907948fabfc1085",
}

MONTE_CARLO = {
    ("scalar", None):
        "6ee114285571ec03c90b3a4fa45ad8df0eb9efafe9527983dd0330e888110d8e",
    ("scalar", "batch"):
        "8829b1f93575ba7245aa9ea45fcb4c0b857431d910f5f2b3303d200e0d6bce5e",
    ("per_gate", None):
        "7dd4e47b4c3f1cefb1bb9d84a8c73ea280f666cec9701b93fe80615497f4c496",
    ("per_gate", "batch"):
        "69e4ecf107b2fe50858d12bf4c7a1350f8b00c83193999bd0f37a97044774c84",
}

_FAST_DEFAULT = \
    "5a4f85a8063f359b5513f7fb36b8cc669b878c1aea7cde091def2e7813d5e43b"
_FAST_FULL = \
    "0c60d2301ee79e6beb04bf5fdf8b9049e919de052fe2c3a3e48a5b358e7fe3d6"
_FAST_PG_DEFAULT = \
    "10c1a9a20e02984ee5417814760071377456aacb8984e119c153cb13bca92e0e"
_FAST_PG_FULL = \
    "619467a05d4d1a7389300e207ae4b526a64358b28a6a4fb2acb433913d289f2b"

ESTIMATES = {
    ("scalar", "default", "scalar"):
        "3712b02f066a533cd230ff57cc343a9eb83cd5dda8e986d6915f9bb660ea1a41",
    ("scalar", "default", "fast"): _FAST_DEFAULT,
    ("scalar", "default", "batch"): _FAST_DEFAULT,
    ("scalar", "full", "scalar"):
        "94b0a029179180e710bea5414d56b95d0ccc65d173330fd5b34a24e9bce6a526",
    ("scalar", "full", "fast"): _FAST_FULL,
    ("scalar", "full", "batch"): _FAST_FULL,
    ("per_gate", "default", "scalar"):
        "6b990b764bb744d509e67525a4d052db5b63c405814fbf0cf956d6e26b42fa95",
    ("per_gate", "default", "fast"): _FAST_PG_DEFAULT,
    ("per_gate", "default", "batch"): _FAST_PG_DEFAULT,
    ("per_gate", "full", "scalar"):
        "c1ed6d66e983b8cfed625aa7bb9b493f07525c1d4943add941983c367497d9cf",
    ("per_gate", "full", "fast"): _FAST_PG_FULL,
    ("per_gate", "full", "batch"): _FAST_PG_FULL,
}

CONFIGS = {
    "default": RobustConfig(seed=12),
    "full": RobustConfig(seed=0, measure="cvar", yield_target=0.5,
                         cull_samples=40),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def per_gate(s298_problem):
    return {name: 0.18 + 0.01 * (i % 5)
            for i, name in enumerate(s298_problem.ctx.gates)}


@pytest.fixture(scope="module")
def designs(s298_problem, per_gate):
    """s298 sized at (0.8 V, 0.2 V) on the scalar engine: a design
    right at its timing constraint, so about half the dies miss it."""
    sizing = make_engine(s298_problem, "scalar").size_widths(
        s298_problem.budgets(), 0.8, 0.2)
    widths = sizing.widths_map()
    return {"scalar": DesignPoint(vdd=0.8, vth=0.2, widths=widths),
            "per_gate": DesignPoint(vdd=0.8, vth=per_gate, widths=widths)}


@pytest.mark.parametrize("seed,nominal", sorted(ROWS))
def test_sampled_rows(s298_problem, per_gate, seed, nominal):
    sampler = VthSampler(s298_problem.ctx.gates, 0.015, 0.010, seed)
    vth = 0.2 if nominal == "scalar" else per_gate
    rows = sampler.thresholds(vth, sampler.offsets(0, DIES))
    assert rows.dtype == np.float64 and rows.shape == (
        DIES, len(s298_problem.ctx.gates))
    assert _sha(rows.tobytes()) == ROWS[seed, nominal]


@pytest.mark.parametrize("design,engine", sorted(MONTE_CARLO, key=str))
def test_monte_carlo_outcomes(s298_problem, designs, design, engine):
    outcome = monte_carlo_variation(s298_problem, designs[design],
                                    samples=DIES, seed=12, engine=engine)
    record = (outcome.samples, outcome.timing_yield, outcome.energies,
              outcome.delays, outcome.nominal_energy, outcome.nominal_delay,
              outcome.samples_failed)
    assert _sha(repr(record).encode()) == MONTE_CARLO[design, engine]


@pytest.mark.parametrize("design,config,engine", sorted(ESTIMATES))
def test_robust_estimates(s298_problem, designs, design, config, engine):
    estimate = estimate_design(s298_problem, designs[design],
                               CONFIGS[config], engine=engine)
    payload = json.dumps(estimate.to_dict(), sort_keys=True)
    assert _sha(payload.encode()) == ESTIMATES[design, config, engine]
