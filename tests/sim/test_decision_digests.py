"""A pin on the simulator's admission verdicts for the smoke runs.

``repro sim --arrivals 200 --seed 0`` on the bursty family, the heavy
family, and the heavy family with an (m,k) policy on a typed platform,
rebuilt in-process through :func:`repro.sim.simulate`.  A change that
moves one verdict moves a digest; a deliberate change re-pins it and
says why.
"""

from __future__ import annotations

import pytest

from repro.sim import sim_params, simulate

#: ``repro sim``'s defaults for the flags these runs leave unset.
_CLI_DEFAULTS = {
    "count": 200,
    "seed": 0,
    "cores": 2,
    "policy": "accept",
    "capacity_units": 50000.0,
    "rate_units_per_s": 20000.0,
    "speed": 1.0,
    "context_switch_s": 0.0,
    "context_switch_j": 0.0,
}

#: (extra ``sim_params`` keywords, committed ``decision_digest``).
PINS = {
    "bursty": (
        {"family": "bursty"},
        "2f7471e19891d888849731394be7e90070f262a6a855990f6b55be6cb0d3616d",
    ),
    "heavy": (
        {"family": "heavy"},
        "d9969f2f2257ac36269531f65ce5a1b01c42dce5439850f05a12bae6e43603b5",
    ),
    "heavy-mk-lp2hp1": (
        {
            "family": "heavy",
            "cores_spec": "lp:2,hp:1",
            "policy": "mk",
            "mk_m": 2,
            "mk_k": 4,
        },
        "fc0c4927c2d220de31f6e329d22b27ed7069ba3d8ed4f4eb6ac05f5dfc82a1c6",
    ),
}


@pytest.mark.parametrize("name", PINS)
def test_decision_digest_matches_the_pin(name):
    overrides, digest = PINS[name]
    _, report = simulate(sim_params(**{**_CLI_DEFAULTS, **overrides}))
    assert report.offered == 200
    assert report.decision_digest() == digest
