"""The bound, its rounding and branch-and-bound read the same in any unit.

Scaling the deadline, every task's cycles and every penalty by one
factor gives the same problem in other units: ``g`` and the costs scale
by that factor and the optimal accepted set does not move.  An absolute
tolerance (a prune margin, a search stop or a witness slack of a fixed
size) breaks that at small scales, where it dwarfs the costs.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.rejection import (
    RejectionProblem,
    branch_and_bound,
    fractional_lower_bound,
    lp_rounding,
)
from repro.energy import ContinuousEnergyFunction
from repro.power import PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet

SCALE = 1e-10

MODELS = {
    "xscale": xscale_power_model(),
    "floor-smin": PolynomialPowerModel(beta0=0.05, beta1=1.0, alpha=2.5, s_min=0.3),
}


def _pair(seed: int, model) -> tuple[RejectionProblem, RejectionProblem]:
    """One seeded instance, in the base units and scaled by :data:`SCALE`."""
    rng = Random(f"scale-free:{seed}")
    n = rng.randint(6, 12)
    load = rng.uniform(0.6, 1.8)
    rows = [
        (c, 4.6 * c * rng.uniform(0.3, 2.2))
        for c in (load / n * rng.uniform(0.4, 1.6) for _ in range(n))
    ]

    def problem(scale: float) -> RejectionProblem:
        tasks = FrameTaskSet(
            FrameTask(name=f"t{i}", cycles=c * scale, penalty=p * scale)
            for i, (c, p) in enumerate(rows)
        )
        fn = ContinuousEnergyFunction(model, scale, include_static_floor=True)
        return RejectionProblem(tasks=tasks, energy_fn=fn)

    return problem(1.0), problem(SCALE)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_scaled_instances_solve_alike(model):
    for seed in range(40):
        base, scaled = _pair(seed, MODELS[model])
        assert branch_and_bound(scaled).accepted == branch_and_bound(base).accepted
        assert lp_rounding(scaled).accepted == lp_rounding(base).accepted
        assert fractional_lower_bound(scaled) / SCALE == pytest.approx(
            fractional_lower_bound(base), rel=1e-9
        )
