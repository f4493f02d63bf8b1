"""Tests for the service request model and cost estimation."""

import numpy as np
import pytest

from repro.core.rejection import MultiprocRejectionProblem, RejectionProblem
from repro.energy import ContinuousEnergyFunction
from repro.io import instance_to_dict
from repro.power import xscale_power_model
from repro.service.models import (
    MULTIPROC_SOLVERS,
    RequestError,
    SOLVER_NAMES,
    UNIPROC_SOLVERS,
    estimate_cost,
    parse_solve_request,
    resolve_solver,
)
from repro.tasks import frame_instance


def _instance_dict(n: int = 6, processors: int | None = None) -> dict:
    rng = np.random.default_rng(0)
    energy_fn = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    if processors is None:
        problem = RejectionProblem(
            tasks=frame_instance(rng, n_tasks=n, load=1.5),
            energy_fn=energy_fn,
        )
    else:
        problem = MultiprocRejectionProblem(
            tasks=frame_instance(rng, n_tasks=n, load=1.2 * processors),
            energy_fn=energy_fn,
            m=processors,
        )
    return instance_to_dict(problem)


class TestEstimateCost:
    def test_every_solver_has_an_estimate(self):
        for name in SOLVER_NAMES:
            assert estimate_cost(8, name, processors=2) >= 1.0

    def test_exhaustive_dominates_greedy(self):
        assert estimate_cost(20, "exhaustive") > 1e4 * estimate_cost(
            20, "greedy_marginal"
        )

    def test_fptas_cost_grows_as_eps_shrinks(self):
        assert estimate_cost(10, "fptas", eps=0.01) > estimate_cost(
            10, "fptas", eps=0.5
        )

    def test_unknown_algorithm(self):
        with pytest.raises(RequestError, match="unknown algorithm"):
            estimate_cost(5, "quantum_annealing")

    def test_empty_instance(self):
        with pytest.raises(RequestError, match="at least one task"):
            estimate_cost(0, "fptas")


class TestResolveSolver:
    def test_resolves_every_name(self):
        for name in SOLVER_NAMES:
            assert callable(resolve_solver(name))

    def test_unknown(self):
        with pytest.raises(RequestError):
            resolve_solver("nope")


class TestParseSolveRequest:
    def test_defaults(self):
        request = parse_solve_request({"instance": _instance_dict()}, "r1")
        assert request.req_id == "r1"
        assert request.algorithm == "fptas"
        assert request.eps == 0.1
        assert request.deadline_s == 30.0
        assert request.weight == 1.0
        assert request.mode == "sync"
        assert request.n == 6
        assert request.processors == 1
        assert request.cost_units == estimate_cost(6, "fptas")

    def test_multiproc_defaults_to_ltf(self):
        request = parse_solve_request(
            {"instance": _instance_dict(processors=3)}, "r1"
        )
        assert request.algorithm == "ltf_reject"
        assert request.processors == 3

    def test_worker_payload_is_minimal(self):
        instance = _instance_dict()
        request = parse_solve_request(
            {"instance": instance, "algorithm": "greedy_marginal"}, "r9"
        )
        assert request.worker_payload() == {
            "req_id": "r9",
            "instance": instance,
            "algorithm": "greedy_marginal",
            "eps": 0.1,
        }

    @pytest.mark.parametrize(
        "body, pattern",
        [
            (None, "JSON object"),
            ([], "JSON object"),
            ({}, "'instance'"),
            ({"instance": 3}, "'instance'"),
            ({"instance": {"tasks": []}}, "non-empty list"),
            ({"instance": {"tasks": [{}], "processors": 1.5}}, "integer"),
            ({"instance": {"tasks": [{}], "processors": True}}, "integer"),
            ({"instance": {"tasks": [{}], "processors": 0}}, ">= 1"),
            ({"instance": {"tasks": [{}], "processors": -3}}, ">= 1"),
        ],
    )
    def test_malformed_bodies(self, body, pattern):
        with pytest.raises(RequestError, match=pattern):
            parse_solve_request(body, "r1")

    def test_unknown_algorithm(self):
        with pytest.raises(RequestError, match="unknown algorithm"):
            parse_solve_request(
                {"instance": _instance_dict(), "algorithm": "nope"}, "r1"
            )

    @pytest.mark.parametrize("algorithm", MULTIPROC_SOLVERS)
    def test_multiproc_solver_on_uniproc_instance(self, algorithm):
        with pytest.raises(RequestError, match="multiprocessor instance"):
            parse_solve_request(
                {"instance": _instance_dict(), "algorithm": algorithm}, "r1"
            )

    @pytest.mark.parametrize("algorithm", UNIPROC_SOLVERS)
    def test_uniproc_solver_on_multiproc_instance(self, algorithm):
        with pytest.raises(RequestError, match="cannot solve"):
            parse_solve_request(
                {
                    "instance": _instance_dict(processors=2),
                    "algorithm": algorithm,
                },
                "r1",
            )

    @pytest.mark.parametrize("key", ["eps", "deadline_s", "weight"])
    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), "x", True])
    def test_bad_numbers(self, key, bad):
        body = {"instance": _instance_dict(), key: bad}
        with pytest.raises(RequestError, match=key):
            parse_solve_request(body, "r1")

    def test_bad_mode(self):
        with pytest.raises(RequestError, match="mode"):
            parse_solve_request(
                {"instance": _instance_dict(), "mode": "fire_and_forget"},
                "r1",
            )
