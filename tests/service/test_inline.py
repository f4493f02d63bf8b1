"""The inline venue: cheap sync solves run on the server's event loop.

An admitted sync request of a heuristic solver priced at most
``INLINE_UNITS`` skips the dispatch queue and the process pool.  These
tests pin that rule and check that the venue changes nothing a client
or the bookkeeping can see: the same solutions, the same typed errors,
leases returned, and the ``service.solve.total`` partition intact.
"""

import json

import pytest

from repro.core import rejection
from repro.core.rejection import RejectionProblem
from repro.energy import ContinuousEnergyFunction
from repro.io import instance_to_dict
from repro.power import xscale_power_model
from repro.service import LocalFleet, SolveService
from repro.service import models
from repro.service import worker as worker_mod
from repro.service.loadgen import http_json, make_bodies
from repro.service.models import (
    EXACT_SOLVERS,
    INLINE_UNITS,
    MULTIPROC_SOLVERS,
    parse_solve_request,
)
from repro.service.shard import GlobalBudget
from repro.tasks.model import FrameTask, FrameTaskSet

from tests.io.test_multiproc_roundtrip import _multiproc_problem
from tests.service.conftest import BIG, run

PARTS = ("cached", "admitted", "rejected", "invalid", "unavailable")

#: Parses, but the worker cannot build the energy function: a 400.
BAD_INSTANCE_BODY = {
    "instance": {
        "schema_version": 1,
        "tasks": [{"name": "t0", "cycles": 0.5, "penalty": 1.0}],
        "energy_fn": {
            "kind": "warp",
            "deadline": 1.0,
            "power_model": {
                "kind": "polynomial",
                "beta0": 0.0,
                "beta1": 1.52,
                "alpha": 3.0,
                "s_max": 1.0,
            },
        },
    },
    "algorithm": "greedy_marginal",
}


def _tied_density_body(n: int, algorithm: str) -> dict:
    """Every task has penalty = 2 x cycles: the flat-bound B&B family."""
    tasks = FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=0.05 + 0.01 * i, penalty=0.1 + 0.02 * i)
        for i in range(n)
    )
    energy_fn = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    problem = RejectionProblem(tasks=tasks, energy_fn=energy_fn)
    return {"instance": instance_to_dict(problem), "algorithm": algorithm}


async def _start(**kwargs) -> tuple[SolveService, str, int]:
    settings = dict(workers=1, rate_units_per_s=1e9, capacity_units=BIG)
    settings.update(kwargs)
    svc = SolveService(**settings)
    host, port = await svc.start()
    return svc, host, port


async def _counters(host: str, port: int) -> dict:
    status, metrics = await http_json(host, port, "GET", "/metrics?format=json")
    assert status == 200, metrics
    return metrics["counters"]


def _assert_partition(counters: dict) -> None:
    total = counters["service.solve.total"]
    assert total == sum(counters.get(f"service.solve.{p}", 0) for p in PARTS)


async def _solve_all(host: str, port: int, bodies: list[dict]) -> list:
    replies = []
    for request in bodies:
        status, payload = await http_json(host, port, "POST", "/solve", request)
        assert status == 200, payload
        assert payload["cache"] == "miss"
        replies.append(payload["solution"])
    return replies


class TestEligibility:
    @staticmethod
    def _request(n: int = 4, algorithm: str = "greedy_marginal", **body):
        instance = make_bodies(0, 1, n_min=n, n_max=n)[0]["instance"]
        return parse_solve_request(
            dict(body, instance=instance, algorithm=algorithm), "r1"
        )

    def test_greedy_marginal_inlines_up_to_the_bound(self):
        assert INLINE_UNITS == 256.0
        at_bound = self._request(16)
        assert at_bound.cost_units == INLINE_UNITS
        assert at_bound.inline
        above = self._request(17)
        assert above.cost_units > INLINE_UNITS
        assert not above.inline

    def test_async_requests_never_inline(self):
        assert not self._request(1, mode="async").inline
        assert self._request(1, mode="sync").inline

    @pytest.mark.parametrize("algorithm", sorted(EXACT_SOLVERS))
    def test_exact_solvers_never_inline(self, algorithm):
        if algorithm in MULTIPROC_SOLVERS:
            instance = instance_to_dict(_multiproc_problem(m=2))
            instance["tasks"] = instance["tasks"][:1]  # 3 units
            request = parse_solve_request(
                {"instance": instance, "algorithm": algorithm}, "r1"
            )
        else:
            request = self._request(1, algorithm=algorithm)
        assert request.cost_units <= INLINE_UNITS
        assert not request.inline

    def test_tied_density_branch_and_bound_goes_to_the_pool(self):
        # Priced ~204 units, which is under the bound; measured far
        # slower than that price, so the exact-solver rule keeps it off
        # the event loop.
        body = _tied_density_body(9, "branch_and_bound")
        assert parse_solve_request(body, "r1").cost_units < INLINE_UNITS

        async def go():
            svc, host, port = await _start()
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", body
                )
                assert status == 200, payload
                counters = await _counters(host, port)
                assert counters.get("service.solve.inline", 0) == 0
                assert counters["service.batch.requests"] == 1
            finally:
                await svc.stop()

        run(go())


class TestVenueParity:
    def test_inline_and_pool_give_byte_identical_solutions(self, monkeypatch):
        bodies = make_bodies(5, 200)

        async def go() -> tuple[list, dict]:
            svc, host, port = await _start()
            try:
                replies = await _solve_all(host, port, bodies)
                return replies, await _counters(host, port)
            finally:
                await svc.stop()

        inline, counters = run(go())
        assert counters["service.solve.inline"] == 200
        assert counters.get("service.batch.requests", 0) == 0
        _assert_partition(counters)

        monkeypatch.setattr(models, "INLINE_UNITS", 0.0)
        pooled, counters = run(go())
        assert counters.get("service.solve.inline", 0) == 0
        assert counters["service.batch.requests"] == 200
        assert [json.dumps(s, sort_keys=True) for s in inline] == [
            json.dumps(s, sort_keys=True) for s in pooled
        ]

    def test_invalid_instance_gets_the_same_400_in_both_venues(
        self, monkeypatch
    ):
        async def go() -> tuple[int, dict, dict]:
            svc, host, port = await _start()
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", BAD_INSTANCE_BODY
                )
                return status, payload, await _counters(host, port)
            finally:
                await svc.stop()

        status, inline, counters = run(go())
        assert status == 400
        assert "warp" in inline["error"]
        assert counters["service.solve.inline"] == 1
        assert counters["service.solve.failed"] == 1
        _assert_partition(counters)

        monkeypatch.setattr(models, "INLINE_UNITS", 0.0)
        status, pooled, counters = run(go())
        assert status == 400
        assert counters.get("service.solve.inline", 0) == 0
        assert inline["error"] == pooled["error"]

    def test_solver_exception_is_a_500_and_counts_failed(self, monkeypatch):
        def broken(problem):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(rejection, "greedy_marginal", broken)

        async def go():
            svc, host, port = await _start()
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", make_bodies(0, 1)[0]
                )
                assert status == 500
                assert payload["status"] == "error"
                assert "solver blew up" in payload["error"]
                counters = await _counters(host, port)
                assert counters["service.solve.inline"] == 1
                assert counters["service.solve.failed"] == 1
                _assert_partition(counters)
                # A failure is not cached: the next identical request
                # solves again.
                assert svc._cache.stats()["entries"] == 0
            finally:
                await svc.stop()

        run(go())


class TestBookkeeping:
    def test_lease_is_held_for_the_solve_and_returned(self, monkeypatch):
        seen = []
        solve_payload = worker_mod.solve_payload

        async def go():
            svc, host, port = await _start()

            def spy(payload):
                seen.append(svc._controller.inflight_units)
                return solve_payload(payload)

            monkeypatch.setattr(worker_mod, "solve_payload", spy)
            try:
                bodies = make_bodies(2, 5)
                await _solve_all(host, port, bodies)
                assert svc._controller.inflight_units == 0.0
                status, health = await http_json(host, port, "GET", "/healthz")
                assert health["inflight_units"] == 0.0
                counters = await _counters(host, port)
                assert counters["service.solve.inline"] == 5
                _assert_partition(counters)
                return [parse_solve_request(b, "r").cost_units for b in bodies]
            finally:
                await svc.stop()

        costs = run(go())
        assert seen == costs  # each solve ran under its own lease only

    def test_fleet_budget_is_returned_after_inline_solves(self):
        async def go():
            budget = GlobalBudget(BIG)
            fleet = LocalFleet(
                shards=2,
                workers=1,
                rate_units_per_s=1e9,
                capacity_units=BIG,
                budget=budget,
            )
            await fleet.start()
            try:
                await _solve_all(fleet.host, fleet.port, make_bodies(3, 6))
                assert budget.leased_units == 0.0
                inline = sum(
                    svc._registry.snapshot().get("service.solve.inline", 0)
                    for svc in fleet.services
                )
                assert inline == 6
                for svc in fleet.services:
                    assert svc._controller.inflight_units == 0.0
            finally:
                await fleet.stop()

        run(go())

    def test_partition_holds_over_a_mixed_stream(self):
        async def go():
            # 100 units of capacity: n<=10 greedy (<=100 units) fits,
            # n=12 (144) is a deterministic 429.
            svc, host, port = await _start(capacity_units=100.0)
            try:
                small = make_bodies(4, 1, n_min=8, n_max=8)[0]
                big = make_bodies(4, 1, n_min=12, n_max=12)[0]
                statuses = []
                for request in (
                    small,
                    small,
                    big,
                    {"instance": {}},
                    BAD_INSTANCE_BODY,
                ):
                    status, _ = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    statuses.append(status)
                assert statuses == [200, 200, 429, 400, 400]
                counters = await _counters(host, port)
                assert counters["service.solve.total"] == 5
                assert counters["service.solve.cached"] == 1
                assert counters["service.solve.inline"] == 2
                _assert_partition(counters)
            finally:
                await svc.stop()

        run(go())
