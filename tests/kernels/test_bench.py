"""Tests for the ``repro bench`` throughput harness (BENCH_kernels.json)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.kernels.bench as bench
from repro.kernels import kernel_names, use_kernel
from repro.kernels.bench import SCHEMA_VERSION, run_bench

#: Keys every measured (non-skipped) cell must carry.
CELL_KEYS = {
    "solver",
    "n",
    "kernel",
    "instances",
    "wall_seconds",
    "instances_per_sec",
    "cost_total",
    "counters",
}

HEADER_KEYS = {
    "schema",
    "seed",
    "smoke",
    "kernels",
    "sizes",
    "solvers",
    "python",
    "code",
    "created",
    "results",
}


def _smoke(tmp_path, name="BENCH_kernels.json", **kw):
    kw.setdefault("solvers", ["greedy_density"])
    return run_bench(seed=0, out=tmp_path / name, smoke=True, **kw)


class TestSchema:
    def test_writes_schema_valid_file(self, tmp_path):
        path, results = _smoke(tmp_path)
        payload = json.loads(path.read_text())
        assert set(payload) == HEADER_KEYS
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["seed"] == 0
        assert payload["smoke"] is True
        assert payload["kernels"] == list(kernel_names())
        assert payload["solvers"] == ["greedy_density"]
        assert payload["results"] == results

    def test_cells_cover_every_kernel_and_size(self, tmp_path):
        path, _ = _smoke(tmp_path)
        payload = json.loads(path.read_text())
        cells = [c for c in payload["results"] if not c.get("skipped")]
        assert {(c["n"], c["kernel"]) for c in cells} == {
            (n, k) for n in payload["sizes"] for k in payload["kernels"]
        }
        for cell in cells:
            assert set(cell) >= CELL_KEYS
            assert cell["instances"] > 0
            assert cell["wall_seconds"] > 0
            assert cell["instances_per_sec"] > 0
            # The checksum is a full-precision repr, parseable as float.
            float(cell["cost_total"])
            assert cell["counters"]["greedy_density.calls"] == cell["instances"]

    def test_capped_sizes_become_explicit_skipped_cells(self, tmp_path):
        # exhaustive is capped at 16 tasks: both smoke sizes (20, 50) must
        # appear as skipped cells and the measurement re-points at n=16.
        path, _ = _smoke(tmp_path, solvers=["exhaustive"])
        payload = json.loads(path.read_text())
        for kernel in payload["kernels"]:
            mine = [c for c in payload["results"] if c["kernel"] == kernel]
            skipped = [c for c in mine if c.get("skipped")]
            assert [(c["n"], c["capped_to"]) for c in skipped] == [
                (20, 16),
                (50, 16),
            ]
            assert all(c["reason"] for c in skipped)
            measured = [c for c in mine if not c.get("skipped")]
            assert [c["n"] for c in measured] == [16]  # measured once only

    def test_fptas_cells_record_eps(self, tmp_path):
        path, _ = _smoke(tmp_path, solvers=["fptas"])
        payload = json.loads(path.read_text())
        for cell in payload["results"]:
            if not cell.get("skipped"):
                assert cell["eps"] == bench._fptas_eps(cell["n"])

    def test_eps_trajectory_has_a_floor(self):
        assert bench._fptas_eps(10) == 0.05
        assert bench._fptas_eps(10_000) == 5.0


class TestDeterminism:
    def test_same_seed_same_instances_and_checksums(self, tmp_path):
        path_a, _ = _smoke(tmp_path, name="a.json")
        path_b, _ = _smoke(tmp_path, name="b.json")
        a = json.loads(path_a.read_text())["results"]
        b = json.loads(path_b.read_text())["results"]
        strip = lambda cells: [
            {
                k: v
                for k, v in c.items()
                if k not in ("wall_seconds", "instances_per_sec")
            }
            for c in cells
        ]
        # Everything but the timings — instance counts, solver counters,
        # and the bit-exact cost checksums — is identical run to run.
        assert strip(a) == strip(b)

    def test_different_seed_changes_checksums(self, tmp_path):
        path_a, _ = _smoke(tmp_path, name="a.json")
        path_b, results_b = run_bench(
            seed=1, out=tmp_path / "b.json", smoke=True,
            solvers=["greedy_density"],
        )
        a = json.loads(path_a.read_text())["results"]
        checks = lambda cells: [
            c["cost_total"] for c in cells if not c.get("skipped")
        ]
        assert checks(a) != checks(results_b)

    @pytest.mark.skipif(
        len(kernel_names()) < 2, reason="needs the numpy kernel to compare"
    )
    def test_kernels_agree_on_cost_checksums(self, tmp_path):
        # The differential contract holds on the bench's own instance
        # stream: per (solver, n), every kernel sums to the same bits.
        path, _ = _smoke(tmp_path, solvers=["greedy_density", "fptas"])
        cells = [
            c
            for c in json.loads(path.read_text())["results"]
            if not c.get("skipped")
        ]
        by_cell: dict = {}
        for c in cells:
            by_cell.setdefault((c["solver"], c["n"]), set()).add(c["cost_total"])
        assert all(len(v) == 1 for v in by_cell.values()), by_cell


#: The committed baseline ``repro bench --seed 0`` wrote.
COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize(
    "solver, n",
    [
        ("greedy_marginal", 100),
        ("dp_cycles", 100),
        ("dp_penalty", 100),
        ("fptas", 100),
        ("branch_and_bound", 20),  # the n=100 request is capped to 20
    ],
)
def test_costs_match_the_committed_baseline(solver, n, kernel):
    # The kernels could drift together and still agree with each other;
    # the committed file pins the absolute bits.
    committed = {
        (c["solver"], c["n"], c["kernel"]): c["cost_total"]
        for c in json.loads(COMMITTED.read_text())["results"]
        if not c.get("skipped")
    }
    with use_kernel(kernel):
        cell = bench._bench_cell(solver, n, seed=0, smoke=False)
    assert cell["cost_total"] == committed[(solver, n, kernel)]


class TestAtomicWrite:
    def test_no_tmp_file_left_behind(self, tmp_path):
        path, _ = _smoke(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_injected_failure_preserves_prior_file(self, tmp_path, monkeypatch):
        path, _ = _smoke(tmp_path)
        before = path.read_text()

        def _fail(self, text):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", _fail)
        with pytest.raises(OSError):
            run_bench(
                seed=1, out=path, smoke=True, solvers=["greedy_density"]
            )
        monkeypatch.undo()
        # The prior report survives byte-for-byte: the failure hit the
        # temp file, never the destination.
        assert path.read_text() == before

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "bench.json"
        path, _ = run_bench(
            seed=0, out=target, smoke=True, solvers=["greedy_density"]
        )
        assert path == target
        assert json.loads(target.read_text())["schema"] == SCHEMA_VERSION
