"""Tests for the ``repro sim`` CLI (NumPy-free, in-process)."""

import json

import pytest

from repro.cli import main
from repro.sim.bridge import TRACE_FORMAT, load_trace


def run_sim(capsys, *extra):
    argv = ["sim", "--family", "bursty", "--arrivals", "40", "--seed", "3"]
    argv += list(extra)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimCommand:
    def test_table_output_and_manifest(self, capsys):
        code, out, _ = run_sim(capsys)
        assert code == 0
        assert "sim_bursty" in out
        assert "wrote manifest" in out

    def test_same_seed_same_stdout(self, capsys):
        _, first, _ = run_sim(capsys)
        _, second, _ = run_sim(capsys)
        assert first == second

    def test_different_seed_changes_the_digest(self, capsys):
        _, first, _ = run_sim(capsys, "--json")
        code = main(
            ["sim", "--family", "bursty", "--arrivals", "40", "--seed", "4",
             "--json"]
        )
        second = capsys.readouterr().out
        assert code == 0

        def digest(out):
            line = next(l for l in out.splitlines() if l.startswith("{"))
            return json.loads(line)["decision_digest"]

        assert digest(first) != digest(second)

    def test_json_output_is_machine_readable(self, capsys):
        code, out, _ = run_sim(capsys, "--json")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("{"))
        payload = json.loads(line)
        assert payload["params"]["family"] == "bursty"
        assert payload["offered"] == 40
        assert payload["offered"] == (
            payload["completed"] + payload["rejected"] + payload["shed"]
        )
        assert payload["decision_digest"]

    def test_emit_trace_writes_a_loadable_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_sim(capsys, "--emit-trace", str(trace))
        assert code == 0
        assert "wrote trace" in out
        header, entries = load_trace(trace)
        assert header["format"] == TRACE_FORMAT
        assert len(entries) == 40
        # The header carries everything replay needs to rebuild the sim.
        for key in (
            "family",
            "count",
            "seed",
            "cores",
            "policy",
            "capacity_units",
            "rate_units_per_s",
            "speed",
            "theta",
            "reserve",
            "deadline_check",
            "decision_digest",
        ):
            assert key in header, key

    def test_policy_flags_change_decisions(self, capsys):
        _, accept, _ = run_sim(capsys, "--json")
        code = main(
            ["sim", "--family", "bursty", "--arrivals", "40", "--seed", "3",
             "--policy", "reject_all", "--json"]
        )
        rejecting = capsys.readouterr().out
        assert code == 0
        line = next(l for l in rejecting.splitlines() if l.startswith("{"))
        assert json.loads(line)["rejected"] == 40

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--arrivals", "0"],
            ["sim", "--capacity", "0"],
            ["sim", "--rate", "-1"],
            ["sim", "--cores", "0"],
            ["sim", "--family", "nope"],
        ],
    )
    def test_bad_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            code = main(argv)
            raise SystemExit(code)
        assert exc.value.code == 2
        capsys.readouterr()


class TestReplayArguments:
    def test_replay_missing_file_fails(self, capsys, tmp_path):
        code = main(
            ["bench-serve", "--replay", str(tmp_path / "absent.jsonl")]
        )
        assert code == 2
        assert "trace" in capsys.readouterr().err.lower()

    def test_replay_rejects_foreign_trace(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(json.dumps({"format": "other"}) + "\n")
        code = main(["bench-serve", "--replay", str(bogus)])
        assert code == 2
        capsys.readouterr()

    def test_replay_requires_full_header(self, capsys, tmp_path):
        bare = tmp_path / "bare.jsonl"
        bare.write_text(
            json.dumps({"format": TRACE_FORMAT, "count": 0}) + "\n"
        )
        code = main(["bench-serve", "--replay", str(bare)])
        assert code == 2
        assert "simulation parameters" in capsys.readouterr().err

    def test_replay_refuses_an_edited_entry(self, capsys, tmp_path):
        # The header's decision digest still matches; only one arrival's
        # deadline changed.  Refused before any connection is made.
        trace = tmp_path / "trace.jsonl"
        assert run_sim(capsys, "--emit-trace", str(trace))[0] == 0
        lines = trace.read_text().splitlines()
        entry = json.loads(lines[1 + 5])
        entry["deadline_s"] = 0.001
        lines[1 + 5] = json.dumps(entry, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")
        code = main(["bench-serve", "--replay", str(trace), "--port", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "entry 5 differs" in err


class TestSimSloOutput:
    def test_table_mode_prints_grep_able_slo_lines(self, capsys):
        code, out, _ = run_sim(capsys)
        assert code == 0
        slo_lines = [l for l in out.splitlines() if l.startswith("SLO ")]
        assert len(slo_lines) == 2
        assert any(l.startswith("SLO latency_p99 ") for l in slo_lines)
        assert any(l.startswith("SLO availability ") for l in slo_lines)
        for line in slo_lines:
            assert line.endswith(("PASS", "FAIL"))

    def test_json_mode_carries_the_same_schema(self, capsys):
        from repro.obs.runtime import parse_slo_line

        code, out, _ = run_sim(capsys, "--json")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("{"))
        slo = json.loads(line)["slo"]
        assert [row["objective"] for row in slo] == [
            "latency_p99",
            "availability",
        ]
        for row in slo:
            assert set(row) >= {
                "kind", "target", "window_s", "samples", "good",
                "attainment", "burn_rate", "ok",
            }
        # the text lines and the JSON rows agree
        _, text_out, _ = run_sim(capsys)
        parsed = [
            parse_slo_line(l)
            for l in text_out.splitlines()
            if l.startswith("SLO ")
        ]
        for text_row, json_row in zip(parsed, slo):
            assert text_row["objective"] == json_row["objective"]
            assert text_row["samples"] == json_row["samples"]
            assert text_row["ok"] == json_row["ok"]


class TestSimHeteroFlags:
    def test_cores_spec_and_mk_params_reach_the_manifest(self, capsys):
        code, out, _ = run_sim(
            capsys,
            "--cores-spec", "lp:2,hp:1",
            "--policy", "mk", "--mk-m", "2", "--mk-k", "4",
            "--json",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("{"))
        payload = json.loads(line)
        assert payload["params"]["cores_spec"] == "lp:2,hp:1"
        assert payload["params"]["mk_m"] == 2
        assert payload["params"]["mk_k"] == 4

    def test_homogeneous_manifest_keeps_its_shape(self, capsys):
        # No cores_spec / mk keys unless the flags are used: archived
        # homogeneous manifests stay byte-compatible.
        code, out, _ = run_sim(capsys, "--json")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("{"))
        payload = json.loads(line)
        assert "cores_spec" not in payload["params"]
        assert "mk_m" not in payload["params"]

    def test_cores_spec_is_deterministic(self, capsys):
        _, first, _ = run_sim(capsys, "--cores-spec", "lp:1,hp:2", "--json")
        _, second, _ = run_sim(capsys, "--cores-spec", "lp:1,hp:2", "--json")
        assert first == second

    def test_bad_cores_spec_is_one_line_exit_2(self, capsys):
        code, _, err = run_sim(capsys, "--cores-spec", "xl:1")
        assert code == 2
        assert "bad --cores-spec" in err
        assert "unknown core type" in err
        assert len(err.strip().splitlines()) == 1
