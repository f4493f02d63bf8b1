"""Tests for the CLI entry point."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out] == list(ALL_EXPERIMENTS)
        assert len(out) == 19  # Fig R1-R13 + Fig H1-H2 + Tab R1-R4

    def test_list_shows_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # every experiment line carries the module docstring's first line
        assert "average normalized cost vs number of tasks" in out
        assert "runtime scaling" in out

    def test_run_one_quick(self, capsys):
        assert main(["run", "fig_r1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig_r1" in out
        assert "greedy_marginal" in out

    def test_run_unknown_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_csv(self, capsys, tmp_path):
        assert main(["run", "tab_r3", "--quick", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "tab_r3.csv").exists()
        rendered = (tmp_path / "tab_r3.txt").read_text()
        assert rendered.startswith("== tab_r3") and rendered in capsys.readouterr().out

    def test_generate_and_solve_roundtrip(self, capsys, tmp_path):
        instance = tmp_path / "inst.json"
        assert main(["generate", str(instance), "--n", "8", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["solve", str(instance), "--algorithm", "pareto_exact"]) == 0
        exact = capsys.readouterr().out
        assert "pareto_exact: cost=" in exact
        out_json = tmp_path / "sol.json"
        assert (
            main(
                [
                    "solve",
                    str(instance),
                    "--algorithm",
                    "fptas",
                    "--eps",
                    "0.05",
                    "-o",
                    str(out_json),
                ]
            )
            == 0
        )
        assert out_json.exists()

    def test_seed_override_changes_rows(self, capsys):
        main(["run", "fig_r1", "--quick", "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", "fig_r1", "--quick", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestRunnerFlags:
    def test_jobs_zero_rejected(self, capsys):
        assert main(["run", "fig_r1", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["run", "fig_r1", "--quick", "--jobs", "-3"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_one_uses_no_pool(self, capsys, monkeypatch):
        # The jobs=1 path must never touch a process pool.
        import repro.runner.pool as pool

        def _boom(jobs):
            raise AssertionError("jobs=1 must bypass the pool")

        monkeypatch.setattr(pool, "get_executor", _boom)
        assert main(["run", "fig_r1", "--quick", "--jobs", "1"]) == 0
        assert "fig_r1" in capsys.readouterr().out

    def test_parallel_output_matches_serial(self, capsys):
        assert main(["run", "fig_r1", "--quick", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["run", "fig_r1", "--quick", "--no-cache", "--jobs", "2"])
            == 0
        )
        parallel = capsys.readouterr().out
        strip = lambda text: [
            line
            for line in text.splitlines()
            # runner notes and the summary line carry wall time / jobs
            if not line.startswith("# runner:") and "wall=" not in line
        ]
        assert strip(serial) == strip(parallel)

    def test_timings_report_printed(self, capsys):
        assert main(["run", "fig_r1", "--quick", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "-- timings: fig_r1 --" in out
        assert "trials executed" in out

    def test_cache_hit_on_second_run(self, capsys):
        assert main(["run", "fig_r1", "--quick"]) == 0
        first = capsys.readouterr().out
        assert "cache=miss" in first
        assert main(["run", "fig_r1", "--quick"]) == 0
        second = capsys.readouterr().out
        assert "cache=hit" in second

    def test_no_cache_bypasses(self, capsys):
        assert main(["run", "fig_r1", "--quick"]) == 0
        capsys.readouterr()
        assert main(["run", "fig_r1", "--quick", "--no-cache"]) == 0
        assert "cache=off" in capsys.readouterr().out


class TestSolveErrors:
    def test_eps_zero_rejected(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "x.json"), "--eps", "0"]) == 2
        assert "--eps must be > 0" in capsys.readouterr().err

    def test_eps_negative_rejected(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "x.json"), "--eps", "-0.5"]) == 2
        assert "--eps must be > 0" in capsys.readouterr().err

    def test_eps_nan_rejected(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "x.json"), "--eps", "nan"]) == 2
        assert "--eps must be > 0" in capsys.readouterr().err

    def test_missing_instance_file(self, capsys, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "no such instance file" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot read instance" in err

    def test_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text('{"schema_version": 999, "tasks": []}')
        assert main(["solve", str(bad)]) == 2
        assert "cannot read instance" in capsys.readouterr().err


class TestTopLevel:
    def test_version_prints_and_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("repro ")
        assert len(out.split()) == 2  # "repro <version>"

    def test_unknown_subcommand_one_line_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1  # one line, no usage dump
        assert err.startswith("repro: ")

    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1

    def test_bad_flag_value_one_line_exit_2(self, capsys):
        assert main(["run", "fig_r1", "--jobs", "many"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("repro run: ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out


class TestBrokenPipe:
    def test_reader_gone_exits_1_without_a_traceback(self):
        # `repro list | head -1`, with the reader gone before any write.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestServePortInUse:
    @pytest.mark.parametrize("shards", [[], ["--shards", "2"]])
    def test_one_line_refusal(self, capsys, tmp_path, shards):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            code = main(
                [
                    "serve",
                    "--port", str(port),
                    "--workers", "1",
                    "--rate", "1e9",
                    "--capacity", "1e9",
                    "--cache-dir", str(tmp_path / "cache"),
                    *shards,
                ]
            )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"cannot listen on 127.0.0.1:{port}: ")
        assert "address already in use" in err[0]


class TestServeArgs:
    def test_workers_zero_rejected(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_theta_zero_rejected(self, capsys):
        assert main(["serve", "--policy", "threshold", "--theta", "0"]) == 2
        assert "--theta" in capsys.readouterr().err

    def test_capacity_zero_rejected(self, capsys):
        assert main(["serve", "--capacity", "0"]) == 2
        assert "--capacity" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, capsys):
        assert main(["serve", "--policy", "magic"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1


class TestBenchServeArgs:
    def test_requests_zero_rejected(self, capsys):
        assert main(["bench-serve", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_passes_zero_rejected(self, capsys):
        assert main(["bench-serve", "--passes", "0"]) == 2
        assert "--passes" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, capsys):
        assert main(["bench-serve", "--algorithm", "quantum"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unreachable_server_fails(self, capsys):
        # Port 1 on localhost: connection refused; every request counts
        # as a transport error and the command reports failure.
        assert main(
            ["bench-serve", "--port", "1", "--requests", "1", "--passes", "1"]
        ) == 1
        assert "transport_errors=1" in capsys.readouterr().out


class TestVerifyCommand:
    def test_small_clean_run(self, capsys, tmp_path):
        code = main(
            ["verify", "--budget", "10", "--seed", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10 trials" in out
        assert "0 failing" in out
        assert list(tmp_path.iterdir()) == []

    def test_quick_caps_budget(self, capsys, tmp_path):
        code = main(
            ["verify", "--quick", "--budget", "5000", "--seed", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "40 trials" in capsys.readouterr().out

    def test_budget_zero_rejected(self, capsys):
        assert main(["verify", "--budget", "0"]) == 2
        assert "--budget must be" in capsys.readouterr().err


class TestKernelSelection:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        """Make kernel resolution behave as if NumPy were missing."""
        import repro.kernels as kernels

        def _blocked():
            raise ImportError("numpy disabled for this test")

        monkeypatch.setattr(kernels, "_import_numpy", _blocked)
        monkeypatch.setattr(kernels, "_INSTANCES", {})
        monkeypatch.setattr(kernels, "_OVERRIDE", None)
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        return kernels

    def test_env_numpy_missing_is_hard_error(self, capsys, monkeypatch, no_numpy):
        # Never a silent python fallback: exit 2, one line on stderr.
        monkeypatch.setenv(no_numpy.ENV_VAR, "numpy")
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("repro: ")
        assert "numpy is not importable" in err

    def test_kernel_flag_numpy_missing_is_hard_error(
        self, capsys, monkeypatch, no_numpy
    ):
        monkeypatch.setenv(no_numpy.ENV_VAR, "auto")  # restored on undo
        assert main(["--kernel", "numpy", "list"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "numpy is not importable" in err

    def test_kernel_flag_python_always_works(self, capsys, monkeypatch, no_numpy):
        monkeypatch.setenv(no_numpy.ENV_VAR, "auto")
        assert main(["--kernel", "python", "list"]) == 0
        assert capsys.readouterr().out  # normal listing, no kernel noise

    def test_kernel_flag_rejects_unknown_name(self, capsys, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        assert main(["--kernel", "sse9000", "list"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_env_unknown_kernel_rejected(self, capsys, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setenv(kernels.ENV_VAR, "quantum")
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "unknown kernel" in err

    def test_solve_explain_names_the_kernel(self, capsys, tmp_path, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        instance = tmp_path / "inst.json"
        assert main(["generate", str(instance), "--n", "6", "--seed", "3"]) == 0
        capsys.readouterr()
        assert (
            main(
                ["--kernel", "python", "solve", str(instance), "--explain"]
            )
            == 0
        )
        assert "kernel: python" in capsys.readouterr().out


class TestBenchCommand:
    def test_smoke_writes_file(self, capsys, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        assert (
            main(
                ["bench", "--smoke", "--seed", "0", "--out", str(out),
                 "--solver", "greedy_density"]
            )
            == 0
        )
        assert out.exists()
        assert f"wrote {out}" in capsys.readouterr().out

    def test_unknown_solver_rejected(self, capsys, tmp_path):
        assert (
            main(
                ["bench", "--smoke", "--out", str(tmp_path / "b.json"),
                 "--solver", "quantum_annealer"]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown bench solver" in err
        assert not list(tmp_path.iterdir())  # nothing written

    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not a directory")
        out = target / "bench.json"
        assert (
            main(
                ["bench", "--smoke", "--out", str(out),
                 "--solver", "greedy_density"]
            )
            == 2
        )
        assert "cannot write" in capsys.readouterr().err


class TestVerifyKernelMatrix:
    def test_quick_runs_once_per_available_kernel(self, capsys, tmp_path):
        from repro.kernels import kernel_names

        code = main(
            ["verify", "--quick", "--budget", "40", "--seed", "0",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in kernel_names():
            assert f"[kernel={name}]" in out


class TestStatsErrors:
    def test_missing_file_is_one_line_exit_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err

    def test_corrupt_json_is_one_line_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "x", truncated')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot digest" in err
        assert "Traceback" not in err

    def test_manifest_missing_keys_is_one_line_exit_2(self, capsys, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text('{"experiment": "x"}')  # no trials/params/...
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot digest" in err
        assert "Traceback" not in err

    def test_wrong_shaped_records_are_one_line_exit_2(self, capsys, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('[1, 2, 3]\n"just a string"\n')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot digest" in err
        assert "Traceback" not in err


class TestTopCommand:
    def test_unreachable_server_is_one_line_exit_2(self, capsys):
        assert main(["top", "--host", "127.0.0.1", "--port", "1",
                     "--once"]) == 2
        err = capsys.readouterr().err
        assert "cannot scrape" in err
        assert "Traceback" not in err

    def test_bad_interval_exits_2(self, capsys):
        assert main(["top", "--interval", "0", "--once"]) == 2
        assert "--interval" in capsys.readouterr().err


class TestServeFlagValidation:
    def test_bad_sample_interval_exits_2(self, capsys):
        assert main(["serve", "--sample-interval", "0"]) == 2
        assert "--sample-interval" in capsys.readouterr().err

    def test_bad_slo_target_exits_2(self, capsys):
        assert main(["serve", "--slo-latency-target", "1.5"]) == 2
        assert "bad SLO configuration" in capsys.readouterr().err

    def test_bad_slo_threshold_exits_2(self, capsys):
        assert main(["serve", "--slo-latency-ms", "0"]) == 2
        assert "bad SLO configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_cache_dir_that_is_a_file_is_one_line_exit_2(
        self, capsys, tmp_path, shards
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        argv = ["serve", "--shards", shards, "--cache-dir", str(blocker)]
        assert main(argv + ["--port", "0"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "--cache-dir" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "a regular file"


class TestPolicyChoicesSync:
    def test_cli_mirror_matches_the_online_registry(self):
        # serve and sim both offer exactly the spellings
        # policy_from_spec resolves.
        import argparse

        from repro import cli
        from repro.core.rejection import online

        (commands,) = [
            action
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for command in ("serve", "sim"):
            (policy,) = [
                action
                for action in commands.choices[command]._actions
                if "--policy" in action.option_strings
            ]
            assert tuple(policy.choices) == online.POLICY_CHOICES


class TestHeteroSolve:
    @pytest.fixture
    def instance(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        assert main(["generate", str(path), "--n", "5", "--seed", "3"]) == 0
        capsys.readouterr()
        return path

    def test_platform_flag_selects_the_typed_default(self, capsys, instance):
        code = main(["solve", str(instance), "--platform", "lp:2,hp:1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "typed_ltf on lp:2,hp:1: cost=" in out

    @pytest.mark.parametrize(
        "algorithm", ["typed_ltf", "typed_global", "exhaustive_hetero"]
    )
    def test_each_typed_algorithm_runs(self, capsys, instance, algorithm):
        code = main(
            ["solve", str(instance), "--platform", "lp:1,hp:1",
             "--algorithm", algorithm]
        )
        assert code == 0
        assert f"{algorithm} on lp:1,hp:1: cost=" in capsys.readouterr().out

    def test_bad_platform_spec_is_one_line_exit_2(self, capsys, instance):
        code = main(["solve", str(instance), "--platform", "xl:2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --platform spec" in err
        assert len(err.strip().splitlines()) == 1

    def test_typed_algorithm_without_platform_exit_2(self, capsys, instance):
        code = main(
            ["solve", str(instance), "--algorithm", "typed_ltf"]
        )
        assert code == 2
        assert "needs a platform" in capsys.readouterr().err

    def test_uniproc_algorithm_with_platform_exit_2(self, capsys, instance):
        code = main(
            ["solve", str(instance), "--platform", "lp:1,hp:1",
             "--algorithm", "fptas"]
        )
        assert code == 2
        assert "heterogeneous-platform instance" in capsys.readouterr().err


class TestMkPolicyArgs:
    def test_serve_rejects_m_above_k(self, capsys):
        assert main(
            ["serve", "--policy", "mk", "--mk-m", "3", "--mk-k", "2"]
        ) == 2
        assert "--mk-m/--mk-k" in capsys.readouterr().err

    def test_serve_rejects_zero_m(self, capsys):
        assert main(
            ["serve", "--policy", "mk", "--mk-m", "0", "--mk-k", "2"]
        ) == 2
        assert "--mk-m/--mk-k" in capsys.readouterr().err

    def test_sim_rejects_bad_window(self, capsys):
        assert main(
            ["sim", "--arrivals", "5", "--policy", "mk",
             "--mk-m", "4", "--mk-k", "2"]
        ) == 2
        assert "--mk-m/--mk-k" in capsys.readouterr().err


#: (argv, flag): every flag whose bound is declared on the flag, with a
#: value outside it.
OUT_OF_BOUNDS = [
    (["run", "fig_r1", "--jobs", "0"], "--jobs"),
    (["generate", "out.json", "--n", "0"], "--n"),
    (["generate", "out.json", "--load", "-1"], "--load"),
    (["generate", "out.json", "--seed", "-1"], "--seed"),
    (["generate", "out.json", "--penalty-scale", "0"], "--penalty-scale"),
    (["solve", "x.json", "--eps", "nan"], "--eps"),
    (["verify", "--budget", "0"], "--budget"),
    (["verify", "--seed", "-1"], "--seed"),
    (["serve", "--workers", "0"], "--workers"),
    (["serve", "--theta", "0"], "--theta"),
    (["serve", "--capacity", "0"], "--capacity"),
    (["serve", "--rate", "-5"], "--rate"),
    (["serve", "--window", "0"], "--window"),
    (["serve", "--cache-entries", "0"], "--cache-entries"),
    (["serve", "--shards", "0"], "--shards"),
    (["serve", "--budget", "-3"], "--budget"),
    (
        ["serve", "--cache-max-bytes", "0", "--cache-dir", "D"],
        "--cache-max-bytes",
    ),
    (["serve", "--sample-interval", "0"], "--sample-interval"),
    (["serve", "--port", "-1"], "--port"),
    (["serve", "--port", "65536"], "--port"),
    (["top", "--interval", "0"], "--interval"),
    (["top", "--port", "0"], "--port"),
    (["top", "--port", "65536"], "--port"),
    (["bench-serve", "--port", "-1"], "--port"),
    (["stats", "x.json", "--top", "-1"], "--top"),
    (["sim", "--arrivals", "0"], "--arrivals"),
    (["sim", "--theta", "-1"], "--theta"),
    (["sim", "--cores", "0"], "--cores"),
    (["sim", "--capacity", "0"], "--capacity"),
    (["sim", "--rate", "-1"], "--rate"),
    (["sim", "--speed", "0"], "--speed"),
    (["sim", "--speed", "2"], "--speed"),
    (["sim", "--cs-time", "-1"], "--cs-time"),
    (["sim", "--cs-energy", "-1"], "--cs-energy"),
    (["bench-serve", "--requests", "0"], "--requests"),
    (["bench-serve", "--seed", "-1"], "--seed"),
    (["bench-serve", "--passes", "0"], "--passes"),
    (["bench-serve", "--concurrency", "0"], "--concurrency"),
    (["bench-serve", "--mode", "open", "--rate", "0"], "--rate"),
    (["bench-serve", "--eps", "0"], "--eps"),
    (["bench-serve", "--speedup", "0"], "--speedup"),
    (["bench-serve", "--shards", "1,0"], "--shards"),
    (["bench-serve", "--factors", "0.5,0"], "--factors"),
    (["bench-serve", "--duration", "0"], "--duration"),
    (["bench-serve", "--workers", "0"], "--workers"),
    (["bench-serve", "--window", "0"], "--window"),
]


class TestFlagBounds:
    @pytest.mark.parametrize(
        "argv,flag", OUT_OF_BOUNDS, ids=[" ".join(a) for a, _ in OUT_OF_BOUNDS]
    )
    def test_out_of_bounds_is_one_line_exit_2(
        self, capsys, tmp_path, monkeypatch, argv, flag
    ):
        import repro.runner.pool as pool

        monkeypatch.chdir(tmp_path)
        executors = dict(pool._EXECUTORS)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert flag in err
        assert "Traceback" not in err
        # Refused while parsing: no pool, no file, no directory.
        assert pool._EXECUTORS == executors
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--cs-time", "0", "--cs-energy", "0"],
            ["run", "fig_r1", "--jobs", "1"],
            ["serve", "--cache-entries", "1"],
            ["serve", "--window", "1e-9"],
            ["serve", "--port", "0"],
            ["serve", "--port", "65535"],
            ["top", "--port", "1"],
            ["bench-serve", "--port", "65535"],
            ["stats", "x.json", "--top", "0"],
            ["sim", "--speed", "1"],
            ["bench-serve", "--seed", "0", "--shards", "1,2"],
        ],
    )
    def test_boundary_values_still_parse(self, argv):
        from repro.cli import _build_parser

        _build_parser().parse_args(argv)
