"""Command-line entry point: ``python -m repro`` / ``repro``.

Usage::

    repro list                     # enumerate experiments (with blurbs)
    repro run fig_r1               # run one experiment at paper scale
    repro run all --quick          # smoke-run every experiment
    repro run fig_r2 --csv out/    # also write the table as CSV
    repro run fig_r1 --jobs 4      # fan trials out over 4 workers
    repro run all --no-cache       # force recomputation
    repro run tab_r4 --timings     # print the per-run timing report
    repro run fig_r1 --trace-out trace.jsonl   # record solver spans
    repro run all --quick --log-json           # machine-readable summaries

    repro generate inst.json --n 12 --load 1.5 --seed 7   # random instance
    repro solve inst.json --algorithm fptas --eps 0.05    # solve it
    repro solve inst.json --algorithm pareto_exact -o sol.json
    repro solve inst.json --algorithm fptas --explain     # + solver counters

    repro verify --budget 200 --seed 0       # differential solver fuzzing
    repro verify --quick --seed 0            # CI smoke (small budget)
    repro verify --out-dir failures/         # write failing reproducers

    repro stats trace.jsonl                  # digest a span trace
    repro stats results/manifests/fig_r1-0123456789ab.json

    repro serve --port 8722 --workers 2          # the solve server
    repro serve --policy threshold --theta 1.0   # admission control (429s)
    repro bench-serve --requests 200 --seed 0    # seeded load generator

    repro sim --family bursty --arrivals 500 --seed 0    # arrival simulator
    repro sim --family heavy --policy threshold --cores 4 --cs-time 1e-4
    repro sim --emit-trace trace.jsonl           # replayable arrival trace
    repro bench-serve --replay trace.jsonl       # fire it at a live server

    repro --version
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from repro.kernels import (
    ENV_VAR as KERNEL_ENV_VAR,
    KERNEL_CHOICES,
    KernelUnavailableError,
    get_kernel,
    kernel_names,
    use_kernel,
)

try:
    from repro.experiments import ALL_EXPERIMENTS, experiment_description
except ImportError:  # pragma: no cover - minimal environment without numpy
    # The experiment registry needs NumPy; the rest of the CLI (solve,
    # verify, bench, serve, ...) stays available without it.
    ALL_EXPERIMENTS: dict = {}

    def experiment_description(name: str) -> str:
        return ""

#: Algorithms reachable from ``repro solve``; fptas additionally honours
#: ``--eps``.
SOLVERS = {
    "exhaustive": "exhaustive",
    "branch_and_bound": "branch_and_bound",
    "pareto_exact": "pareto_exact",
    "fptas": "fptas",
    "greedy_marginal": "greedy_marginal",
    "greedy_density": "greedy_density",
    "lp_rounding": "lp_rounding",
    "accept_all_repair": "accept_all_repair",
}

#: Heterogeneous-platform algorithms reachable from ``repro solve``
#: (the instance must carry a platform, or one is given via --platform).
HETERO_SOLVERS = ("exhaustive_hetero", "typed_global", "typed_ltf")

#: ``--policy`` spellings shared by ``repro serve`` and ``repro sim``.
#: Mirrors :data:`repro.core.rejection.online.POLICY_CHOICES` without
#: importing the solver stack at parser-build time (kept in sync by
#: ``tests/test_cli.py``).
_POLICY_CHOICES = ("accept", "threshold", "reject_all", "mk")


class _Parser(argparse.ArgumentParser):
    """Argparse with PR-2-style one-line errors on stderr + exit 2."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.exit(2, f"{self.prog}: {message}\n")


def _version_string() -> str:
    """The installed distribution version, else the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Reproduction harness for 'Energy-efficient real-time task "
            "scheduling with task rejection' (DATE 2007)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {_version_string()}",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="array-kernel backend for the solvers "
        "(default: $REPRO_KERNEL, else auto = numpy when available)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"one of {', '.join(ALL_EXPERIMENTS)} or 'all'",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced trial counts for a fast smoke run",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    run.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each table as DIR/<name>.csv",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial fan-out (1 = serial, no pool)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (results/.cache)",
    )
    run.add_argument(
        "--timings",
        action="store_true",
        help="print the per-experiment timing/cache report",
    )
    run.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append span records (JSONL) for the run to FILE",
    )
    run.add_argument(
        "--log-json",
        action="store_true",
        help="print the per-run summary as one JSON line instead of text",
    )

    generate = sub.add_parser(
        "generate", help="write a random rejection instance as JSON"
    )
    generate.add_argument("output", type=Path, help="destination .json path")
    generate.add_argument("--n", type=int, default=12, help="number of tasks")
    generate.add_argument(
        "--load", type=float, default=1.5, help="system load Σc/(s_max·D)"
    )
    generate.add_argument("--seed", type=int, default=0, help="RNG seed")
    generate.add_argument(
        "--penalty-model",
        default="energy",
        choices=("uniform", "proportional", "inverse", "energy"),
    )
    generate.add_argument(
        "--penalty-scale", type=float, default=2.0, help="penalty multiplier"
    )

    solve = sub.add_parser("solve", help="solve a JSON instance")
    solve.add_argument("instance", type=Path, help="instance .json path")
    solve.add_argument(
        "--algorithm",
        default=None,
        choices=sorted([*SOLVERS, *HETERO_SOLVERS]),
        help="which algorithm to run (default: fptas, or typed_ltf on a "
        "heterogeneous-platform instance)",
    )
    solve.add_argument(
        "--eps", type=float, default=0.1, help="FPTAS accuracy parameter"
    )
    solve.add_argument(
        "--platform",
        default=None,
        metavar="SPEC",
        help="solve the instance's tasks on a heterogeneous platform, "
        "e.g. 'lp:2,hp:1' (replaces the instance's energy function or "
        "platform; selects the typed solvers)",
    )
    solve.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="write the solution as JSON here (default: print summary)",
    )
    solve.add_argument(
        "--explain",
        action="store_true",
        help="print the solver's work counters (nodes, cells, states, ...)",
    )

    verify = sub.add_parser(
        "verify",
        help="fuzz every solver against the exact oracles",
        description=(
            "Generate adversarial random instances and differentially "
            "cross-check heuristics, DPs, FPTAS, and bounds against the "
            "exhaustive oracles. Failing instances are shrunk and written "
            "as reproducer JSON replayable with 'repro solve'."
        ),
    )
    verify.add_argument(
        "--budget",
        type=int,
        default=200,
        metavar="N",
        help="number of random instances to check (default 200)",
    )
    verify.add_argument("--seed", type=int, default=0, help="root RNG seed")
    verify.add_argument(
        "--quick",
        action="store_true",
        help="small-budget smoke run for CI (caps --budget at 40)",
    )
    verify.add_argument(
        "--out-dir",
        type=Path,
        default=Path("verify-failures"),
        metavar="DIR",
        help="where failing reproducers are written (default verify-failures/)",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing instances as generated, without minimisation",
    )
    verify.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append per-trial/per-oracle span records (JSONL) to FILE",
    )

    stats = sub.add_parser(
        "stats",
        help="summarise a span trace or run manifest",
        description=(
            "Digest an observability artifact: a JSONL span trace written "
            "with --trace-out, or a run manifest from results/manifests/. "
            "Prints per-phase time totals, the slowest trials, and "
            "aggregated solver counters."
        ),
    )
    stats.add_argument(
        "source", type=Path, help="trace .jsonl or manifest .json path"
    )
    stats.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="how many slowest trials to list (default 5)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the solve server",
        description=(
            "Serve solve requests over HTTP/JSON with paper-faithful "
            "admission control: each request is priced as a frame task "
            "against the measured worker-pool capacity, and an online "
            "rejection policy decides accept (solve) or "
            "429 (reject). Endpoints: POST /solve, GET /result/<id>, "
            "GET /healthz, GET /metrics. See docs/service.md."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8722, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N", help="solver processes"
    )
    serve.add_argument(
        "--policy",
        default="accept",
        choices=_POLICY_CHOICES,
        help="admission policy (threshold = marginal-energy rule, "
        "mk = (m,k)-firm skip contract around the threshold rule)",
    )
    serve.add_argument(
        "--theta",
        type=float,
        default=1.0,
        help="threshold/mk policy acceptance parameter (> 0)",
    )
    serve.add_argument(
        "--reserve",
        action="store_true",
        help="threshold/mk policy: price marginals at the capacity-filling "
        "anchor (holds headroom back under overload)",
    )
    serve.add_argument(
        "--mk-m",
        type=int,
        default=1,
        metavar="M",
        dest="mk_m",
        help="mk policy: minimum accepts per window (default 1)",
    )
    serve.add_argument(
        "--mk-k",
        type=int,
        default=2,
        metavar="K",
        dest="mk_k",
        help="mk policy: window length (default 2; requires 1 <= M <= K)",
    )
    serve.add_argument(
        "--capacity",
        type=float,
        default=None,
        metavar="UNITS",
        help="admission capacity in work units "
        "(default: measured worker throughput x workers x window)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="UNITS_PER_S",
        help="single-worker service rate override (default: measured)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=1.0,
        metavar="S",
        help="admission window: seconds of throughput held as backlog",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        help="result-cache LRU bound",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run an N-shard fleet behind a front-door router "
        "(per-shard admission leases from one fleet-wide budget; "
        "shards share the disk cache tier)",
    )
    serve.add_argument(
        "--shard-id",
        default=None,
        metavar="ID",
        help="serve as one shard of a multi-process fleet (request ids "
        "gain an s<ID>- prefix; combine with --budget-file/--cache-dir)",
    )
    serve.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="UNITS",
        help="fleet-wide admission budget in work units (default with "
        "--shards: shards x --capacity when --capacity is given)",
    )
    serve.add_argument(
        "--budget-file",
        type=Path,
        default=None,
        metavar="FILE",
        help="share the budget ledger across processes through FILE "
        "(file-locked JSON; requires --budget)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="disk tier for the result cache (default with --shards: "
        "results/.cache/service; single server: disabled)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="disk-tier byte budget (LRU-by-mtime pruning)",
    )
    serve.add_argument(
        "--reuseport",
        action="store_true",
        help="with --shards and SO_REUSEPORT support: additionally bind "
        "every shard to the kernel-balanced data port <port>+1",
    )
    serve.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append request/batch span records (JSONL) to FILE",
    )
    serve.add_argument(
        "--access-log",
        type=Path,
        default=None,
        metavar="FILE",
        dest="access_log",
        help="append one structured JSON line per request to FILE "
        "(method, endpoint, status, latency, request id)",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="S",
        dest="sample_interval",
        help="runtime time-series sampling period in seconds (default 1)",
    )
    serve.add_argument(
        "--slo-window",
        type=float,
        default=60.0,
        metavar="S",
        help="rolling SLO evaluation window in seconds (default 60)",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="latency objective threshold in milliseconds (default 500)",
    )
    serve.add_argument(
        "--slo-latency-target",
        type=float,
        default=0.99,
        metavar="FRAC",
        help="fraction of 200s that must beat the latency threshold "
        "(default 0.99)",
    )
    serve.add_argument(
        "--slo-availability-target",
        type=float,
        default=0.999,
        metavar="FRAC",
        help="fraction of answered requests that must not 5xx "
        "(default 0.999)",
    )

    top = sub.add_parser(
        "top",
        help="live dashboard for a running solve server",
        description=(
            "Poll GET /metrics?format=json on a repro serve instance and "
            "render a full-screen text dashboard: request and reject "
            "rates, latency percentiles, queue depth, energy proxy, and "
            "SLO attainment/burn. Stdlib-only; --once prints a single "
            "frame and exits (CI-friendly)."
        ),
    )
    top.add_argument("--host", default="127.0.0.1", help="server address")
    top.add_argument("--port", type=int, default=8722, help="server port")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="refresh period in seconds (default 1)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit instead of refreshing",
    )

    bench_k = sub.add_parser(
        "bench",
        help="benchmark the solver kernels (python vs numpy)",
        description=(
            "Run seeded random instances through each rejection solver on "
            "every available array kernel and write the throughput table "
            "as BENCH_kernels.json (schema-versioned, atomically). The "
            "same seed reproduces the same instance stream, so two runs "
            "are directly comparable."
        ),
    )
    bench_k.add_argument("--seed", type=int, default=0, help="instance-stream seed")
    bench_k.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_kernels.json"),
        metavar="FILE",
        help="where to write the results (default BENCH_kernels.json)",
    )
    bench_k.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes/repeat counts for CI (seconds, not minutes)",
    )
    bench_k.add_argument(
        "--solver",
        action="append",
        default=None,
        metavar="NAME",
        dest="solvers",
        help="bench only this solver (repeatable; default: all)",
    )

    sim = sub.add_parser(
        "sim",
        help="discrete-event arrival simulation with online rejection",
        description=(
            "Run a seeded arrival stream (aperiodic or periodic) through "
            "per-core EDF queues with preemption and context-switch "
            "costs, deciding accept/reject at every arrival with the "
            "same admission controller repro serve uses. Prints the "
            "outcome table, writes a run manifest, and can emit the "
            "arrival trace for repro bench-serve --replay. The same "
            "seed reproduces the same table bit for bit. See docs/sim.md."
        ),
    )
    sim.add_argument(
        "--family",
        default="bursty",
        choices=("light", "bursty", "heavy", "periodic"),
        help="arrival family (see docs/sim.md)",
    )
    sim.add_argument(
        "--arrivals", type=int, default=500, metavar="N", help="stream length"
    )
    sim.add_argument("--seed", type=int, default=0, help="arrival-stream seed")
    sim.add_argument(
        "--cores", type=int, default=2, metavar="K", help="identical cores"
    )
    sim.add_argument(
        "--cores-spec",
        default=None,
        metavar="SPEC",
        dest="cores_spec",
        help="heterogeneous core set, e.g. 'lp:2,hp:1' (supersedes "
        "--cores; LP cores run their type's power curve at half speed)",
    )
    sim.add_argument(
        "--policy",
        default="accept",
        choices=_POLICY_CHOICES,
        help="admission policy (same vocabulary as repro serve)",
    )
    sim.add_argument(
        "--theta",
        type=float,
        default=1.0,
        help="threshold/mk policy acceptance parameter (> 0)",
    )
    sim.add_argument(
        "--reserve",
        action="store_true",
        help="threshold/mk policy: price marginals at the capacity-filling "
        "anchor",
    )
    sim.add_argument(
        "--mk-m",
        type=int,
        default=1,
        metavar="M",
        dest="mk_m",
        help="mk policy: minimum accepts per window (default 1)",
    )
    sim.add_argument(
        "--mk-k",
        type=int,
        default=2,
        metavar="K",
        dest="mk_k",
        help="mk policy: window length (default 2; requires 1 <= M <= K)",
    )
    sim.add_argument(
        "--capacity",
        type=float,
        default=50000.0,
        metavar="UNITS",
        help="admission capacity in work units",
    )
    sim.add_argument(
        "--rate",
        type=float,
        default=20000.0,
        metavar="UNITS_PER_S",
        help="per-core service rate (also the deadline-check rate)",
    )
    sim.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="execution speed in (0, 1] (energy follows the XScale curve)",
    )
    sim.add_argument(
        "--cs-time",
        type=float,
        default=0.0,
        metavar="S",
        dest="cs_time",
        help="context-switch wall time per pickup (seconds)",
    )
    sim.add_argument(
        "--cs-energy",
        type=float,
        default=0.0,
        metavar="J",
        dest="cs_energy",
        help="context-switch transition energy per pickup (joules)",
    )
    sim.add_argument(
        "--no-deadline-check",
        action="store_true",
        help="disable the controller's per-request deadline rejection",
    )
    sim.add_argument(
        "--emit-trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the replayable arrival trace (JSONL) to FILE",
    )
    sim.add_argument(
        "--json",
        action="store_true",
        help="print one JSON summary line instead of the table",
    )

    bench = sub.add_parser(
        "bench-serve",
        help="load-generate against a running solve server",
        description=(
            "Fire a seeded stream of random solve requests at a repro "
            "serve instance and report throughput, latency percentiles, "
            "reject rate, and cache hits per pass. The same seed "
            "produces the same requests, so pass 2 exercises the "
            "server's content-addressed cache."
        ),
    )
    bench.add_argument("--host", default="127.0.0.1", help="server address")
    bench.add_argument("--port", type=int, default=8722, help="server port")
    bench.add_argument(
        "--requests", type=int, default=200, help="requests per pass"
    )
    bench.add_argument("--seed", type=int, default=0, help="request-stream seed")
    bench.add_argument(
        "--passes", type=int, default=2, help="identical passes to run"
    )
    bench.add_argument(
        "--mode",
        default="closed",
        choices=("closed", "open"),
        help="closed loop (fixed concurrency) or open loop (fixed rate)",
    )
    bench.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop client connections",
    )
    bench.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="open-loop arrival rate (requests/second)",
    )
    bench.add_argument(
        "--algorithm",
        default="greedy_marginal",
        help="solver requested for every instance",
    )
    bench.add_argument(
        "--eps", type=float, default=0.1, help="FPTAS accuracy parameter"
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="print one JSON line per pass instead of text",
    )
    bench.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="TRACE",
        help="replay a repro sim --emit-trace file instead of generating "
        "load; prints the paired simulated-vs-served table",
    )
    bench.add_argument(
        "--replay-mode",
        default="sequential",
        choices=("sequential", "timed"),
        help="replay in arrival order (pairable decisions) or at the "
        "trace timestamps",
    )
    bench.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="timed replay: divide trace timestamps by this factor",
    )
    bench.add_argument(
        "--shards",
        default=None,
        metavar="N[,N...]",
        help="saturation mode: spin in-process fleets of these sizes "
        "and sweep offered load (ignores --host/--port; writes --out)",
    )
    bench.add_argument(
        "--factors",
        default="0.5,1,2",
        metavar="F[,F...]",
        help="saturation mode: offered-load multiples of the probed "
        "capacity (default 0.5,1,2)",
    )
    bench.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="S",
        help="saturation mode: target wall seconds per sweep point",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="saturation mode: worker processes for the fleet pool",
    )
    bench.add_argument(
        "--window",
        type=float,
        default=0.05,
        metavar="S",
        help="saturation mode: per-shard admission window (bounds the "
        "backlog an admitted request waits behind)",
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=Path("results/BENCH_serve.json"),
        metavar="FILE",
        help="saturation mode: write the JSON report here",
    )
    return parser


def _cmd_generate(args) -> int:
    import numpy as np

    from repro.core.rejection import RejectionProblem
    from repro.energy import ContinuousEnergyFunction
    from repro.io import save_instance
    from repro.power import xscale_power_model
    from repro.tasks import frame_instance

    rng = np.random.default_rng(args.seed)
    tasks = frame_instance(
        rng,
        n_tasks=args.n,
        load=args.load,
        penalty_model=args.penalty_model,
        penalty_scale=args.penalty_scale,
    )
    problem = RejectionProblem(
        tasks=tasks,
        energy_fn=ContinuousEnergyFunction(xscale_power_model(), deadline=1.0),
    )
    path = save_instance(problem, args.output)
    print(
        f"wrote {path}: n={problem.n} load={problem.overload:.2f} "
        f"total_penalty={problem.tasks.total_penalty:.4f}"
    )
    return 0


def _cmd_solve(args) -> int:
    import json

    from repro.core import rejection
    from repro.io import load_instance, solution_to_dict

    if not args.eps > 0:
        print(f"--eps must be > 0, got {args.eps}", file=sys.stderr)
        return 2
    try:
        problem = load_instance(args.instance)
    except FileNotFoundError:
        print(f"no such instance file: {args.instance}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(
            f"cannot read instance {args.instance}: {exc}",
            file=sys.stderr,
        )
        return 2
    from repro.hetero.assign import (
        HeteroRejectionProblem,
        exhaustive_hetero,
        typed_global_reject,
        typed_ltf_reject,
    )
    from repro.hetero.stochastic import StochasticHeteroProblem
    from repro.obs import counters as obs_counters

    if isinstance(problem, StochasticHeteroProblem):
        # Offline solving prices the worst case; repro sim exercises the
        # realised-cycles side of a stochastic instance.
        problem = problem.wcet_problem()
    if args.platform is not None:
        from repro.hetero.platform import parse_cores_spec

        try:
            platform = parse_cores_spec(args.platform)
        except ValueError as exc:
            print(f"bad --platform spec: {exc}", file=sys.stderr)
            return 2
        problem = HeteroRejectionProblem(
            tasks=problem.tasks,
            platform=platform,
            mk=getattr(problem, "mk", None),
        )
    hetero = isinstance(problem, HeteroRejectionProblem)
    algorithm = args.algorithm or ("typed_ltf" if hetero else "fptas")
    if hetero and algorithm not in HETERO_SOLVERS:
        print(
            f"{args.instance} is a heterogeneous-platform instance; "
            f"--algorithm must be one of {', '.join(HETERO_SOLVERS)}",
            file=sys.stderr,
        )
        return 2
    if not hetero and algorithm in HETERO_SOLVERS:
        print(
            f"--algorithm {algorithm} needs a platform "
            "(a platform instance, or --platform lp:2,hp:1)",
            file=sys.stderr,
        )
        return 2
    if hetero:
        solver = {
            "typed_ltf": typed_ltf_reject,
            "typed_global": typed_global_reject,
            "exhaustive_hetero": exhaustive_hetero,
        }[algorithm]
        with obs_counters.counting() as registry:
            solution = solver(problem)
    else:
        solver = getattr(rejection, SOLVERS[algorithm])
        with obs_counters.counting() as registry:
            if algorithm == "fptas":
                solution = solver(problem, eps=args.eps)
            else:
                solution = solver(problem)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        with open(args.output, "w") as fh:
            json.dump(solution_to_dict(solution), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    if hetero:
        names = sorted(problem.tasks[i].name for i in solution.rejected)
        rejected = ", ".join(names) or "-"
        breakdown = solution.breakdown
        print(
            f"{solution.algorithm} on {problem.platform.spec()}: "
            f"cost={solution.cost:.6g} "
            f"(energy={breakdown.energy:.6g}, "
            f"penalty={breakdown.penalty:.6g}); rejected: {rejected}"
        )
    else:
        rejected = ", ".join(t.name for t in solution.rejected_tasks) or "-"
        print(
            f"{solution.algorithm}: cost={solution.cost:.6g} "
            f"(energy={solution.energy:.6g}, penalty={solution.penalty:.6g}); "
            f"rejected: {rejected}"
        )
    if args.explain:
        print(f"kernel: {get_kernel().name}")
        counters = registry.snapshot()
        if counters:
            print("-- solver counters --")
            for name in sorted(counters):
                value = counters[name]
                rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
                print(f"{name:30s} {rendered}")
        else:
            print("-- solver counters -- (none emitted)")
    return 0


def _cmd_verify(args) -> int:
    try:
        from repro.verify import run_verification
    except ImportError as exc:  # pragma: no cover - no-numpy environment
        print(f"repro verify requires numpy: {exc}", file=sys.stderr)
        return 2

    if args.budget < 1:
        print(
            f"--budget must be a positive integer, got {args.budget}",
            file=sys.stderr,
        )
        return 2
    budget = min(args.budget, 40) if args.quick else args.budget

    def _run(log_prefix: str = "") -> "object":
        return run_verification(
            budget=budget,
            seed=args.seed,
            out_dir=args.out_dir,
            shrink=not args.no_shrink,
            log=lambda line: print(log_prefix + line, file=sys.stderr),
        )

    ok = True
    with _maybe_tracing(args.trace_out):
        if args.quick:
            # CI smoke: cross-check the solvers once per available array
            # kernel, so both backends stay under the differential wall.
            for name in kernel_names():
                with use_kernel(name):
                    report = _run(log_prefix=f"[kernel={name}] ")
                print(f"[kernel={name}] {report.summary()}")
                ok = ok and report.ok
        else:
            report = _run()
            print(report.summary())
            ok = report.ok
    if args.trace_out is not None:
        print(f"(trace written to {args.trace_out})")
    return 0 if ok else 1


def _cmd_stats(args) -> int:
    from repro.obs import stats_report

    try:
        print(stats_report(args.source, top=args.top))
    except FileNotFoundError:
        print(f"no such file: {args.source}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # Corrupt JSON, a manifest missing required keys, records of the
        # wrong shape, or an unreadable path all get the same one-line
        # diagnosis — never a traceback.
        print(f"cannot digest {args.source}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_top(args) -> int:
    from repro.obs.runtime import run_top

    if not args.interval > 0:
        print(
            f"--interval must be > 0, got {args.interval}", file=sys.stderr
        )
        return 2
    try:
        run_top(
            args.host, args.port, interval=args.interval, once=args.once
        )
    except (ConnectionError, OSError, ValueError) as exc:
        print(
            f"cannot scrape http://{args.host}:{args.port}/metrics: {exc}",
            file=sys.stderr,
        )
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import contextlib as _contextlib
    import signal

    from repro.core.rejection.online import policy_from_spec
    from repro.obs.runtime import SloObjective
    from repro.service import SolveService

    if args.workers < 1:
        print(
            f"--workers must be a positive integer, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.policy in ("threshold", "mk") and not args.theta > 0:
        print(f"--theta must be > 0, got {args.theta}", file=sys.stderr)
        return 2
    if args.policy == "mk" and not 1 <= args.mk_m <= args.mk_k:
        print(
            f"--mk-m/--mk-k must satisfy 1 <= m <= k, got "
            f"({args.mk_m},{args.mk_k})",
            file=sys.stderr,
        )
        return 2
    if args.capacity is not None and not args.capacity > 0:
        print(f"--capacity must be > 0, got {args.capacity}", file=sys.stderr)
        return 2
    if not args.sample_interval > 0:
        print(
            f"--sample-interval must be > 0, got {args.sample_interval}",
            file=sys.stderr,
        )
        return 2
    try:
        slos = (
            SloObjective(
                name="latency_p99",
                kind="latency",
                target=args.slo_latency_target,
                threshold_s=args.slo_latency_ms / 1e3,
                window_s=args.slo_window,
            ),
            SloObjective(
                name="availability",
                kind="availability",
                target=args.slo_availability_target,
                window_s=args.slo_window,
            ),
        )
    except ValueError as exc:
        print(f"bad SLO configuration: {exc}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1 and args.shard_id is not None:
        print(
            "--shards and --shard-id are mutually exclusive "
            "(fleet parent vs fleet member)",
            file=sys.stderr,
        )
        return 2
    if args.budget_file is not None and args.budget is None:
        print("--budget-file requires --budget", file=sys.stderr)
        return 2
    policy = policy_from_spec(
        args.policy,
        theta=args.theta,
        reserve=args.reserve,
        mk_m=args.mk_m,
        mk_k=args.mk_k,
    )
    with _contextlib.ExitStack() as stack:
        access_sink = None
        if args.access_log is not None:
            from repro.obs import JsonlSink

            args.access_log.parent.mkdir(parents=True, exist_ok=True)
            access_sink = stack.enter_context(JsonlSink(args.access_log))
        service_kwargs = dict(
            policy=policy,
            workers=args.workers,
            capacity_units=args.capacity,
            rate_units_per_s=args.rate,
            window_s=args.window,
            cache_entries=args.cache_entries,
            slos=slos,
            access_log=access_sink,
            sample_interval_s=args.sample_interval,
            cache_max_bytes=args.cache_max_bytes,
        )
        if args.shards > 1:
            return _serve_fleet(args, service_kwargs)
        budget = None
        if args.budget_file is not None:
            from repro.service.shard import FileBudget

            # A restarting member attaches to the live ledger; its own
            # stale leases are forfeited inside SolveService.start.
            budget = FileBudget(args.budget_file, args.budget, reset=False)
        elif args.budget is not None:
            from repro.service.shard import GlobalBudget

            budget = GlobalBudget(args.budget)
        service = SolveService(
            shard_id=args.shard_id,
            budget=budget,
            cache_dir=args.cache_dir,
            **service_kwargs,
        )
        return _serve_forever(args, service)


def _serve_fleet(args, service_kwargs) -> int:
    """``repro serve --shards N``: a LocalFleet behind the router."""
    import asyncio
    import signal

    from repro.service.cache import default_service_cache_dir
    from repro.service.shard import (
        FileBudget,
        LocalFleet,
        reuseport_available,
    )

    budget = None
    if args.budget_file is not None:
        budget = FileBudget(args.budget_file, args.budget, reset=True)
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = default_service_cache_dir()
    fleet = LocalFleet(
        shards=args.shards,
        budget_units=args.budget,
        budget=budget,
        cache_dir=cache_dir,
        **service_kwargs,
    )
    reuseport_port = None
    if args.reuseport:
        if reuseport_available():
            reuseport_port = args.port + 1 if args.port else 0
        else:  # pragma: no cover - non-SO_REUSEPORT platform
            print(
                "repro serve: SO_REUSEPORT unavailable; "
                "using the round-robin proxy only",
                file=sys.stderr,
            )

    async def _run() -> None:
        host, port = await fleet.start(
            args.host, args.port, reuseport_port=reuseport_port
        )
        budget_units = (
            fleet.budget.budget_units if fleet.budget is not None else None
        )
        print(
            f"repro serve: fleet of {args.shards} shards on "
            f"http://{host}:{port} "
            f"(budget={'none' if budget_units is None else f'{budget_units:.0f} units'}, "
            f"cache_dir={cache_dir}"
            + (
                f", reuseport_port={fleet.reuseport_port}"
                if fleet.reuseport_port is not None
                else ""
            )
            + ")",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await stop.wait()
        print("repro serve: draining the fleet ...", flush=True)
        await fleet.stop(drain=True)

    with _maybe_tracing(args.trace_out):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - non-posix fallback
            pass
    if args.trace_out is not None:
        print(f"(trace written to {args.trace_out})")
    return 0


def _serve_forever(args, service) -> int:
    import asyncio
    import signal

    async def _run() -> None:
        host, port = await service.start(args.host, args.port)
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(policy={service.metrics_dict()['service']['policy']}, "
            f"workers={service.workers}, "
            f"capacity={service.capacity_units:.0f} units)",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await stop.wait()
        print("repro serve: draining in-flight requests ...", flush=True)
        await service.stop(drain=True)

    with _maybe_tracing(args.trace_out):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - non-posix fallback
            pass
    if args.trace_out is not None:
        print(f"(trace written to {args.trace_out})")
    return 0


def _cmd_bench(args) -> int:
    from repro.kernels.bench import BENCH_SOLVERS, run_bench

    if args.solvers:
        unknown = [s for s in args.solvers if s not in BENCH_SOLVERS]
        if unknown:
            print(
                f"unknown bench solver(s): {', '.join(unknown)}; "
                f"choose from {', '.join(BENCH_SOLVERS)}",
                file=sys.stderr,
            )
            return 2
    try:
        path, results = run_bench(
            seed=args.seed,
            out=args.out,
            smoke=args.smoke,
            solvers=args.solvers,
            log=lambda line: print(line, file=sys.stderr),
        )
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path} ({len(results)} cells)")
    return 0


def _cmd_sim(args) -> int:
    import json

    from repro.core.rejection.online import policy_from_spec
    from repro.sim import (
        ArrivalSimulator,
        make_arrivals,
        sim_params,
        sim_table,
        write_sim_manifest,
        write_trace,
    )

    if args.arrivals < 1:
        print(
            f"--arrivals must be a positive integer, got {args.arrivals}",
            file=sys.stderr,
        )
        return 2
    if args.cores < 1:
        print(
            f"--cores must be a positive integer, got {args.cores}",
            file=sys.stderr,
        )
        return 2
    platform = None
    if args.cores_spec is not None:
        from repro.hetero.platform import parse_cores_spec

        try:
            platform = parse_cores_spec(args.cores_spec)
        except ValueError as exc:
            print(f"bad --cores-spec: {exc}", file=sys.stderr)
            return 2
    if args.policy in ("threshold", "mk") and not args.theta > 0:
        print(f"--theta must be > 0, got {args.theta}", file=sys.stderr)
        return 2
    if args.policy == "mk" and not 1 <= args.mk_m <= args.mk_k:
        print(
            f"--mk-m/--mk-k must satisfy 1 <= m <= k, got "
            f"({args.mk_m},{args.mk_k})",
            file=sys.stderr,
        )
        return 2
    for flag, value in (
        ("--capacity", args.capacity),
        ("--rate", args.rate),
        ("--speed", args.speed),
    ):
        if not value > 0:
            print(f"{flag} must be > 0, got {value}", file=sys.stderr)
            return 2
    if args.cs_time < 0 or args.cs_energy < 0:
        print("--cs-time/--cs-energy must be >= 0", file=sys.stderr)
        return 2

    arrivals = make_arrivals(args.family, args.arrivals, args.seed)
    policy = policy_from_spec(
        args.policy,
        theta=args.theta,
        reserve=args.reserve,
        mk_m=args.mk_m,
        mk_k=args.mk_k,
    )
    report = ArrivalSimulator(
        arrivals,
        cores=args.cores,
        policy=policy,
        capacity_units=args.capacity,
        rate_units_per_s=args.rate,
        speed=args.speed,
        context_switch_s=args.cs_time,
        context_switch_j=args.cs_energy,
        deadline_check=not args.no_deadline_check,
        platform=platform,
    ).run()

    params = sim_params(
        family=args.family,
        count=args.arrivals,
        seed=args.seed,
        cores=args.cores,
        policy=args.policy,
        capacity_units=args.capacity,
        rate_units_per_s=args.rate,
        speed=args.speed,
        context_switch_s=args.cs_time,
        context_switch_j=args.cs_energy,
        cores_spec=args.cores_spec,
    )
    # The trace header carries the full parameter set so bench-serve
    # --replay can rebuild the identical simulation from the file alone.
    params["theta"] = args.theta
    params["reserve"] = bool(args.reserve)
    params["deadline_check"] = not args.no_deadline_check
    if args.policy == "mk":
        params["mk_m"] = args.mk_m
        params["mk_k"] = args.mk_k
    manifest = write_sim_manifest(
        report, family=args.family, seed=args.seed, params=params
    )
    if args.emit_trace is not None:
        path = write_trace(args.emit_trace, arrivals, report, meta=params)
        print(f"wrote trace {path} ({report.offered} arrivals)")
    if args.json:
        print(
            json.dumps(
                {
                    "params": params,
                    "offered": report.offered,
                    "admitted": report.admitted,
                    "rejected": report.rejected,
                    "shed": report.shed,
                    "completed": report.completed,
                    "rejection_rate": report.rejection_rate,
                    "deadline_misses": len(report.misses),
                    "context_switches": report.context_switches,
                    "penalty_cost": report.penalty_cost,
                    "energy_total_j": report.total_energy,
                    "makespan_s": report.makespan,
                    "decision_digest": report.decision_digest(),
                    "slo": [r.as_dict() for r in report.slo_summary()],
                },
                sort_keys=True,
            )
        )
    else:
        from repro.obs.runtime import format_slo_line

        print(sim_table(report, family=args.family, seed=args.seed).render())
        # Same grep-able schema bench-serve prints for the served side.
        for res in report.slo_summary():
            print(format_slo_line(res))
    print(f"wrote manifest {manifest}")
    return 0


def _cmd_replay(args) -> int:
    import json

    from repro.core.rejection.online import policy_from_spec
    from repro.obs.runtime import format_slo_line
    from repro.service.loadgen import format_stats, run_replay, slo_results
    from repro.sim import (
        ArrivalSimulator,
        load_trace,
        make_arrivals,
        paired_summary,
    )

    try:
        header, entries = load_trace(args.replay)
    except FileNotFoundError:
        print(f"no such trace file: {args.replay}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read trace {args.replay}: {exc}", file=sys.stderr)
        return 2
    try:
        arrivals = make_arrivals(
            header["family"], header["count"], header["seed"]
        )
        policy = policy_from_spec(
            header["policy"],
            theta=header.get("theta", 1.0),
            reserve=header.get("reserve", False),
            mk_m=header.get("mk_m", 1),
            mk_k=header.get("mk_k", 2),
        )
        platform = None
        if header.get("cores_spec"):
            from repro.hetero.platform import parse_cores_spec

            platform = parse_cores_spec(header["cores_spec"])
        report = ArrivalSimulator(
            arrivals,
            cores=header["cores"],
            policy=policy,
            capacity_units=header["capacity_units"],
            rate_units_per_s=header["rate_units_per_s"],
            speed=header.get("speed", 1.0),
            context_switch_s=header.get("context_switch_s", 0.0),
            context_switch_j=header.get("context_switch_j", 0.0),
            deadline_check=header.get("deadline_check", True),
            platform=platform,
        ).run()
    except (KeyError, ValueError) as exc:
        print(
            f"trace {args.replay} is missing simulation parameters: {exc}",
            file=sys.stderr,
        )
        return 2
    if report.decision_digest() != header.get("decision_digest"):
        print(
            f"trace {args.replay} does not reproduce: the simulator's "
            "decision digest differs from the header's (edited trace, or "
            "the admission code changed since it was written)",
            file=sys.stderr,
        )
        return 2
    try:
        stats, outcomes = run_replay(
            args.host,
            args.port,
            entries,
            mode=args.replay_mode,
            speedup=args.speedup,
        )
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    table = paired_summary(
        report,
        entries,
        [o.as_pair() for o in outcomes],
        served_samples=stats.slo_samples,
        served_window_s=stats.elapsed_s,
    )
    if args.json:
        sim_row, served_row = table.rows
        print(
            json.dumps(
                {
                    "trace": str(args.replay),
                    "mode": args.replay_mode,
                    "columns": list(table.columns),
                    "sim": list(sim_row),
                    "served": list(served_row),
                    "notes": list(table.notes),
                    "loadgen": stats.as_dict(),
                    "slo": {
                        "sim": [
                            r.as_dict() for r in report.slo_summary()
                        ],
                        "served": [
                            r.as_dict() for r in slo_results([stats])
                        ],
                    },
                },
                sort_keys=True,
            )
        )
    else:
        print(format_stats(stats))
        print(table.render())
        for res in slo_results([stats]):
            print(format_slo_line(res))
    return 1 if stats.server_errors or stats.transport_errors else 0


def _cmd_bench_serve(args) -> int:
    import json

    from repro.obs.runtime import format_slo_line
    from repro.service.loadgen import format_stats, run_load, slo_results
    from repro.service.models import SOLVER_NAMES

    if args.replay is not None:
        return _cmd_replay(args)
    if args.shards is not None:
        return _cmd_bench_saturation(args)

    if args.requests < 1:
        print(
            f"--requests must be a positive integer, got {args.requests}",
            file=sys.stderr,
        )
        return 2
    if args.passes < 1:
        print(
            f"--passes must be a positive integer, got {args.passes}",
            file=sys.stderr,
        )
        return 2
    if args.algorithm not in SOLVER_NAMES:
        print(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {', '.join(SOLVER_NAMES)}",
            file=sys.stderr,
        )
        return 2
    try:
        results = run_load(
            args.host,
            args.port,
            requests=args.requests,
            seed=args.seed,
            passes=args.passes,
            mode=args.mode,
            concurrency=args.concurrency,
            rate=args.rate,
            algorithm=args.algorithm,
            eps=args.eps,
        )
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    failed = False
    for stats in results:
        print(
            json.dumps(stats.as_dict(), sort_keys=True)
            if args.json
            else format_stats(stats)
        )
        if stats.server_errors or stats.transport_errors:
            failed = True
    # Client-observed SLO attainment over all passes — the same schema
    # the server's rolling tracker and `repro sim` report, so the three
    # views compare directly.  Informational: an overload demo is
    # *supposed* to burn its latency budget.
    slo = slo_results(results)
    if args.json:
        print(
            json.dumps(
                {"slo": [r.as_dict() for r in slo]}, sort_keys=True
            )
        )
    else:
        for res in slo:
            print(format_slo_line(res))
    return 1 if failed else 0


def _cmd_bench_saturation(args) -> int:
    """``bench-serve --shards``: the fleet saturation sweep."""
    try:
        shard_counts = tuple(
            int(part) for part in str(args.shards).split(",") if part
        )
        factors = tuple(
            float(part) for part in str(args.factors).split(",") if part
        )
    except ValueError:
        print(
            f"--shards/--factors must be comma-separated numbers, got "
            f"{args.shards!r} / {args.factors!r}",
            file=sys.stderr,
        )
        return 2
    if not shard_counts or any(n < 1 for n in shard_counts):
        print(f"--shards entries must be >= 1, got {args.shards!r}",
              file=sys.stderr)
        return 2
    if not factors or any(not f > 0 for f in factors):
        print(f"--factors entries must be > 0, got {args.factors!r}",
              file=sys.stderr)
        return 2
    if not args.duration > 0:
        print(f"--duration must be > 0, got {args.duration}",
              file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401 - the seeded stream needs it
    except ImportError:
        print(
            "bench-serve --shards needs numpy (the seeded request "
            "stream is numpy-drawn)",
            file=sys.stderr,
        )
        return 2
    from repro.service.shard.bench import run_saturation

    report = run_saturation(
        shard_counts=shard_counts,
        factors=factors,
        seed=args.seed,
        duration_s=args.duration,
        workers=args.workers,
        window_s=args.window,
        concurrency=args.concurrency,
        out=args.out,
    )
    broken = [
        point for point in report["points"]
        if not point["invariant"]["holds"]
    ]
    if broken:
        print(
            f"fleet counter invariant BROKEN at {len(broken)} point(s)",
            file=sys.stderr,
        )
        return 1
    return 0


@contextlib.contextmanager
def _maybe_tracing(trace_out: Path | None):
    """Install a JSONL span sink for the body when *trace_out* is set."""
    if trace_out is None:
        yield
        return
    from repro.obs import JsonlSink, tracing

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with JsonlSink(trace_out) as sink, tracing(sink):
        yield


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse raises for --help/--version (0) and for parse errors
        # (2, after the parser's one-line stderr message).
        return int(exc.code or 0)

    if args.kernel is not None:
        # Via the environment so worker processes inherit the choice.
        os.environ[KERNEL_ENV_VAR] = args.kernel
    try:
        get_kernel()
    except KernelUnavailableError as exc:
        # Never fall back silently: a requested-but-missing backend is a
        # hard, one-line error (exit 2), both via --kernel and the env.
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    if args.command == "list":
        if not ALL_EXPERIMENTS:  # pragma: no cover - no-numpy environment
            print("experiments unavailable (numpy not installed)", file=sys.stderr)
            return 2
        width = max(len(name) for name in ALL_EXPERIMENTS)
        for name in ALL_EXPERIMENTS:
            blurb = experiment_description(name)
            print(f"{name:<{width}}  {blurb}" if blurb else name)
        return 0

    if args.command == "generate":
        return _cmd_generate(args)

    if args.command == "solve":
        return _cmd_solve(args)

    if args.command == "verify":
        return _cmd_verify(args)

    if args.command == "stats":
        return _cmd_stats(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "top":
        return _cmd_top(args)

    if args.command == "bench":
        return _cmd_bench(args)

    if args.command == "sim":
        return _cmd_sim(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)

    if args.jobs < 1:
        print(
            f"--jobs must be a positive integer, got {args.jobs}",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "all":
        selected = list(ALL_EXPERIMENTS.items())
    elif args.experiment in ALL_EXPERIMENTS:
        selected = [(args.experiment, ALL_EXPERIMENTS[args.experiment])]
    else:
        print(
            f"unknown experiment {args.experiment!r}; try 'repro list'",
            file=sys.stderr,
        )
        return 2

    import json

    from repro.runner import run_experiment

    with _maybe_tracing(args.trace_out):
        for name, runner in selected:
            table, metrics = run_experiment(
                name,
                run_fn=runner,
                quick=args.quick,
                seed=args.seed,
                jobs=args.jobs,
                use_cache=not args.no_cache,
            )
            print(table.render())
            print()
            if args.log_json:
                print(json.dumps(metrics.as_dict(), sort_keys=True))
            else:
                print(metrics.summary_line())
            if args.timings:
                print(metrics.report())
                print()
            if args.csv is not None:
                path = table.to_csv(args.csv / f"{name}.csv")
                print(f"(csv written to {path})")
    if args.trace_out is not None:
        print(f"(trace written to {args.trace_out})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
