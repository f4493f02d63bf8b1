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

from repro._validation import (
    require_in_range,
    require_nonnegative,
    require_positive,
)
from repro.core.rejection.online import POLICY_CHOICES, policy_from_spec
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

#: Algorithms reachable from ``repro solve`` (functions of
#: :mod:`repro.core.rejection`); fptas additionally honours ``--eps``.
SOLVERS = (
    "exhaustive",
    "branch_and_bound",
    "pareto_exact",
    "fptas",
    "greedy_marginal",
    "greedy_density",
    "lp_rounding",
    "accept_all_repair",
)

#: Heterogeneous-platform algorithms reachable from ``repro solve``
#: (the instance must carry a platform, or one is given via --platform).
HETERO_SOLVERS = ("exhaustive_hetero", "typed_global", "typed_ltf")


class _Parser(argparse.ArgumentParser):
    """Argparse whose errors are one stderr line and exit status 2."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.exit(2, f"{self.prog}: {message}\n")


class _Refusal(Exception):
    """Bad input found by a command: :func:`main` prints it and exits 2."""


def _bounded(check, bound: str, *limits) -> type[argparse.Action]:
    """An argparse action that stores a value only when *check* accepts it.

    *check* is a :mod:`repro._validation` ``require_*`` helper, called
    as ``check(flag, value, *limits)``.  A value it refuses (for a list
    flag, any entry) is the parser's one-line exit-2 error ``FLAG must
    be BOUND, got VALUE``, raised while the command line is parsed, so
    before any command starts.
    """

    class _Bounded(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            for value in values if isinstance(values, tuple) else (values,):
                try:
                    check(option_string, value, *limits)
                except ValueError:
                    parser.error(f"{option_string} must be {bound}, got {value}")
            setattr(namespace, self.dest, values)

    return _Bounded


_POSITIVE = _bounded(require_positive, "> 0 and finite")
_NONNEGATIVE = _bounded(require_nonnegative, ">= 0 and finite")
_PORT = _bounded(require_in_range, "in [1, 65535]", 1, 65535)
_BIND_PORT = _bounded(require_in_range, "in [0, 65535]", 0, 65535)
_SPEED = _bounded(
    lambda name, v: require_in_range(name, require_positive(name, v), 0, 1),
    "in (0, 1]",
)


def _number_list(kind):
    """``type=`` for a non-empty comma-separated list of *kind* values."""

    def parse(text: str) -> tuple:
        values = tuple(kind(part) for part in text.split(",") if part)
        if not values:
            raise ValueError(text)
        return values

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error
    return parse


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
        help="array-kernel backend for the solvers "
        "(default: $REPRO_KERNEL, else auto = numpy when available)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    # Flag groups shared by several subcommands.
    policy_flags = argparse.ArgumentParser(add_help=False)
    policy_flags.add_argument(
        "--policy",
        default="accept",
        choices=POLICY_CHOICES,
        help="admission policy (threshold = marginal-energy rule, "
        "mk = (m,k)-firm skip contract around the threshold rule)",
    )
    policy_flags.add_argument(
        "--theta",
        type=float,
        default=1.0,
        action=_POSITIVE,
        help="threshold/mk policy acceptance parameter (> 0)",
    )
    policy_flags.add_argument(
        "--reserve",
        action="store_true",
        help="threshold/mk policy: price marginals at the capacity-filling "
        "anchor (holds headroom back under overload)",
    )
    policy_flags.add_argument(
        "--mk-m",
        type=int,
        default=1,
        metavar="M",
        help="mk policy: minimum accepts per window (default 1)",
    )
    policy_flags.add_argument(
        "--mk-k",
        type=int,
        default=2,
        metavar="K",
        help="mk policy: window length (default 2; requires 1 <= M <= K)",
    )
    server_flags = argparse.ArgumentParser(add_help=False)
    server_flags.add_argument(
        "--host", default="127.0.0.1", help="server address"
    )
    server_flags.add_argument(
        "--port", type=int, default=8722, action=_PORT, help="server port"
    )

    sub.add_parser("list", help="list available experiments").set_defaults(
        handler=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.set_defaults(handler=_cmd_run)
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
        "--seed", type=int, help="override the experiment seed"
    )
    run.add_argument(
        "--csv",
        type=Path,
        metavar="DIR",
        help="also write each table as DIR/<name>.csv",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        action=_POSITIVE,
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
    generate.set_defaults(handler=_cmd_generate)
    generate.add_argument("output", type=Path, help="destination .json path")
    generate.add_argument(
        "--n", type=int, default=12, action=_POSITIVE, help="number of tasks"
    )
    generate.add_argument(
        "--load",
        type=float,
        default=1.5,
        action=_POSITIVE,
        help="system load Σc/(s_max·D)",
    )
    generate.add_argument(
        "--seed", type=int, default=0, action=_NONNEGATIVE, help="RNG seed"
    )
    generate.add_argument(
        "--penalty-model",
        default="energy",
        choices=("uniform", "proportional", "inverse", "energy"),
    )
    generate.add_argument(
        "--penalty-scale",
        type=float,
        default=2.0,
        action=_POSITIVE,
        help="penalty multiplier",
    )

    solve = sub.add_parser("solve", help="solve a JSON instance")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("instance", type=Path, help="instance .json path")
    solve.add_argument(
        "--algorithm",
        choices=sorted([*SOLVERS, *HETERO_SOLVERS]),
        help="which algorithm to run (default: fptas, or typed_ltf on a "
        "heterogeneous-platform instance)",
    )
    solve.add_argument(
        "--eps",
        type=float,
        default=0.1,
        action=_POSITIVE,
        help="FPTAS accuracy parameter",
    )
    solve.add_argument(
        "--platform",
        metavar="SPEC",
        help="solve the instance's tasks on a heterogeneous platform, "
        "e.g. 'lp:2,hp:1' (replaces the instance's energy function or "
        "platform; selects the typed solvers)",
    )
    solve.add_argument(
        "-o",
        "--output",
        type=Path,
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
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument(
        "--budget",
        type=int,
        default=200,
        action=_POSITIVE,
        metavar="N",
        help="number of random instances to check (default 200)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, action=_NONNEGATIVE, help="root RNG seed"
    )
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
    stats.set_defaults(handler=_cmd_stats)
    stats.add_argument(
        "source", type=Path, help="trace .jsonl or manifest .json path"
    )
    stats.add_argument(
        "--top",
        type=int,
        default=5,
        action=_NONNEGATIVE,
        metavar="K",
        help="how many slowest trials to list (default 5)",
    )

    serve = sub.add_parser(
        "serve",
        parents=[policy_flags],
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
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8722,
        action=_BIND_PORT,
        help="bind port (0 = ephemeral)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        action=_POSITIVE,
        metavar="N",
        help="solver processes",
    )
    serve.add_argument(
        "--capacity",
        type=float,
        action=_POSITIVE,
        metavar="UNITS",
        help="admission capacity in work units "
        "(default: measured worker throughput x workers x window)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        action=_POSITIVE,
        metavar="UNITS_PER_S",
        help="single-worker service rate override (default: measured)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=1.0,
        action=_POSITIVE,
        metavar="S",
        help="admission window: seconds of throughput held as backlog",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        action=_POSITIVE,
        help="result-cache LRU bound",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        action=_POSITIVE,
        metavar="N",
        help="run an N-shard fleet behind a front-door router "
        "(per-shard admission leases from one fleet-wide budget; "
        "shards share the disk cache tier)",
    )
    serve.add_argument(
        "--shard-id",
        metavar="ID",
        help="serve as one shard of a multi-process fleet (request ids "
        "gain an s<ID>- prefix; combine with --budget-file/--cache-dir)",
    )
    serve.add_argument(
        "--budget",
        type=float,
        action=_POSITIVE,
        metavar="UNITS",
        help="fleet-wide admission budget in work units (default with "
        "--shards: shards x --capacity when --capacity is given)",
    )
    serve.add_argument(
        "--budget-file",
        type=Path,
        metavar="FILE",
        help="share the budget ledger across processes through FILE "
        "(file-locked JSON; requires --budget)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        metavar="DIR",
        help="disk tier for the result cache (default with --shards: "
        "results/.cache/service; single server: disabled)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        action=_POSITIVE,
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
        metavar="FILE",
        help="append request span records (JSONL) to FILE",
    )
    serve.add_argument(
        "--access-log",
        type=Path,
        metavar="FILE",
        help="append one structured JSON line per request to FILE "
        "(method, endpoint, status, latency, request id)",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        action=_POSITIVE,
        metavar="S",
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
        parents=[server_flags],
        help="live dashboard for a running solve server",
        description=(
            "Poll GET /metrics?format=json on a repro serve instance and "
            "render a full-screen text dashboard: request and reject "
            "rates, latency percentiles, queue depth, energy proxy, and "
            "SLO attainment/burn. Stdlib-only; --once prints a single "
            "frame and exits (CI-friendly)."
        ),
    )
    top.set_defaults(handler=_cmd_top)
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        action=_POSITIVE,
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
    bench_k.set_defaults(handler=_cmd_bench)
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
        metavar="NAME",
        dest="solvers",
        help="bench only this solver (repeatable; default: all)",
    )

    sim = sub.add_parser(
        "sim",
        parents=[policy_flags],
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
    sim.set_defaults(handler=_cmd_sim)
    sim.add_argument(
        "--family",
        default="bursty",
        choices=("light", "bursty", "heavy", "periodic"),
        help="arrival family (see docs/sim.md)",
    )
    sim.add_argument(
        "--arrivals",
        type=int,
        default=500,
        action=_POSITIVE,
        metavar="N",
        help="stream length",
    )
    sim.add_argument("--seed", type=int, default=0, help="arrival-stream seed")
    sim.add_argument(
        "--cores",
        type=int,
        default=2,
        action=_POSITIVE,
        metavar="K",
        help="identical cores",
    )
    sim.add_argument(
        "--cores-spec",
        metavar="SPEC",
        help="heterogeneous core set, e.g. 'lp:2,hp:1' (supersedes "
        "--cores; LP cores run their type's power curve at half speed)",
    )
    sim.add_argument(
        "--capacity",
        type=float,
        default=50000.0,
        action=_POSITIVE,
        metavar="UNITS",
        help="admission capacity in work units",
    )
    sim.add_argument(
        "--rate",
        type=float,
        default=20000.0,
        action=_POSITIVE,
        metavar="UNITS_PER_S",
        help="per-core service rate (also the deadline-check rate)",
    )
    sim.add_argument(
        "--speed",
        type=float,
        default=1.0,
        action=_SPEED,
        help="execution speed in (0, 1] (energy follows the XScale curve)",
    )
    sim.add_argument(
        "--cs-time",
        type=float,
        default=0.0,
        action=_NONNEGATIVE,
        metavar="S",
        help="context-switch wall time per pickup (seconds)",
    )
    sim.add_argument(
        "--cs-energy",
        type=float,
        default=0.0,
        action=_NONNEGATIVE,
        metavar="J",
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
        parents=[server_flags],
        help="load-generate against a running solve server",
        description=(
            "Fire a seeded stream of random solve requests at a repro "
            "serve instance and report throughput, latency percentiles, "
            "reject rate, and cache hits per pass. The same seed "
            "produces the same requests, so pass 2 exercises the "
            "server's content-addressed cache."
        ),
    )
    bench.set_defaults(handler=_cmd_bench_serve)
    bench.add_argument(
        "--requests",
        type=int,
        default=200,
        action=_POSITIVE,
        help="requests per pass",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=0,
        action=_NONNEGATIVE,
        help="request-stream seed",
    )
    bench.add_argument(
        "--passes",
        type=int,
        default=2,
        action=_POSITIVE,
        help="identical passes to run",
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
        action=_POSITIVE,
        help="closed-loop client connections",
    )
    bench.add_argument(
        "--rate",
        type=float,
        default=200.0,
        action=_POSITIVE,
        help="open-loop arrival rate (requests/second)",
    )
    bench.add_argument(
        "--algorithm",
        default="greedy_marginal",
        help="solver requested for every instance",
    )
    bench.add_argument(
        "--eps",
        type=float,
        default=0.1,
        action=_POSITIVE,
        help="FPTAS accuracy parameter",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="print one JSON line per pass instead of text",
    )
    bench.add_argument(
        "--replay",
        type=Path,
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
        action=_POSITIVE,
        help="timed replay: divide trace timestamps by this factor",
    )
    bench.add_argument(
        "--shards",
        type=_number_list(int),
        action=_POSITIVE,
        metavar="N[,N...]",
        help="saturation mode: spin in-process fleets of these sizes "
        "and sweep offered load (ignores --host/--port; writes --out)",
    )
    bench.add_argument(
        "--factors",
        type=_number_list(float),
        default="0.5,1,2",
        action=_POSITIVE,
        metavar="F[,F...]",
        help="saturation mode: offered-load multiples of the probed "
        "capacity (default 0.5,1,2)",
    )
    bench.add_argument(
        "--duration",
        type=float,
        default=2.0,
        action=_POSITIVE,
        metavar="S",
        help="saturation mode: target wall seconds per sweep point",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        action=_POSITIVE,
        metavar="N",
        help="saturation mode: worker processes for the fleet pool",
    )
    bench.add_argument(
        "--window",
        type=float,
        default=0.05,
        action=_POSITIVE,
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


def _cmd_list(args) -> int:
    if not ALL_EXPERIMENTS:  # pragma: no cover - no-numpy environment
        raise _Refusal("experiments unavailable (numpy not installed)")
    width = max(len(name) for name in ALL_EXPERIMENTS)
    for name in ALL_EXPERIMENTS:
        blurb = experiment_description(name)
        print(f"{name:<{width}}  {blurb}" if blurb else name)
    return 0


def _cmd_run(args) -> int:
    import json

    from repro.runner import run_experiment

    if args.experiment == "all":
        selected = list(ALL_EXPERIMENTS.items())
    elif args.experiment in ALL_EXPERIMENTS:
        selected = [(args.experiment, ALL_EXPERIMENTS[args.experiment])]
    else:
        raise _Refusal(
            f"unknown experiment {args.experiment!r}; try 'repro list'"
        )
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
    return 0


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

    try:
        problem = load_instance(args.instance)
    except FileNotFoundError:
        raise _Refusal(f"no such instance file: {args.instance}")
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise _Refusal(f"cannot read instance {args.instance}: {exc}")
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
            raise _Refusal(f"bad --platform spec: {exc}")
        problem = HeteroRejectionProblem(
            tasks=problem.tasks,
            platform=platform,
            mk=getattr(problem, "mk", None),
        )
    hetero = isinstance(problem, HeteroRejectionProblem)
    algorithm = args.algorithm or ("typed_ltf" if hetero else "fptas")
    if hetero and algorithm not in HETERO_SOLVERS:
        raise _Refusal(
            f"{args.instance} is a heterogeneous-platform instance; "
            f"--algorithm must be one of {', '.join(HETERO_SOLVERS)}"
        )
    if not hetero and algorithm in HETERO_SOLVERS:
        raise _Refusal(
            f"--algorithm {algorithm} needs a platform "
            "(a platform instance, or --platform lp:2,hp:1)"
        )
    solver = {
        "typed_ltf": typed_ltf_reject,
        "typed_global": typed_global_reject,
        "exhaustive_hetero": exhaustive_hetero,
    }.get(algorithm) or getattr(rejection, algorithm)
    solver_kwargs = {"eps": args.eps} if algorithm == "fptas" else {}
    with obs_counters.counting() as registry:
        solution = solver(problem, **solver_kwargs)
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
        raise _Refusal(f"repro verify requires numpy: {exc}")

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
    return 0 if ok else 1


def _cmd_stats(args) -> int:
    from repro.obs import stats_report

    try:
        print(stats_report(args.source, top=args.top))
    except FileNotFoundError:
        raise _Refusal(f"no such file: {args.source}")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # Corrupt JSON, a manifest missing required keys, records of the
        # wrong shape, or an unreadable path all get the same one-line
        # diagnosis — never a traceback.
        raise _Refusal(f"cannot digest {args.source}: {exc}")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.runtime import run_top

    try:
        run_top(
            args.host, args.port, interval=args.interval, once=args.once
        )
    except (ConnectionError, OSError, ValueError) as exc:
        raise _Refusal(
            f"cannot scrape http://{args.host}:{args.port}/metrics: {exc}"
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _policy(args):
    """The admission policy named by the shared ``--policy`` flags."""
    try:
        return policy_from_spec(
            args.policy,
            theta=args.theta,
            reserve=args.reserve,
            mk_m=args.mk_m,
            mk_k=args.mk_k,
        )
    except ValueError as exc:
        # --theta is bounded on its flag, so what is left to refuse here
        # is the (m,k) window.
        raise _Refusal(f"--mk-m/--mk-k: {exc}")


def _cmd_serve(args) -> int:
    from repro.obs.runtime import SloObjective

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
        raise _Refusal(f"bad SLO configuration: {exc}")
    if args.shards > 1 and args.shard_id is not None:
        raise _Refusal(
            "--shards and --shard-id are mutually exclusive "
            "(fleet parent vs fleet member)"
        )
    if args.budget_file is not None and args.budget is None:
        raise _Refusal("--budget-file requires --budget")
    policy = _policy(args)
    with contextlib.ExitStack() as stack:
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
        from repro.service import SolveService

        budget = None
        if args.budget_file is not None:
            from repro.service.shard import FileBudget

            # A restarting member attaches to the live ledger; its own
            # stale leases are forfeited inside SolveService.start.
            budget = FileBudget(args.budget_file, args.budget, reset=False)
        elif args.budget is not None:
            from repro.service.shard import GlobalBudget

            budget = GlobalBudget(args.budget)
        try:
            service = SolveService(
                shard_id=args.shard_id,
                budget=budget,
                cache_dir=args.cache_dir,
                **service_kwargs,
            )
        except OSError as exc:  # the disk tier's directory is unusable
            raise _Refusal(f"cannot use --cache-dir {args.cache_dir}: {exc}")

        def banner(host: str, port: int) -> str:
            return (
                f"listening on http://{host}:{port} "
                f"(policy={service.metrics_dict()['service']['policy']}, "
                f"workers={service.workers}, "
                f"capacity={service.capacity_units:.0f} units)"
            )

        return _serve_until_signal(args, service, banner, "in-flight requests")


def _serve_fleet(args, service_kwargs) -> int:
    """``repro serve --shards N``: a LocalFleet behind the router."""
    from repro.runner.cache import default_cache_dir
    from repro.service.shard import (
        FileBudget,
        LocalFleet,
        reuseport_available,
    )

    budget = None
    if args.budget_file is not None:
        budget = FileBudget(args.budget_file, args.budget, reset=True)
    cache_dir = args.cache_dir or default_cache_dir() / "service"
    try:
        fleet = LocalFleet(
            shards=args.shards,
            budget_units=args.budget,
            budget=budget,
            cache_dir=cache_dir,
            **service_kwargs,
        )
    except OSError as exc:  # the shared disk tier's directory is unusable
        raise _Refusal(f"cannot use --cache-dir {cache_dir}: {exc}")
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

    def banner(host: str, port: int) -> str:
        budget_units = (
            fleet.budget.budget_units if fleet.budget is not None else None
        )
        return (
            f"fleet of {args.shards} shards on "
            f"http://{host}:{port} "
            f"(budget={'none' if budget_units is None else f'{budget_units:.0f} units'}, "
            f"cache_dir={cache_dir}"
            + (
                f", reuseport_port={fleet.reuseport_port}"
                if fleet.reuseport_port is not None
                else ""
            )
            + ")"
        )

    return _serve_until_signal(
        args, fleet, banner, "the fleet", reuseport_port=reuseport_port
    )


def _serve_until_signal(args, server, banner, drained, **start_kwargs) -> int:
    """Start *server*, serve until SIGINT/SIGTERM, then drain it.

    *server* is a :class:`~repro.service.SolveService` or a
    :class:`~repro.service.shard.LocalFleet`; *banner* renders the
    startup line from the bound address.
    """
    import asyncio
    import signal

    async def _run() -> None:
        host, port = await server.start(args.host, args.port, **start_kwargs)
        print(f"repro serve: {banner(host, port)}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        await stop.wait()
        print(f"repro serve: draining {drained} ...", flush=True)
        await server.stop(drain=True)

    with _maybe_tracing(args.trace_out):
        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - non-posix fallback
            pass
    return 0


def _cmd_bench(args) -> int:
    from repro.kernels.bench import BENCH_SOLVERS, run_bench

    unknown = [s for s in args.solvers or () if s not in BENCH_SOLVERS]
    if unknown:
        raise _Refusal(
            f"unknown bench solver(s): {', '.join(unknown)}; "
            f"choose from {', '.join(BENCH_SOLVERS)}"
        )
    try:
        path, results = run_bench(
            seed=args.seed,
            out=args.out,
            smoke=args.smoke,
            solvers=args.solvers,
            log=lambda line: print(line, file=sys.stderr),
        )
    except OSError as exc:
        raise _Refusal(f"cannot write {args.out}: {exc}")
    print(f"wrote {path} ({len(results)} cells)")
    return 0


def _cmd_sim(args) -> int:
    import json

    from repro.sim import (
        sim_params,
        sim_table,
        simulate,
        write_sim_manifest,
        write_trace,
    )

    if args.cores_spec is not None:
        from repro.hetero.platform import parse_cores_spec

        try:
            parse_cores_spec(args.cores_spec)
        except ValueError as exc:
            raise _Refusal(f"bad --cores-spec: {exc}")
    _policy(args)  # the window check serve makes; simulate() builds its own
    # The manifest and the trace header record exactly this dict, and
    # simulate() runs it, so bench-serve --replay can rebuild the run
    # from the trace file alone.
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
        theta=args.theta,
        reserve=args.reserve,
        deadline_check=not args.no_deadline_check,
        mk_m=args.mk_m,
        mk_k=args.mk_k,
    )
    arrivals, report = simulate(params)
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

    from repro.obs.runtime import format_slo_line
    from repro.service.loadgen import format_stats, run_replay, slo_results
    from repro.sim import load_trace, paired_summary, simulate

    try:
        header, entries = load_trace(args.replay)
    except FileNotFoundError:
        raise _Refusal(f"no such trace file: {args.replay}")
    except (ValueError, json.JSONDecodeError) as exc:
        raise _Refusal(f"cannot read trace {args.replay}: {exc}")
    try:
        _, report = simulate(header)
    except (KeyError, ValueError) as exc:
        raise _Refusal(
            f"trace {args.replay} is missing simulation parameters: {exc}"
        )
    if report.decision_digest() != header.get("decision_digest"):
        raise _Refusal(
            f"trace {args.replay} does not reproduce: the simulator's "
            "decision digest differs from the header's (edited trace, or "
            "the admission code changed since it was written)"
        )
    try:
        stats, outcomes = run_replay(
            args.host,
            args.port,
            entries,
            mode=args.replay_mode,
            speedup=args.speedup,
        )
    except (ConnectionError, OSError) as exc:
        raise _Refusal(f"cannot reach server at {args.host}:{args.port}: {exc}")
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
    if args.algorithm not in SOLVER_NAMES:
        raise _Refusal(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {', '.join(SOLVER_NAMES)}"
        )
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
        raise _Refusal(f"cannot reach server at {args.host}:{args.port}: {exc}")
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
        import numpy  # noqa: F401 - the seeded stream needs it
    except ImportError:
        raise _Refusal(
            "bench-serve --shards needs numpy (the seeded request "
            "stream is numpy-drawn)"
        )
    from repro.service.shard.bench import run_saturation

    report = run_saturation(
        shard_counts=args.shards,
        factors=args.factors,
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
    """Install a JSONL span sink for the body when *trace_out* is set.

    After the body completes, prints where the trace was written.
    """
    if trace_out is None:
        yield
        return
    from repro.obs import JsonlSink, tracing

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with JsonlSink(trace_out) as sink, tracing(sink):
        yield
    print(f"(trace written to {trace_out})")


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
        return args.handler(args)
    except KernelUnavailableError as exc:
        # Never fall back silently: a requested-but-missing backend is a
        # hard, one-line error (exit 2), both via --kernel and the env.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
