#!/usr/bin/env python3
"""End-to-end smoke checks of the ``repro`` CLI, for CI and local runs.

    python ci/smoke.py [scenario ...]   # PYTHONPATH=src unless installed

Scenarios: run, verify, service, sim, hetero, shard; none named runs all.
Each starts from an empty ``smoke-out/<scenario>/``, its working, cache
(``cache/``) and manifest (``manifests/``) directory, so a run writes
nothing else into the checkout.  A failed check prints ``FAIL
<scenario>: <check>``, and the script then exits 1.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import repro
from repro.service.shard.bench import _invariant

OUT = Path(__file__).resolve().parents[1] / "smoke-out"
SRC = Path(repro.__file__).resolve().parents[1]

#: Admission constants under which only the deadline check binds, so a
#: replayed trace pairs its decisions one to one with the simulation's.
PINNED = "--capacity 1000000000 --rate 20000"
TRACE_SIM = f"sim --family bursty --arrivals 120 --seed 0 {PINNED}"
MK_SIM = (
    "sim --family heavy --arrivals 200 --seed 0 --cores-spec lp:2,hp:1 "
    "--policy mk --mk-m 2 --mk-k 4"
)

#: The files each scenario leaves for CI to upload; each must be non-empty.
ARTIFACTS = {
    "run": "smoke-trace.jsonl manifests",
    "verify": "verify-trace.jsonl",
    "service": "serve.log bench.log top.txt access.jsonl service-trace.jsonl "
    "metrics.prom metrics.json",
    "sim": "trace.jsonl sim.json replay.json serve.log access.jsonl "
    "replay-trace.jsonl metrics.prom top.txt manifests",
    "hetero": "het-inst.json hetero-solve.log hsim1.json hsim2.json "
    "python-only/het-inst.json python-only/hetero-solve.log "
    "python-only/hsim1.json python-only/hsim2.json",
    "shard": "serve.log bench.log top.txt saturation.log health.json "
    "metrics.prom metrics.json results/BENCH_serve.json",
}


class SmokeFailure(Exception):
    """A failed check; the message names it."""


def check(ok, what: str, detail=None) -> None:
    if not ok:
        raise SmokeFailure(what if detail is None else f"{what}: {detail}")


def http_get(port: int, path: str) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as reply:
        return reply.read().decode()


def post_raw(port: int, body: dict) -> bytes:
    """``POST /solve`` of *body*; the raw response body."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/solve",
        json.dumps(body).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.read()


def miss_then_hit(port: int, name: str) -> list[dict]:
    """One new body POSTed twice: solved, then answered from a cache
    with the same solution text.  Returns both replies, decoded."""
    from repro.service.loadgen import make_bodies

    twice = make_bodies(1, 1, n_min=5, n_max=5)[0]
    twice["instance"]["tasks"][0]["name"] = name
    replies = [post_raw(port, twice) for _ in range(2)]
    caches = [json.loads(raw)["cache"] for raw in replies]
    check(caches == ["miss", "hit"], "a repeated body misses, then hits", caches)
    solutions = [raw.partition(b'"solution": ')[2] for raw in replies]
    check(solutions[0] == solutions[1], "the hit repeats the solution text", replies)
    return [json.loads(raw) for raw in replies]


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the process group *proc* leads, then reap *proc*."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


class Workspace:
    """One scenario's directory and the environment its commands see."""

    def __init__(self, directory: Path, *, block_numpy: bool = False) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        path = [str(SRC)]
        if block_numpy:
            # A numpy that fails to import stands in for a missing one.
            blocker = directory / "blocked" / "numpy"
            blocker.mkdir(parents=True)
            (blocker / "__init__.py").write_text('raise ImportError("numpy blocked")\n')
            path.insert(0, str(blocker.parent))
        self.dir = directory
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path),
            REPRO_CACHE_DIR=str(directory / "cache"),
            REPRO_MANIFEST_DIR=str(directory / "manifests"),
        )

    def repro(self, command: str, *, out: str | None = None) -> str:
        """Run ``repro COMMAND``, which must exit 0; echo, save to *out*."""
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command.split()],
            cwd=self.dir, env=self.env, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if out is not None:
            (self.dir / out).write_text(proc.stdout)
        check(proc.returncode == 0, f"repro {command} exits 0", proc.returncode)
        return proc.stdout

    def repro_json(self, command: str, out: str) -> dict:
        """``repro COMMAND --json``; its one JSON line is saved to *out*."""
        text = self.repro(f"{command} --json")
        lines = [line for line in text.splitlines() if line.startswith("{")]
        check(len(lines) == 1, f"repro {command} prints one JSON line", lines)
        (self.dir / out).write_text(lines[0] + "\n")
        return json.loads(lines[0])

    def start_server(self, flags: str, log: Path) -> tuple[subprocess.Popen, int]:
        """Start ``repro serve FLAGS`` on a free port, logging to *log*.

        The server leads its own process group, so ``os.killpg`` on its
        pid reaches its pool workers too.  Returns once ``/healthz``
        answers; on failure the whole group is killed.
        """
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with open(log, "w") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", f"--port={port}"]
                + flags.split(),
                cwd=self.dir, env=self.env, stdout=sink, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            for _ in range(50):
                check(proc.poll() is None, "repro serve stays up", log.read_text())
                with contextlib.suppress(OSError):
                    http_get(port, "/healthz")
                    return proc, port
                time.sleep(0.2)
            raise SmokeFailure("/healthz answers within 10 s")
        except BaseException:
            kill_group(proc)
            raise

    @contextlib.contextmanager
    def serve(self, flags: str):
        """``repro serve FLAGS`` on a free port; yields it once healthy.

        On leaving, SIGTERM drains the server: it must exit within 10 s
        and leave no traceback in serve.log.
        """
        log = self.dir / "serve.log"
        proc, port = self.start_server(flags, log)
        try:
            yield port
        except BaseException:
            kill_group(proc)
            raise
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            kill_group(proc)
            raise SmokeFailure("server exits within 10 s of SIGTERM")
        print(log.read_text(), end="")
        check("Traceback" not in log.read_text(), "no traceback in serve.log")

    def scrape(self, port: int) -> tuple[str, dict]:
        """``/metrics`` as text and JSON, saved to metrics.prom/.json."""
        text = http_get(port, "/metrics")
        (self.dir / "metrics.prom").write_text(text)
        found = re.search(r"^repro_solve_requests_total\{", text, re.M)
        check(found, "/metrics has repro_solve_requests_total")
        payload = http_get(port, "/metrics?format=json")
        (self.dir / "metrics.json").write_text(payload)
        return text, json.loads(payload)

    def jsonl(self, name: str) -> list[dict]:
        return [json.loads(line) for line in (self.dir / name).open()]


def slo_lines(text: str, *, passing: bool) -> None:
    """Exactly two ``SLO`` summary lines; all PASS when *passing*."""
    lines = [line for line in text.splitlines() if line.startswith("SLO ")]
    check(len(lines) == 2, "two SLO lines", lines)
    if passing:
        check(not any(line.endswith(" FAIL") for line in lines), "SLOs pass", lines)


def bench(ws: Workspace, port: int) -> None:
    """Two seeded passes: pass 2 hits the content cache, SLOs pass."""
    load = f"bench-serve --port {port} --requests 200 --seed 0"
    text = ws.repro(load, out="bench.log")
    check(re.search(r"^pass 2:.*cache_hits=[1-9]", text, re.M), "pass 2 hits the cache")
    slo_lines(text, passing=True)


def series(text: str, prefix: str) -> float:
    """The sum of the text exposition's samples whose key starts with *prefix*."""
    return sum(map(float, re.findall(rf"^{re.escape(prefix)}\S* (\S+)$", text, re.M)))


def solve_total(counters: dict) -> float:
    """``service.solve.total``, once its parts are checked to add up to it."""
    invariant = _invariant(counters)
    check(invariant["holds"], "solve.total is the sum of its parts", invariant)
    return invariant["solve_total"]


def sim_twice(ws: Workspace, command: str, prefix: str) -> dict:
    """``repro sim`` twice: identical decision digests and summaries."""
    first = ws.repro_json(command, f"{prefix}1.json")
    second = ws.repro_json(command, f"{prefix}2.json")
    check(first["decision_digest"] == second["decision_digest"], "digest reproduces")
    check(first == second, "sim summary reproduces")
    return first


def replay(ws: Workspace, port: int, out: str, mode: str = "") -> None:
    """``bench-serve --replay trace.jsonl``: every arrival is answered.

    The sequential default pairs decisions one to one, so the counts
    and every decision match the sim's; a timed replay (*mode*) need not
    match decisions but must see no transport or 5xx errors.
    """
    command = f"bench-serve --port {port} --replay trace.jsonl {mode}"
    payload = ws.repro_json(command, out)
    sim, served = (dict(zip(payload["columns"], payload[k])) for k in ("sim", "served"))
    n = sim["offered"]
    check(served["offered"] == n, "replay answers every arrival", (sim, served))
    if mode:
        loadgen = payload["loadgen"]
        errors = loadgen["transport_errors"], loadgen["server_errors"]
        check(errors == (0, 0), "timed replay has no transport or 5xx errors", errors)
        return
    for key in ("accepted", "rejected"):
        check(served[key] == sim[key], f"replay {key} count matches", (sim, served))
    matched = f"decisions matched: {n}/{n}"
    check(any(matched in note for note in payload["notes"]), matched, payload["notes"])


def run(ws: Workspace) -> None:
    """``run all --quick --jobs 2``: cold and traced, then all cache hits."""
    ws.repro("run all --quick --jobs 2 --timings --trace-out smoke-trace.jsonl")
    warm = ws.repro("run all --quick --jobs 2 --log-json", out="warm.txt")
    listing = ws.repro("list", out="experiments.txt")
    records = [json.loads(line) for line in warm.splitlines() if line.startswith("{")]
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    logged = [record["experiment"] for record in records]
    check(logged == names, "the warm rerun logs every experiment", (logged, names))
    misses = [record["experiment"] for record in records if record["cache"] != "hit"]
    check(not misses, "the warm rerun hits the cache", misses)
    ws.repro("stats smoke-trace.jsonl")


def verify(ws: Workspace) -> None:
    """Differential solver fuzzing at the smoke budget, traced."""
    ws.repro("verify --quick --seed 0 --trace-out verify-trace.jsonl")
    ws.repro("stats verify-trace.jsonl")


def service(ws: Workspace) -> None:
    """One server under seeded load: cache, SLOs, venues, bookkeeping."""
    from repro.service.loadgen import make_bodies
    from repro.service.models import INLINE_UNITS, parse_solve_request

    logs = "--access-log access.jsonl --trace-out service-trace.jsonl"
    with ws.serve(f"--workers 2 {logs}") as port:
        bench(ws, port)
        ws.repro(f"top --port {port} --once", out="top.txt")
        # One pool-bound request: greedy n = 20 is above the inline bound.
        body = make_bodies(0, 1, n_min=20, n_max=20)[0]
        units = parse_solve_request(body, "ci").cost_units
        check(units > INLINE_UNITS, "the n = 20 body is not inline", units)
        solved = json.loads(post_raw(port, body))
        check(solved["status"] == "done", "the pool-bound solve is done", solved)
        text, payload = ws.scrape(port)
        # Sent after the scrape, so the counts above stay those of the load.
        miss_then_hit(port, "smoke-twice")
    counters, runtime = payload["counters"], payload["runtime"]
    total = solve_total(counters)
    check(total == 401, "solve.total counts all 401 requests", total)
    check(runtime["slo"] and runtime["timeseries"], "runtime SLOs and time series")
    # Both expositions render from one registry: the /solve text series
    # equal the JSON requests section.
    solve = payload["requests"]["endpoints"]["/solve"]
    count = series(text, 'repro_request_duration_seconds_count{endpoint="/solve"}')
    check(count == solve["latency"]["count"], "text and JSON latency counts agree")
    statuses = series(text, 'repro_http_requests_total{endpoint="/solve",')
    check(statuses == sum(solve["statuses"].values()), "text and JSON statuses agree")
    # Every admitted solve took one venue: bench-serve's greedy 6-12 task
    # bodies are solved inline, the n = 20 body on the pool.
    inline = counters.get("service.solve.inline", 0)
    pooled = counters.get("service.batch.requests", 0)
    venues = inline, pooled, counters["service.solve.admitted"]
    check(inline + pooled == venues[2], "inline + pool = admitted", venues)
    check(inline > 0 and pooled >= 1, "both venues served requests", venues)
    access_ids = {r["req_id"] for r in ws.jsonl("access.jsonl") if "req_id" in r}
    spans = ws.jsonl("service-trace.jsonl")
    span_ids = {span.get("attrs", {}).get("req_id") for span in spans}
    check(access_ids, "the access log carries request ids")
    missing = access_ids - span_ids
    check(not missing, "every request id reaches the span trace", missing)
    # SIGKILL only the main process of one more server: its pool
    # workers must notice and exit, leaving the group empty.
    proc, _ = ws.start_server("--workers 2", ws.dir / "orphan.log")
    proc.kill()
    proc.wait()
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            kill_group(proc)
            raise SmokeFailure("no pool worker outlives a SIGKILLed server")
        time.sleep(0.1)


def sim(ws: Workspace) -> None:
    """Seeded simulation: determinism, SLO lines, paired replay."""
    family = "sim --family bursty --arrivals 200 --seed 0"
    sim_twice(ws, family, "sim")
    slo_lines(ws.repro(family, out="sim-table.log"), passing=False)
    ws.repro_json(f"{TRACE_SIM} --emit-trace trace.jsonl", "sim.json")
    logs = "--access-log access.jsonl --trace-out replay-trace.jsonl"
    with ws.serve(f"--workers 2 {PINNED} {logs}") as port:
        replay(ws, port, "replay.json")
        ws.repro(f"top --port {port} --once", out="top.txt")
        ws.scrape(port)


def typed_platform(ws: Workspace) -> tuple[str, str]:
    """Typed solves on lp:2,hp:1 and a deterministic (m,k) simulation.

    Returns the solve output and the simulation's decision digest.
    """
    solve = "solve het-inst.json --platform lp:2,hp:1"
    text = ws.repro(solve) + ws.repro(f"{solve} --algorithm exhaustive_hetero")
    (ws.dir / "hetero-solve.log").write_text(text)
    costs = [
        re.search(rf"^{name} on lp:2,hp:1: cost=(\S+) ", text, re.M)
        for name in ("typed_ltf", "exhaustive_hetero")
    ]
    check(all(costs), "repro solve prints the typed_ltf and oracle lines", text)
    check(float(costs[0][1]) >= float(costs[1][1]), "typed_ltf costs >= the oracle")
    summary = sim_twice(ws, MK_SIM, "hsim")
    params = summary["params"]
    check(params["cores_spec"] == "lp:2,hp:1", "the sim records cores_spec", params)
    check((params["mk_m"], params["mk_k"]) == (2, 4), "the sim records (m,k)", params)
    return text, summary["decision_digest"]


def hetero(ws: Workspace) -> None:
    """Typed platforms and (m,k) admission, with numpy and without."""
    ws.repro("generate --n 6 --load 1.3 --seed 0 het-inst.json")
    with_numpy = typed_platform(ws)
    bare = Workspace(ws.dir / "python-only", block_numpy=True)
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=bare.env, capture_output=True
    )
    check(probe.returncode != 0, "import numpy fails in the python-only half")
    shutil.copy(ws.dir / "het-inst.json", bare.dir)
    check(typed_platform(bare) == with_numpy, "the python-only half agrees")


def shard(ws: Workspace) -> None:
    """A 2-shard fleet: shared cache, replay, fleet invariant, saturation."""
    with ws.serve(f"--shards 2 --workers 2 {PINNED}") as port:
        (ws.dir / "health.json").write_text(http_get(port, "/healthz"))
        health = json.loads((ws.dir / "health.json").read_text())
        summary = health["role"], len(health["shards"]), health["status"]
        check(summary == ("router", 2, "ok"), "/healthz: router, 2 shards, ok", health)
        bench(ws, port)
        ws.repro_json(f"{TRACE_SIM} --emit-trace trace.jsonl", "sim.json")
        replay(ws, port, "replay.json")
        replay(ws, port, "timed.json", "--replay-mode timed --speedup 8")
        top = ws.repro(f"top --port {port} --once", out="top.txt")
        text, payload = ws.scrape(port)
        # After the scrape, as in the service scenario.  Round-robin sends
        # the copy to the other shard, which reads the shared disk tier.
        replies = miss_then_hit(port, "smoke-twice-fleet")
        shards = [reply["id"].partition("-")[0] for reply in replies]
        check(shards[0] != shards[1], "the copy lands on the other shard", shards)
    for shard_id in "01":
        for needle in (f'repro_solve_requests_total{{shard="{shard_id}"',
                       f'repro_shard_up{{shard="{shard_id}"}} 1'):
            check(needle in text, f"the merged /metrics has {needle}")
    check('outcome="disk_hit"' in text, "a shard hit the shared disk cache")
    # The router reads its shards directly: its own /healthz, /metrics
    # and top polls are no shard requests, and nothing else scrapes a shard.
    scraped = re.findall(r'^repro_http_requests_total\{shard="\d+",endpoint="/metrics"',
                         text, re.M)
    check(not scraped, "router scrapes are not shard /metrics requests", scraped)
    total = solve_total(payload["counters"])
    # top polled just before the scrape, so it shows the same total.
    shown = re.search(r"^solve +total=(\d+)", top, re.M)
    check(shown and int(shown[1]) == total > 0, "top shows the fleet's solve total", top)
    check(total >= 400, "fleet solve.total counts the load", total)
    per_shard = [s["counters"].get("service.solve.total", 0) for s in payload["shards"]]
    check(sum(per_shard) == total, "shard totals add up", (per_shard, total))
    check(all(per_shard), "every shard served requests", per_shard)
    sweep = ws.repro(
        "bench-serve --shards 1,2 --factors 0.5,2 --duration 2 "
        "--out results/BENCH_serve.json",
        out="saturation.log",
    )
    ran = re.search(r"^saturation shards=2 factor=2 ", sweep, re.M)
    check(ran, "the sweep runs 2 shards at 2x load")
    points = json.loads((ws.dir / "results/BENCH_serve.json").read_text())["points"]
    check(all(p["invariant"]["holds"] for p in points), "invariant at every point")
    point = next((p for p in points if (p["shards"], p["factor"]) == (2, 2.0)), None)
    check(point, "the report has the shards=2 factor=2 point")
    # Past saturation, rejection rises while p99 stays inside its SLO.
    check(point["reject_rate"] > 0, "2 shards at 2x load reject", point)
    latency = next(slo for slo in point["slo"] if slo["objective"] == "latency_p99")
    check(latency["ok"], "2 shards at 2x load keep the p99 SLO", latency)


SCENARIOS = {f.__name__: f for f in (run, verify, service, sim, hetero, shard)}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario {' '.join(unknown)}; choose from "
              f"{' '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    failed = []
    for name in argv or SCENARIOS:
        print(f"== {name}", flush=True)
        started = time.monotonic()
        ws = Workspace(OUT / name)
        try:
            SCENARIOS[name](ws)
            for artifact in ARTIFACTS[name].split():
                path = ws.dir / artifact
                full = path.is_dir() and any(path.iterdir()) or (
                    path.is_file() and path.stat().st_size > 0
                )
                check(full, f"{name}/{artifact} exists and is not empty")
        except SmokeFailure as exc:
            print(f"FAIL {name}: {exc}", flush=True)
            failed.append(name)
        else:
            print(f"ok {name} ({time.monotonic() - started:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
