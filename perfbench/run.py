"""One benchmark for the offline and served paths of ``repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads (inputs are drawn from ``--seed``; see ``BENCHMARK.json``):

* ``solve``  - in-process solves, ``solver -> kernel op``;
* ``runner`` - quick experiments through ``repro.runner`` on a 2-worker
  pool, ``runner -> pool -> trial -> solver``;
* ``serve``  - ``repro bench-serve``'s first pass against one server, every
  request a cache miss,
  ``HTTP -> parse -> admission -> batch -> pool -> worker solve``;
* ``fleet``  - its second pass against a router over two shards, every
  request a memory-cache hit, ``router -> shard -> cache``.

The latency tail is reported at p95: on a shared machine p99 moved by
up to a third between runs of the same code, too much to hold a bound.

Each run sets the workload up :data:`SETUPS` times (reporting the
median as ``setup_s``), measures a closed loop for ``--seconds``,
checks the outputs, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics, measured untraced;
with ``--trace 1`` it reports the per-layer metrics of a traced run.

The program is run from source (``src/``); the benchmark writes only
under ``.perfbench_work/`` in the checkout and removes it on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("solve", "runner", "serve", "fleet")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11



def _args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _workload(name: str, seed: int, work: Path):
    if name in ("solve", "runner"):
        import offline

        if name == "solve":
            return offline.SolveWorkload(seed, SRC)
        return offline.RunnerWorkload(seed)
    import served

    if name == "serve":
        return served.ServeWorkload(seed, work)
    return served.FleetWorkload(seed, work)


def _run(args, work: Path) -> int:
    from common import PROBE_REF_S, Steal, one_cpu, probe, probe_scale, summarise

    workload = _workload(args.workload, args.seed, work)
    setups = []
    try:
        steal = Steal()
        for attempt in range(SETUPS):
            if attempt:
                workload.close()
            # Set-up starts processes, so it is probed on every CPU.
            before = probe(every_cpu=True)
            start = time.perf_counter()
            workload.setup()
            seconds = time.perf_counter() - start
            speed = (before + probe(every_cpu=True)) / 2
            setups.append(seconds * PROBE_REF_S / speed)
        setup_kept = 1 - steal.share()
        with one_cpu(not workload.every_cpu):
            outcome = workload.measure(args.seconds, bool(args.trace))
        problems = outcome.problems + workload.check()
    finally:
        workload.shutdown()

    if not outcome.latencies:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    if args.trace:
        # Per-layer times are scaled like the end-to-end ones.
        scale = probe_scale(outcome)
        values = {
            name: value * scale if units.get(name) == "ms" else value
            for name, value in outcome.layers.items()
        }
    else:
        values = summarise(outcome)
        values["setup_s"] = statistics.median(setups) * setup_kept
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(outcome.latencies)} ops in {outcome.elapsed:.2f} s, "
        f"{outcome.failed} failed, median probe "
        f"{1e3 * statistics.median(p for _, p in outcome.probes):.3f} ms, "
        f"{100 * outcome.stolen:.1f}% stolen, setups "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " s"
    )
    for problem in problems[:20]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # Keep the program's caches and manifests inside the checkout, and
    # let the kernel default apply regardless of the caller's shell.
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_MANIFEST_DIR"] = str(work / "manifests")
    os.environ.pop("REPRO_KERNEL", None)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
