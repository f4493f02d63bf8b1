"""Run manifests: one JSON file per ``repro run`` describing the run.

A manifest pins down everything needed to reconstruct (or audit) a
results table: the code fingerprint, the resolved parameters and seed,
the cache outcome, the per-trial wall timings, and the aggregated solver
counters.  ``run_experiment`` writes one on every invocation — cache
hits included, so the provenance of a table you are looking at is always
one file away.

Manifests live under ``results/manifests/`` (override with the
``REPRO_MANIFEST_DIR`` environment variable) as
``<experiment>-<key12>.json`` where ``key12`` is the first 12 hex chars
of the run's cache key — the same content address the result cache uses,
so a manifest and its cache entry pair up by name.  Rerunning the same
(experiment, params, seed, code) overwrites the same manifest; writes
are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro._store import atomic_write_json

__all__ = [
    "MANIFEST_FORMAT",
    "default_manifest_dir",
    "load_manifest",
    "manifest_path",
    "write_manifest",
]

#: Bump on schema changes; ``load_manifest`` rejects unknown formats.
MANIFEST_FORMAT = 1


def default_manifest_dir() -> Path:
    """``$REPRO_MANIFEST_DIR`` if set, else ``results/manifests`` under cwd."""
    env = os.environ.get("REPRO_MANIFEST_DIR")
    if env:
        return Path(env)
    return Path("results") / "manifests"


def manifest_path(
    experiment: str, key: str, manifest_dir: Path | None = None
) -> Path:
    """Where the manifest for (*experiment*, cache *key*) lives."""
    directory = manifest_dir if manifest_dir is not None else default_manifest_dir()
    return directory / f"{experiment}-{key[:12]}.json"


def write_manifest(
    *,
    experiment: str,
    key: str,
    code: str,
    params: dict,
    seed: int | None,
    cache: str,
    jobs: int,
    wall_seconds: float,
    trial_seconds: list[tuple[str, float]],
    counters: dict,
    manifest_dir: Path | None = None,
) -> Path:
    """Write one run manifest and return its path.

    Parameters mirror the fields of :class:`repro.runner.RunMetrics`
    plus the cache identity (*key*, *code*); the caller passes them
    explicitly so this module stays import-independent of the runner.
    The active array kernel is recorded automatically so a table's
    provenance includes which backend produced it.
    """
    from repro.kernels import get_kernel

    path = manifest_path(experiment, key, manifest_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "format": MANIFEST_FORMAT,
        "experiment": experiment,
        "key": key,
        "code": code,
        "kernel": get_kernel().name,
        "params": params,
        "seed": seed,
        "cache": cache,
        "jobs": jobs,
        "wall_seconds": wall_seconds,
        "trials": len(trial_seconds),
        "trial_seconds": [[label, dur] for label, dur in trial_seconds],
        "counters": dict(counters),
        "created": time.time(),
    }
    atomic_write_json(path, entry, indent=2)
    return path


def load_manifest(path: str | Path) -> dict:
    """Read and validate one manifest; raises ``ValueError`` on mismatch."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path} is not a format-{MANIFEST_FORMAT} run manifest"
        )
    for field in ("experiment", "key", "cache", "trial_seconds", "counters"):
        if field not in data:
            raise ValueError(f"{path} is missing the {field!r} manifest field")
    return data
