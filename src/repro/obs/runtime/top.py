"""``repro top`` — a stdlib-only live dashboard over ``/metrics``.

Polls ``GET /metrics?format=json`` on a running ``repro serve`` and
renders a compact terminal frame: qps, admit/reject/shed rates,
latency quantiles, queue depth, energy rate, and SLO burn.  Rates are
derived client-side from the server's time-series ring (raw totals),
so a dropped poll skews nothing.

Pointed at a fleet router (``repro serve --shards N``), whose JSON
carries only the fleet section and the summed counters, it shows the
shards up and the summed solve and cache counters instead.

``render_frame`` is a pure function of the snapshot dict — tests feed
it canned payloads; only ``fetch_snapshot``/``run_top`` touch sockets.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Any, Callable

from repro.obs.runtime.timeseries import rate

__all__ = ["fetch_snapshot", "render_frame", "run_top", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"
_CLEAR = "\x1b[2J\x1b[H"


def fetch_snapshot(
    host: str, port: int, *, timeout: float = 5.0
) -> dict[str, Any]:
    """One ``/metrics?format=json`` poll; raises OSError on failure."""
    url = f"http://{host}:{port}/metrics?format=json"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode())


def sparkline(values: list[float], width: int = 32) -> str:
    """Right-aligned unicode sparkline of the most recent *width* values."""
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _BLOCKS[0] * len(tail)
    scale = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[min(scale, int(round(v / top * scale)))] for v in tail
    )


def _series_rates(samples: list[dict], key: str) -> list[float]:
    """Per-interval rates between consecutive samples of a raw total."""
    out = []
    for prev, cur in zip(samples, samples[1:]):
        out.append(rate([prev, cur], key))
    return out


def _fmt_rate(value: float) -> str:
    return f"{value:.1f}/s"


def _show(
    section: dict[str, Any], key: str, spec: str = "", unit: str = ""
) -> str:
    """``section[key]`` formatted with *spec* and *unit*; ``?`` if the
    payload lacks it."""
    value = section.get(key)
    return "?" if value is None else format(value, spec) + unit


def _counts(label: str, counters: dict[str, float], prefix: str) -> str:
    """Every counter named ``prefix<part>``, ``total`` first."""
    parts = sorted(
        (key[len(prefix):] for key in counters if key.startswith(prefix)),
        key=lambda part: (part != "total", part),
    )
    shown = "  ".join(f"{part}={counters[prefix + part]:.0f}" for part in parts)
    return f"{label:<10}{shown or '(none counted)'}"


def _fleet_frame(snapshot: dict[str, Any]) -> str:
    """The frame for a fleet router's payload: shards up and the summed
    solve and cache counters, which is all that payload carries."""
    fleet = snapshot["fleet"]
    counters = snapshot.get("counters", {})
    up = "?"
    if "shards" in snapshot:
        shards = snapshot["shards"]
        up = f"{sum(1 for shard in shards if shard.get('up'))}/{len(shards)}"
    flags = " [draining]" if fleet.get("draining") else ""
    return "\n".join(
        [
            f"repro top — fleet router  shards={_show(fleet, 'shards')}"
            f"  up={up}{flags}",
            _counts("solve", counters, "service.solve."),
            _counts("cache", counters, "service.cache."),
        ]
    )


def render_frame(snapshot: dict[str, Any]) -> str:
    """Render one dashboard frame from a ``/metrics?format=json`` dict.

    A fleet router's payload (the one with a ``fleet`` section) gets the
    fleet frame.  A field the payload lacks prints as ``?``, never as 0.
    """
    if "fleet" in snapshot:
        return _fleet_frame(snapshot)
    service = snapshot.get("service", {})
    requests = snapshot.get("requests", {})
    admission = snapshot.get("admission", {})
    cache = snapshot.get("cache", {})
    counters = snapshot.get("counters", {})
    runtime = snapshot.get("runtime", {})
    samples = runtime.get("timeseries", [])

    uptime = requests.get("uptime_s", 0.0)
    total = requests.get("total_requests", 0)
    qps = rate(samples, "requests")
    if qps == 0.0 and uptime > 0:
        qps = total / uptime  # cold ring: fall back to lifetime average
    known = samples or "total_requests" in requests
    qps_text = f"{qps:.1f}" if known else "?"

    lines = []
    flags = " [draining]" if service.get("draining") else ""
    lines.append(
        f"repro top — {service.get('host', '?')}:{service.get('port', '?')}"
        f"  up {_show(requests, 'uptime_s', '.1f', 's')}"
        f"  policy={admission.get('policy', '?')}"
        f"  workers={service.get('workers', '?')}{flags}"
    )
    lines.append(
        f"requests  total={_show(requests, 'total_requests')}  qps={qps_text}"
        f"  queue={_show(runtime, 'queue_depth')}"
        f"  util={_show(admission, 'utilisation', '.1%')}"
        f"  inflight={_show(admission, 'inflight_units', '.0f', 'u')}"
    )
    lines.append(
        f"solve     total={_show(counters, 'service.solve.total', '.0f')}"
        f"  admitted={_show(admission, 'admitted')}"
        f" ({_fmt_rate(rate(samples, 'admitted'))})"
        f"  rejected={_show(admission, 'rejected')}"
        f" ({_fmt_rate(rate(samples, 'rejected'))})"
        f"  shed={_show(admission, 'shed')}"
        f"  cache_hits={_show(cache, 'hits')}"
    )
    solve = requests.get("endpoints", {}).get("/solve", {})
    latency = solve.get("latency", {})
    lines.append(
        f"latency   /solve p50={_show(latency, 'p50_ms', '.1f', 'ms')}"
        f" p99={_show(latency, 'p99_ms', '.1f', 'ms')}"
        f"  n={_show(latency, 'count')}"
    )
    lines.append(
        f"energy    proxy={_show(runtime, 'energy_proxy_j', '.2f', 'J')}"
        f"  rate={rate(samples, 'energy_j'):.3f}J/s"
    )
    for row in runtime.get("slo", []):
        threshold = row.get("threshold_ms")
        extra = f" <{threshold:g}ms" if threshold is not None else ""
        verdict = "PASS" if row.get("ok") else "FAIL"
        lines.append(
            f"slo       {row.get('objective', '?')}{extra}"
            f"  {row.get('attainment', 1.0) * 100.0:.2f}%"
            f" of {row.get('target', 0.0) * 100.0:g}%"
            f"  burn={row.get('burn_rate', 0.0):.2f}"
            f"  n={row.get('samples', 0)}  {verdict}"
        )
    if len(samples) >= 2:
        lines.append(f"qps  {sparkline(_series_rates(samples, 'requests'))}")
        lines.append(f"rej  {sparkline(_series_rates(samples, 'rejected'))}")
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 1.0,
    once: bool = False,
    frames: int | None = None,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll-and-render loop; ``once`` prints a single frame (CI mode).

    Raises OSError (connection refused, timeout) to the caller — the
    CLI turns that into a one-line exit-2 error.
    """
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    shown = 0
    while True:
        frame = render_frame(fetch_snapshot(host, port))
        if once or frames is not None:
            out(frame)
        else:  # pragma: no cover - interactive path
            out(_CLEAR + frame)
        shown += 1
        if once or (frames is not None and shown >= frames):
            return 0
        sleep(interval)
