"""The serve workload: two clients, one group, closed-loop rounds.

A ``repro-serve run`` daemon runs in its own process on TCP loopback
(ephemeral port and ephemeral ``/metrics`` port, announced through the
endpoints file).  Two :class:`~repro.serve.client.ServeClient` sessions
in this process join one group of capacity 2 and arrive at every round
together, each waiting for its release before the next round (a closed
loop with two clients).

A warm-up group of 1000 rounds sizes the measured group so that it lasts about
the requested time; the measured group must end ``done`` with every
round completed.  Traced runs host the daemon through ``serve_host.py``
instead, which installs the daemon-side wrappers before starting it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Any, Callable

from common import (
    OUT,
    ROOT,
    Window,
    child_env,
    clock,
    cpu_self_s,
    proc_cpu_s,
    proc_peak_rss_mb,
)
from tracing import Patches, Recorder

CAPACITY = 2
WARM_ROUNDS = 1000
START_TIMEOUT_S = 60.0


class Daemon:
    """One daemon child: spawn, find its endpoints, scrape, stop."""

    def __init__(self, tag: str, traced: bool = False) -> None:
        stem = ROOT / OUT / f"serve-{os.getpid()}-{tag}"
        self.endpoints_file = stem.with_suffix(".endpoints.json")
        self.layers_file = stem.with_suffix(".layers.json") if traced else None
        self.proc: subprocess.Popen | None = None
        self.address = ""
        self.obs = ""

    def start(self) -> "Daemon":
        self.endpoints_file.unlink(missing_ok=True)
        if self.layers_file is None:
            cmd = [sys.executable, "-m", "repro.serve.cli", "run",
                   "--host", "127.0.0.1", "--port", "0", "--obs-port", "0",
                   "--endpoints-file", str(self.endpoints_file)]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_host.py"),
                   "--endpoints-file", str(self.endpoints_file),
                   "--layers-out", str(self.layers_file)]
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                     stdout=subprocess.DEVNULL)
        deadline = clock() + START_TIMEOUT_S
        while not self.endpoints_file.exists():
            if self.proc.poll() is not None or clock() > deadline:
                self.stop()
                raise RuntimeError("serve daemon did not come up")
            time.sleep(0.002)
        endpoints = json.loads(self.endpoints_file.read_text())
        self.address, self.obs = endpoints["address"], endpoints["obs"]
        return self

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.address[len("tcp://"):].rpartition(":")
        return host, int(port)

    def scrape(self, route: str) -> str:
        with urllib.request.urlopen(self.obs + route, timeout=10) as reply:
            return reply.read().decode()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.endpoints_file.unlink(missing_ok=True)

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def _names(seed: int) -> tuple[int, int, str]:
    """Client ids and group name, from the seed."""
    base = 1 + 2 * (seed % 40_000)
    return base, base + 1, f"pair-{seed}"


async def _pair(daemon: Daemon, seed: int, group: str, barriers: int):
    from repro.serve.client import ServeClient

    host, port = daemon.host_port()
    first, second, _ = _names(seed)
    a = await ServeClient(first, host, port).connect()
    b = await ServeClient(second, host, port).connect()
    await a.create(group, CAPACITY, barriers)
    await a.join(group)
    await b.join(group)
    return a, b


def setup_probe(workload: str, seed: int, ready: Callable[[], None]) -> None:
    """Daemon spawn until its endpoints file exists, then connect,
    create and join; ``ready`` marks the first measurable moment."""

    async def probe(daemon: Daemon) -> None:
        a, b = await _pair(daemon, seed, _names(seed)[2], 1)
        ready()
        await a.close()
        await b.close()

    with Daemon("probe") as daemon:
        asyncio.run(probe(daemon))


def install(patches: Patches) -> None:
    """Client-side wrappers (the daemon side lives in serve_host.py)."""
    from repro.net import frames
    from repro.serve import client

    patches.wrap(frames.Message, "to_bytes", "net.frames.encode")
    patches.wrap(client, "encode_frame", "net.frames.encode")
    patches.wrap(frames.Message, "from_bytes", "net.frames.decode")
    patches.wrap(client.ServeClient, "arrive", "serve.client.arrive")


async def _rounds(group: str, a: Any, b: Any, rounds: int, window: Window,
                  recorder: Recorder | None) -> None:
    from repro.serve.client import ServeClientError, ServeTimeout

    samples = window.latencies_ms

    async def arrive(client: Any, r: int) -> str:
        t0 = clock()
        outcome = await client.arrive(group, r)
        samples.append((clock() - t0) * 1e3)
        return outcome

    start = clock()
    for r in range(rounds):
        if recorder is not None:
            recorder.request = r
        window.attempted += 2
        try:
            outcomes = await asyncio.gather(arrive(a, r), arrive(b, r))
        except (ServeClientError, ServeTimeout) as exc:
            window.fail(f"round {r}: {exc}")
            break
        bad = [o for o in outcomes if o != "released"]
        for outcome in bad:
            window.fail(f"round {r}: arrive returned {outcome}")
        if bad:
            break
        window.barriers += 1
    window.wall_s = clock() - start


async def _session(daemon: Daemon, seed: int, seconds: float, window: Window,
                   recorder: Recorder | None) -> None:
    _, _, group = _names(seed)
    warm = f"{group}-warm"
    a, b = await _pair(daemon, seed, warm, WARM_ROUNDS)
    warmup = Window()
    await _rounds(warm, a, b, WARM_ROUNDS, warmup, None)
    window.attempted += warmup.attempted
    for error in warmup.errors:
        window.fail(f"warm-up {error}")
    rate = warmup.barriers / max(warmup.wall_s, 1e-6)
    rounds = max(1, round(rate * seconds))
    await a.create(group, CAPACITY, rounds)
    await a.join(group)
    await b.join(group)
    pid = daemon.proc.pid
    before = _daemon_view(daemon)
    resends = a.stats["resends"] + b.stats["resends"]
    cpu_client, cpu_daemon = cpu_self_s(), proc_cpu_s(pid)
    if recorder is None:
        await _rounds(group, a, b, rounds, window, None)
    else:
        with Patches(recorder) as patches:
            install(patches)
            await _rounds(group, a, b, rounds, window, recorder)
    window.layers["client_cpu_s"] = cpu_self_s() - cpu_client
    window.layers["daemon_cpu_s"] = proc_cpu_s(pid) - cpu_daemon
    window.cpu_s = window.layers["client_cpu_s"] + window.layers["daemon_cpu_s"]
    window.layers["client_resends"] = a.stats["resends"] + b.stats["resends"] - resends
    await a.close()
    await b.close()
    # Output checks, from the daemon's own view.
    groups = json.loads(daemon.scrape("/groups"))["groups"]
    state = next((g for g in groups if g["name"] == group), None)
    if state is None or not state["done"] or state["stats"]["completions"] != rounds:
        window.fail(f"group {group} did not end done after {rounds} rounds: {state}")
    after = _daemon_view(daemon)
    window.layers["daemon_delta"] = {k: after[k] - before.get(k, 0) for k in after}
    for key in ("quarantined", "rejects"):
        if after[key]:
            window.fail(f"daemon {key}={after[key]}")


def _daemon_view(daemon: Daemon) -> dict[str, float]:
    """The daemon's counters (``/health``) and latency histogram
    buckets (``/metrics``, keyed by upper bound) right now."""
    from repro.obs.metrics import parse_prometheus_text

    view: dict[str, float] = dict(json.loads(daemon.scrape("/health"))["stats"])
    prefix = "serve_barrier_latency_seconds_bucket"
    for key, value in parse_prometheus_text(daemon.scrape("/metrics")).items():
        if key.startswith(prefix):
            view["le=" + key.split('le="', 1)[1].split('"', 1)[0]] = value
    return view


def measure(workload: str, seed: int, seconds: float,
            recorder: Recorder | None = None) -> tuple[Window, dict[int, str]]:
    window = Window()
    with Daemon("run", traced=recorder is not None) as daemon:
        try:
            asyncio.run(_session(daemon, seed, seconds, window, recorder))
        except (OSError, RuntimeError) as exc:
            window.fail(f"serve session: {exc}")
        window.layers["child_peak_rss_mb"] = proc_peak_rss_mb(daemon.proc.pid)
    if daemon.layers_file is not None:
        if daemon.layers_file.exists():
            window.layers["daemon_layers"] = json.loads(daemon.layers_file.read_text())
            daemon.layers_file.unlink()
        else:
            window.fail("traced daemon wrote no layer totals")
    return window, {}


def _histogram_p50_ms(view: dict[str, float]) -> float:
    """Median of ``serve_barrier_latency_seconds`` from cumulative
    bucket counts (linear within the bucket that holds it)."""
    buckets = sorted((float(k[3:]), v) for k, v in view.items() if k.startswith("le="))
    if not buckets or not buckets[-1][1]:
        return 0.0
    half = buckets[-1][1] / 2.0
    low_bound, low_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= half:
            if bound == float("inf"):
                break
            share = (half - low_count) / (count - low_count)
            return (low_bound + share * (bound - low_bound)) * 1e3
        low_bound, low_count = bound, count
    return low_bound * 1e3


def layer_metrics(window: Window, recorder: Recorder) -> dict[str, float]:
    """Raw per-layer figures of one traced window: counts and seconds
    summed over the window (``run.py`` divides them per barrier or per
    second of wall), ratios as they are."""
    from common import percentile

    out: dict[str, float] = {}
    for layer in ("net.frames.encode", "net.frames.decode"):
        calls, busy, _ = recorder.layer(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_frac"] = busy
    delta = window.layers.get("daemon_delta", {})
    for key in ("frames", "rejects", "shed_frames", "quarantined"):
        out[f"serve.daemon.{key}"] = delta.get(key, 0)
    client_p50 = percentile(window.latencies_ms, 50) if window.latencies_ms else 0.0
    out["serve.daemon.latency_frac"] = (
        _histogram_p50_ms(delta) / client_p50 if client_p50 else 0.0
    )
    # The traced daemon's totals cover its whole life: scale the
    # warm-up group's rounds out.
    daemon = window.layers.get("daemon_layers", {})
    share = window.barriers / (window.barriers + WARM_ROUNDS)
    for layer in ("serve.daemon.decode", "serve.daemon.dedup",
                  "serve.groups.offer", "serve.groups.dispatch"):
        calls, busy = daemon.get(layer, (0, 0.0))[:2]
        out[f"{layer}.calls"] = calls * share
        out[f"{layer}.busy_frac"] = busy * share
    out["serve.client.resends"] = window.layers.get("client_resends", 0)
    out["serve.client.arrive.wait_frac"] = recorder.layer("serve.client.arrive")[2]
    out["serve.client.cpu_frac"] = window.layers.get("client_cpu_s", 0.0)
    out["serve.daemon.cpu_frac"] = window.layers.get("daemon_cpu_s", 0.0)
    return out
