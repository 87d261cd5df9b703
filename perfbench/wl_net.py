"""The net workloads: back-to-back seeded 16-node tree-barrier jobs.

``net_tree`` runs fault-free over Unix sockets; ``net_faults`` runs on
the in-memory transport under a seeded plan of three crash-restarts, one
in each of three disjoint round windows, and 5% loss, duplication,
reordering and delay; ``net_faults_unix`` runs the ``net_faults`` jobs
over Unix sockets.  ``net_faults_overlap`` draws its three crash-restarts
anywhere in rounds [1, 19), so two of them can fire in the same round:
there the digest depends on message timing (the detect-order race, see
NOTES.md) and its replay and pin checks can fail.  Every job runs the shipped
defaults (``Timing()``, ``defense=True``, the default tracer); the only
benchmark-owned piece is the root's tracer, a
:func:`~common.stamping_tracer` subclass that stamps each round's wall
time and records the same events as the default one.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from common import Window, clock, cpu_self_s, percentile, stamping_tracer
from tracing import Patches, Recorder

NODES = 16
ARITY = 4
BARRIERS = 20
#: net_faults_overlap: crash-restarts per job, drawn in rounds [1, 19).
CRASHES = 3
#: net_faults: one crash-restart drawn in each window.  A crash fires on
#: entering round ceil(when), so the three fire in distinct rounds.
CRASH_WINDOWS = ((1, 6), (7, 12), (13, 18))
LINK_RATES = {"loss": 0.05, "duplication": 0.05, "reorder": 0.05, "delay": 0.05}
#: Event-loop lag probe period (traced runs).
PROBE_S = 0.005


def job(workload: str, seed: int, index: int, tracer_factory: Any = None):
    """The ``(NetConfig, FaultPlan | None)`` of job ``index``."""
    from repro.chaos.campaign import derive_seed
    from repro.chaos.plan import FaultPlan, LinkPlan
    from repro.net.runtime import NetConfig

    job_seed = derive_seed(seed, index)
    link = LinkPlan(**LINK_RATES)
    if workload == "net_tree":
        plan = None
    elif workload == "net_faults_overlap":
        plan = FaultPlan.generate(job_seed, NODES, detectable=CRASHES, start=1,
                                  stop=19, link=link)
    else:
        events = [
            event
            for k, (lo, hi) in enumerate(CRASH_WINDOWS)
            for event in FaultPlan.generate(derive_seed(job_seed, k), NODES,
                                            detectable=1, start=lo, stop=hi).events
        ]
        plan = FaultPlan(nprocs=NODES, events=tuple(events), seed=job_seed, link=link)
    transport = "unix" if workload in ("net_tree", "net_faults_unix") else "mem"
    config = NetConfig(
        nodes=NODES, arity=ARITY, barriers=BARRIERS, transport=transport,
        seed=job_seed, plan=plan, tracer_factory=tracer_factory,
    )
    return config, plan


def setup_probe(workload: str, seed: int, ready: Callable[[], None]) -> None:
    """Everything before the first job: imports and its inputs."""
    job(workload, seed, 0)
    ready()


def _tracers(sink: Any):
    """``tracer_factory``: the root stamps its rounds into ``sink``."""
    from repro.obs.tracer import Tracer

    stamper = stamping_tracer(sink)
    return lambda pid: stamper() if pid == 0 else Tracer()


def check_job(result: Any, plan: Any) -> str | None:
    """None when the job is correct, else why not."""
    if not (result.ok and result.reached):
        return f"ok={result.ok} reached={result.reached}"
    if result.violations:
        return f"{len(result.violations)} violations"
    expected = len(plan.events) if plan is not None else 0
    if result.faults_fired != expected:
        return f"faults_fired={result.faults_fired}, plan has {expected}"
    return None


def _account(window: Window, result: Any, plan: Any, index: int,
             digests: dict[int, str], wall: float) -> None:
    window.attempted += 1
    window.jobs += 1
    window.job_s.append(wall)
    window.barriers += result.completed
    digests[index] = result.digest
    problem = check_job(result, plan)
    if problem is not None:
        window.fail(f"job {index}: {problem}")
    counts = window.layers.setdefault("node", {})
    for stats in result.node_stats.values():
        for key, value in stats.items():
            counts[key] = counts.get(key, 0) + value
    links = window.layers.setdefault("link", {})
    for key, value in result.link_stats.items():
        links[key] = links.get(key, 0) + value


def measure(workload: str, seed: int, seconds: float,
            recorder: Recorder | None = None) -> tuple[Window, dict[int, str]]:
    """Run jobs back to back for ``seconds``; returns the window and the
    per-job digests.  With a ``recorder`` the jobs run traced, in one
    event loop beside a loop-lag probe."""
    from repro.net.runtime import run_sync

    window = Window()
    digests: dict[int, str] = {}
    factory = _tracers(window.latencies_ms)
    cpu0 = cpu_self_s()
    if recorder is None:
        start = clock()
        index = 0
        while clock() - start < seconds:
            config, plan = job(workload, seed, index, factory)
            t0 = clock()
            result = run_sync(config)
            _account(window, result, plan, index, digests, clock() - t0)
            index += 1
        window.wall_s = clock() - start
    else:
        start = clock()
        lags = asyncio.run(_traced(workload, seed, seconds, recorder, window,
                                   digests, factory))
        window.wall_s = clock() - start
        window.layers["loop_lag_ms"] = lags
    window.cpu_s = cpu_self_s() - cpu0
    return window, digests


async def _traced(workload: str, seed: int, seconds: float, recorder: Recorder,
                  window: Window, digests: dict[int, str],
                  factory: Any) -> list[float]:
    from repro.net.runtime import run_async

    loop = asyncio.get_running_loop()
    lags: list[float] = []

    async def probe() -> None:
        while True:
            due = loop.time() + PROBE_S
            await asyncio.sleep(PROBE_S)
            lags.append((loop.time() - due) * 1e3)

    prober = asyncio.ensure_future(probe())
    try:
        with Patches(recorder) as patches:
            install(patches)
            start = clock()
            index = 0
            while clock() - start < seconds:
                config, plan = job(workload, seed, index, factory)
                recorder.request = index
                t0 = clock()
                result = await run_async(config)
                _account(window, result, plan, index, digests, clock() - t0)
                index += 1
    finally:
        prober.cancel()
        try:
            await prober
        except asyncio.CancelledError:
            pass
    return lags


def install(patches: Patches) -> None:
    """Wrap the net layers' public functions."""
    from repro.net import frames, node, runtime, transport, tree

    counts = patches.recorder.counts

    def count_dup(accepted: bool) -> None:
        if not accepted:
            counts["net.frames.dedup.dups"] = counts.get("net.frames.dedup.dups", 0) + 1

    patches.wrap(frames.Message, "to_bytes", "net.frames.encode")
    for module in (frames, transport):
        patches.wrap(module, "encode_frame", "net.frames.encode")
    patches.wrap(frames.Message, "from_bytes", "net.frames.decode")
    patches.wrap(frames.DedupIndex, "accept", "net.frames.dedup", count_dup)
    patches.wrap(runtime, "create_tcp_transports", "net.transport.setup")
    for cls in (transport.TcpTransport, transport.MemTransport):
        patches.wrap(cls, "send", "net.transport.send")
        patches.wrap(cls, "recv", "net.transport.recv")
    patches.wrap(node.NetNode, "send_msg", "net.node.send_msg")
    patches.wrap(node.NetNode, "wait_for", "net.node.wait_for")
    patches.wrap(tree.TreeBarrierNode, "handle", "net.tree.handle")
    patches.wrap(tree.TreeBarrierNode, "validate_msg", "net.tree.validate")
    patches.wrap(runtime, "merge_traces", "net.trace.merge")
    patches.wrap(runtime, "trace_digest", "net.trace.digest")
    patches.wrap(runtime, "check_merged", "net.trace.check")


def replay_check(workload: str, seed: int, window: Window,
                 digests: dict[int, str]) -> None:
    """Re-run job 0 with the default tracer: its digest must repeat."""
    from repro.net.runtime import run_sync
    from repro.obs.tracer import Tracer

    window.attempted += 1
    config, _plan = job(workload, seed, 0, lambda pid: Tracer())
    again = run_sync(config).digest
    if again != digests[0]:
        window.fail(f"job 0 replayed to {again}, first run gave {digests[0]}")


def layer_metrics(window: Window, recorder: Recorder) -> dict[str, float]:
    """Raw per-layer figures of one traced window: counts and seconds
    summed over the window (``run.py`` divides them per barrier or per
    second of wall), ratios as they are."""
    node = window.layers.get("node", {})
    link = window.layers.get("link", {})
    sent = node.get("sent", 0)
    out: dict[str, float] = {}
    for layer in ("net.frames.encode", "net.frames.decode", "net.node.send_msg",
                  "net.tree.handle", "net.transport.send", "net.transport.recv"):
        calls, busy, wait = recorder.layer(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_frac"] = busy
        if layer.startswith("net.transport."):
            out[f"{layer}.wait_frac"] = wait
    calls = recorder.layer("net.frames.dedup")[0]
    out["net.frames.dedup.calls"] = calls
    dups = recorder.counts.get("net.frames.dedup.dups", 0)
    out["net.frames.dedup.dup_frac"] = dups / calls if calls else 0.0
    out["net.transport.setup.wall_frac"] = recorder.wall("net.transport.setup")
    out["net.node.frames_per_barrier"] = sent
    out["net.node.resends_per_barrier"] = node.get("resends", 0)
    out["net.node.hb_per_barrier"] = node.get("hb_sent", 0)
    out["net.node.first_send_frac"] = (
        (sent - node.get("resends", 0)) / sent if sent else 0.0
    )
    calls, _, wait = recorder.layer("net.node.wait_for")
    out["net.node.wait_for.calls"] = calls
    out["net.node.wait_for.wait_frac"] = wait
    out["net.tree.validate.busy_frac"] = recorder.layer("net.tree.validate")[1]
    for fault in ("dropped", "duplicated", "delayed", "reordered"):
        out[f"net.faults.{fault}_per_barrier"] = link.get(fault, 0)
    for step in ("merge", "digest", "check"):
        out[f"net.trace.{step}.busy_frac"] = recorder.layer(f"net.trace.{step}")[1]
    lags = window.layers.get("loop_lag_ms", [])
    out["net.runtime.loop_lag_p99_frac"] = (
        percentile(lags, 99) / (PROBE_S * 1e3) if lags else 0.0
    )
    return out
