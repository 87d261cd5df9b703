"""The chaos workload: seeded campaigns over the simulation engines.

Each job is one ``run_campaign(shrink=False)`` with one run per target
(the four guarded-command programs and the timed tree barrier), eight
processes, 20 target phases and two detectable plus one undetectable
fault per run, executed serially by a default ``SweepExecutor()``
(``jobs=1``, no cache).  Campaign ``k`` of seed ``s`` has seed
``derive_seed(s, k)``.

Per-barrier wall time comes from a :func:`~common.stamping_tracer`
subclass bound in place of the adapters' ``Tracer``; it records the
same events, so tallies and outcomes are unchanged.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

from common import Window, clock, cpu_self_s, stamping_tracer
from tracing import Patches, Recorder

TARGETS = ("gc:cb", "gc:rb-ring", "gc:rb-tree", "gc:mb", "protosim:tree")
NPROCS = 8
TARGET_PHASES = 20
DETECTABLE = 2
UNDETECTABLE = 1


def campaign_config(seed: int, index: int):
    from repro.chaos.campaign import derive_seed
    from repro.chaos.plan import CampaignConfig

    return CampaignConfig(
        targets=TARGETS, runs=len(TARGETS), seed=derive_seed(seed, index),
        nprocs=NPROCS, target_phases=TARGET_PHASES, detectable=DETECTABLE,
        undetectable=UNDETECTABLE, shrink=False,
    )


def setup_probe(workload: str, seed: int, ready: Callable[[], None]) -> None:
    """Everything before the first campaign: imports and its config."""
    from repro.chaos.adapters import get_adapter

    for target in TARGETS:
        get_adapter(target)
    campaign_config(seed, 0)
    ready()


def fingerprint(report: Any) -> str:
    """Replay identity of one campaign: per-target tallies plus a hash
    of every run's outcome."""
    outcomes = hashlib.sha256(
        json.dumps(report.outcomes, sort_keys=True).encode()
    ).hexdigest()[:16]
    tallies = ";".join(
        f"{t}={r['runs']}/{r['violations']}/{r['faults']}/{r['lost']}"
        for t, r in sorted(report.by_target().items())
    )
    return f"{tallies}#{outcomes}"


def _campaign(seed: int, index: int) -> Any:
    from repro.chaos.campaign import run_campaign
    from repro.experiments.sweep import SweepExecutor

    return run_campaign(campaign_config(seed, index), executor=SweepExecutor())


def measure(workload: str, seed: int, seconds: float,
            recorder: Recorder | None = None) -> tuple[Window, dict[int, str]]:
    from repro.chaos import adapters

    window = Window()
    digests: dict[int, str] = {}
    cpu0 = cpu_self_s()
    with Patches(recorder) as patches:
        patches.replace(adapters, "Tracer", stamping_tracer(window.latencies_ms))
        if recorder is not None:
            install(patches)
        start = clock()
        index = 0
        while clock() - start < seconds:
            if recorder is not None:
                recorder.request = index
            report = _campaign(seed, index)
            window.jobs += 1
            digests[index] = fingerprint(report)
            for run, outcome in enumerate(report.outcomes):
                window.attempted += 1
                window.layers["runs"] = window.layers.get("runs", 0) + 1
                if outcome is None:
                    window.fail(f"campaign {index} run {run}: lost to the pool")
                    continue
                window.barriers += outcome["successful_phases"]
                if outcome["violations"]:
                    window.fail(f"campaign {index} run {run}: "
                                f"{len(outcome['violations'])} violations")
            index += 1
        window.wall_s = clock() - start
    window.cpu_s = cpu_self_s() - cpu0
    return window, digests


def install(patches: Patches) -> None:
    """Wrap the simulation layers' public functions."""
    from repro.chaos.adapters import get_adapter
    from repro.chaos.monitors import MonitorSet
    from repro.chaos.plan import FaultPlan
    from repro.gc import scheduler
    from repro.protosim.treebarrier import FTTreeBarrierSim

    for target in TARGETS:
        patches.wrap(get_adapter(target), "run", f"chaos.adapters.run.{target}")
    for daemon in (scheduler.RoundRobinDaemon, scheduler.RandomFairDaemon,
                   scheduler.MaximalParallelDaemon):
        patches.wrap(daemon, "step", "gc.scheduler.step")
    # The subscription path binds _on_event at construction; feed() calls it.
    patches.wrap(MonitorSet, "_on_event", "chaos.monitors")
    patches.wrap(MonitorSet, "finish", "chaos.monitors")
    patches.wrap(FaultPlan, "generate", "chaos.plan.generate")
    patches.wrap(FTTreeBarrierSim, "run", "protosim.run")


def replay_check(workload: str, seed: int, window: Window,
                 digests: dict[int, str]) -> None:
    """Re-run campaign 0: its tallies and outcomes must repeat."""
    window.attempted += 1
    again = fingerprint(_campaign(seed, 0))
    if again != digests[0]:
        window.fail(f"campaign 0 replayed to {again}, first run gave {digests[0]}")


def metric_target(target: str) -> str:
    """A target name as a metric-name segment (``gc:rb-ring`` -> ``gc_rb-ring``)."""
    return target.replace(":", "_").replace("+", "_")


def layer_metrics(window: Window, recorder: Recorder) -> dict[str, float]:
    """Raw per-layer figures of one traced window: counts and seconds
    summed over the window (``run.py`` divides them per barrier or per
    second of wall)."""
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"chaos.adapters.run.{metric_target(target)}.wall_frac"] = (
            recorder.wall(f"chaos.adapters.run.{target}")
        )
    calls, busy, _ = recorder.layer("gc.scheduler.step")
    out["gc.scheduler.step.calls"] = calls
    out["gc.scheduler.step.busy_frac"] = busy
    for layer in ("chaos.monitors", "chaos.plan.generate", "protosim.run"):
        out[f"{layer}.busy_frac"] = recorder.layer(layer)[1]
    return out
