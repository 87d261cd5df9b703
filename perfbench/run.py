"""Barrier cost end to end and layer by layer.

    python3 perfbench/run.py --workload net_faults --seed 0 --seconds 50 --trace 0

Runs one workload (``net_tree``, ``net_faults``, ``net_faults_unix``,
``net_faults_overlap``, ``serve_pair``, ``chaos_sim``; ``all`` runs each
in turn) against the program in
``src/`` for ``--seconds``, checks its outputs, prints a table of
metrics with units and sample counts, and prints one JSON object as the
last line of standard output::

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
measures half the time untraced and half traced (layer wrappers
installed) and reports the per-layer metrics plus the tracing overhead.
The exit code is 0 only when every check passed; without ``src/repro``
it is 2 and nothing is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED,
    OUT,
    ROOT,
    SRC,
    TAIL_PCT,
    Window,
    child_env,
    clock,
    peak_rss_self_mb,
    percentile,
    prepare_process,
)

WORKLOADS = ("net_tree", "net_faults", "net_faults_unix", "net_faults_overlap",
             "serve_pair", "chaos_sim")
#: The workloads BENCHMARK.json lists.  ``net_tree``, ``serve_pair`` and
#: ``chaos_sim`` run by hand only: their figures spread past the largest
#: allowed bound between identical runs (the tree closure defect;
#: loopback wake-up latency and CPU speed on a shared 2-vCPU host), see
#: NOTES.md.  ``net_faults_overlap`` runs by hand only because its checks
#: fail on the detect-order race.  ``net_faults_unix`` keeps the socket
#: layers measured on a listed workload.
GATED = ("net_faults", "net_faults_unix")
PINS = Path(__file__).resolve().parent / "pins.json"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
#: Jobs pinned per workload (a 20 s run reaches about half of them).
PIN_JOBS = 24

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "barriers_per_s": "1/s",
    "barrier_ms_p50": "ms",
    f"barrier_ms_p{TAIL_PCT}": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> (unit, divisor).  Modules report window
#: totals; "barrier" figures are divided by the traced window's completed
#: barriers, "wall" figures (seconds of busy, parked or CPU time) by its
#: wall seconds, so every layer reads as a share of the end-to-end wall.
#: Ratios and counts are reported as they are.
_COUNTS = [
    "net.frames.encode.calls", "net.frames.decode.calls", "net.frames.dedup.calls",
    "net.transport.send.calls", "net.transport.recv.calls",
    "net.node.frames_per_barrier", "net.node.resends_per_barrier",
    "net.node.hb_per_barrier", "net.node.send_msg.calls", "net.node.wait_for.calls",
    "net.tree.handle.calls", "net.faults.dropped_per_barrier",
    "net.faults.duplicated_per_barrier", "net.faults.delayed_per_barrier",
    "net.faults.reordered_per_barrier",
]
_SHARES_OF_WALL = [
    "net.frames.encode.busy_frac", "net.frames.decode.busy_frac",
    "net.transport.setup.wall_frac",
    "net.transport.send.busy_frac", "net.transport.send.wait_frac",
    "net.transport.recv.busy_frac", "net.transport.recv.wait_frac",
    "net.node.send_msg.busy_frac", "net.node.wait_for.wait_frac",
    "net.tree.handle.busy_frac", "net.tree.validate.busy_frac",
    "net.trace.merge.busy_frac", "net.trace.digest.busy_frac",
    "net.trace.check.busy_frac",
]
PER_LAYER: dict[str, tuple[str, str | None]] = {
    **{name: ("count/barrier", "barrier") for name in _COUNTS},
    **{name: ("frac", "wall") for name in _SHARES_OF_WALL},
    "net.frames.dedup.dup_frac": ("frac", None),
    "net.node.first_send_frac": ("frac", None),
    "net.runtime.loop_lag_p99_frac": ("frac", None),
    "proc.cpu_frac": ("frac", None),
    "trace.overhead_frac": ("frac", None),
    "trace.barriers": ("count", None),
}
#: Layers that only an unlisted workload runs: its traced runs report
#: them after ``PER_LAYER``.
SERVE_LAYER: dict[str, tuple[str, str | None]] = {
    **{name: ("count/barrier", "barrier") for name in (
        "serve.daemon.frames", "serve.daemon.rejects", "serve.daemon.shed_frames",
        "serve.daemon.quarantined", "serve.groups.offer.calls",
        "serve.groups.dispatch.calls", "serve.client.resends")},
    **{name: ("frac", "wall") for name in (
        "serve.daemon.decode.busy_frac", "serve.daemon.dedup.busy_frac",
        "serve.groups.offer.busy_frac", "serve.groups.dispatch.busy_frac",
        "serve.client.arrive.wait_frac", "serve.client.cpu_frac",
        "serve.daemon.cpu_frac")},
    "serve.daemon.latency_frac": ("frac", None),
}
CHAOS_LAYER: dict[str, tuple[str, str | None]] = {
    "gc.scheduler.step.calls": ("count/barrier", "barrier"),
    **{name: ("frac", "wall") for name in (
        *(f"chaos.adapters.run.{t}.wall_frac"
          for t in ("gc_cb", "gc_rb-ring", "gc_rb-tree", "gc_mb", "protosim_tree")),
        "gc.scheduler.step.busy_frac", "chaos.monitors.busy_frac",
        "chaos.plan.generate.busy_frac", "protosim.run.busy_frac")},
}
UNLISTED_LAYERS = {"serve_pair": SERVE_LAYER, "chaos_sim": CHAOS_LAYER}


def layer_table(workload: str) -> dict[str, tuple[str, str | None]]:
    """The per-layer metrics a traced run of ``workload`` reports."""
    return {**PER_LAYER, **UNLISTED_LAYERS.get(workload, {})}


def workload_module(workload: str):
    import wl_chaos
    import wl_net
    import wl_serve

    return {"net_tree": wl_net, "net_faults": wl_net, "net_faults_unix": wl_net,
            "net_faults_overlap": wl_net, "serve_pair": wl_serve,
            "chaos_sim": wl_chaos}[workload]


# -- set-up -----------------------------------------------------------------
def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first measurable
    moment (the child prints ``ready``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = clock()
    child = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                             text=True)
    try:
        line = child.stdout.readline()
        elapsed = clock() - start
        child.stdout.read()
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


# -- checks -----------------------------------------------------------------
def check_digests(workload: str, seed: int, window: Window, digests: dict[int, str],
                  pins: dict[str, list[str]]) -> None:
    """Pinned digests (default seed) and a replay of job 0 (every seed)."""
    if not digests:
        return
    pinned = pins.get(workload, []) if seed == DEFAULT_SEED else []
    for index, digest in sorted(digests.items()):
        if index < len(pinned) and digest != pinned[index]:
            window.fail(f"job {index}: digest {digest} != pinned {pinned[index]}")
    workload_module(workload).replay_check(workload, seed, window, digests)


def check_traced(window: Window, plain: dict[int, str], traced: dict[int, str]) -> None:
    """Every traced job must give the digest of the untraced job with the
    same index: the wrappers may not change what the program does."""
    for index in sorted(set(plain) & set(traced)):
        window.attempted += 1
        if traced[index] != plain[index]:
            window.fail(f"traced job {index}: digest {traced[index]} != "
                        f"untraced {plain[index]}")


# -- metrics ----------------------------------------------------------------
def end_to_end(window: Window, setup: list[float]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count)."""
    lat, wall = window.latencies_ms, max(window.wall_s, 1e-9)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "barriers_per_s": (window.barriers / wall, window.barriers),
        "barrier_ms_p50": (percentile(lat, 50), len(lat)),
        f"barrier_ms_p{TAIL_PCT}": (percentile(lat, TAIL_PCT), len(lat)),
        "peak_rss_mb": (peak_rss_self_mb() + window.layers.get("child_peak_rss_mb", 0.0),
                        1),
    }


def informational(workload: str, window: Window) -> dict[str, tuple[float, int, str]]:
    """Figures the table prints beside the metrics but the JSON does not
    carry (each restates ``barriers_per_s`` on its workload): the median
    ``run_sync`` job (net) and campaign runs per second (chaos)."""
    if workload.startswith("net_") and window.job_s:
        return {"job_s_p50": (statistics.median(window.job_s), len(window.job_s), "s")}
    if workload == "chaos_sim":
        runs = window.layers.get("runs", 0)
        return {"runs_per_s": (runs / max(window.wall_s, 1e-9), runs, "1/s")}
    return {}


def per_layer(workload: str, plain: Window, traced: Window,
              recorder) -> dict[str, tuple[float, int]]:
    figures = workload_module(workload).layer_metrics(traced, recorder)
    barriers, wall = traced.barriers, max(traced.wall_s, 1e-9)
    out: dict[str, tuple[float, int]] = {}
    for name, (_, divisor) in layer_table(workload).items():
        value = float(figures.get(name, 0.0))
        if divisor == "barrier":
            value = value / barriers if barriers else 0.0
        elif divisor == "wall":
            value = value / wall
        out[name] = (value, barriers)
    out["proc.cpu_frac"] = (traced.cpu_s / max(traced.wall_s, 1e-9), 1)
    if plain.barriers and barriers:
        cost = (traced.wall_s / barriers) / (plain.wall_s / plain.barriers)
        out["trace.overhead_frac"] = (cost - 1.0, barriers)
    out["trace.barriers"] = (float(barriers), 1)
    return out


def report(workload: str, seed: int, window: Window,
           metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> dict:
    """Print the table; return the result object."""
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            window.fail(f"{name}: no samples")
    print(f"{workload} seed={seed}: {window.jobs} jobs, {window.barriers} barriers "
          f"in {window.wall_s:.2f} s; attempted={window.attempted} "
          f"failed={window.failed} failed_frac="
          f"{window.failed / max(window.attempted, 1):.4f}")
    print(f"  {'metric':<40} {'value':>14} {'unit':<14} samples")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<14} {samples}")
    for name, (value, samples, unit) in informational(workload, window).items():
        print(f"  {name:<40} {value:>14.6g} {unit:<14} {samples} (table only)")
    for error in window.errors[:20]:
        print(f"  FAILED: {error}")
    return {
        "correct": window.failed == 0,
        "attempted": max(window.attempted, 1),
        "failed": window.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, (value, _) in metrics.items()
        },
    }


def run(args: argparse.Namespace) -> int:
    module = workload_module(args.workload)
    pins = json.loads(Path(args.pins).read_text()) if Path(args.pins).exists() else {}
    if not args.trace:
        setup = [setup_sample(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        window, digests = module.measure(args.workload, args.seed, args.seconds)
        check_digests(args.workload, args.seed, window, digests, pins)
        metrics, units = end_to_end(window, setup), END_TO_END
    else:
        from tracing import Recorder

        half = args.seconds / 2.0
        plain, digests = module.measure(args.workload, args.seed, half)
        recorder = Recorder()
        window, traced = module.measure(args.workload, args.seed, half, recorder)
        window.attempted += plain.attempted
        for error in plain.errors:
            window.fail(f"untraced half: {error}")
        check_digests(args.workload, args.seed, window, digests, pins)
        check_traced(window, digests, traced)
        metrics = per_layer(args.workload, plain, window, recorder)
        units = {name: unit for name, (unit, _) in layer_table(args.workload).items()}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        kept = recorder.dump(spans)
        print(f"tracing overhead: {metrics['trace.overhead_frac'][0]:+.1%} wall per "
              f"barrier; {kept} spans in {spans} ({recorder.dropped} past capacity)")
    if args.pin:
        pinned = dict(pins)
        pinned[args.workload] = [d for _, d in sorted(digests.items())][:PIN_JOBS]
        Path(args.pins).write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    result = report(args.workload, args.seed, window, metrics, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; non-zero exit
    when any of them failed."""
    codes = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pins", args.pins]
        codes[workload] = subprocess.run(cmd, cwd=ROOT).returncode
    print(json.dumps({"correct": not any(codes.values()), "exit_codes": codes}))
    return 1 if any(codes.values()) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="barrier cost benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=str(PINS),
                        help="pinned digests for the default seed")
    parser.add_argument("--pin", action="store_true",
                        help="write this run's first digests to --pins")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    prepare_process()
    if args.setup_probe:
        workload_module(args.workload).setup_probe(
            args.workload, args.seed, lambda: print("ready", flush=True))
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
