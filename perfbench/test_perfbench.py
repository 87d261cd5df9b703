"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the program from ``src/`` like the benchmark does and keep
every file they write under ``.perfbench_out/``.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from common import OUT, ROOT, prepare_process  # noqa: E402
from tracing import Patches, Recorder  # noqa: E402

prepare_process()

import wl_chaos  # noqa: E402
import wl_net  # noqa: E402

SCRATCH = ROOT / OUT / "tests"


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _tampered_pins(workload: str, tamper) -> Path:
    pins = json.loads(run.PINS.read_text())
    pins[workload][0] = tamper(pins[workload][0])
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"pins-{workload}.json"
    path.write_text(json.dumps(pins))
    return path


@pytest.mark.parametrize("workload, tamper", [
    ("net_tree", lambda digest: "0" * len(digest)),
    ("chaos_sim", lambda fp: fp.replace("gc:cb=1/0/", "gc:cb=1/1/", 1)),
])
def test_tampered_pin_fails_the_command(workload, tamper):
    pins = _tampered_pins(workload, tamper)
    code, out = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                       "--pins", str(pins))
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "pinned" in out


def test_untampered_pins_pass():
    code, out = _bench("--workload", "chaos_sim", "--seed", "0", "--seconds", "1")
    assert code == 0, out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True


def test_wrappers_leave_net_digests_unchanged():
    from repro.net.runtime import run_async, run_sync

    for workload in ("net_tree", "net_faults", "net_faults_unix"):
        config, _ = wl_net.job(workload, run.DEFAULT_SEED, 0)
        plain = run_sync(config).digest

        async def traced():
            with Patches(Recorder()) as patches:
                wl_net.install(patches)
                return (await run_async(config)).digest

        assert asyncio.run(traced()) == plain
        assert plain == json.loads(run.PINS.read_text())[workload][0]


def test_wrappers_leave_chaos_tallies_unchanged():
    window, plain = wl_chaos.measure("chaos_sim", 1, 0.2)
    window, traced = wl_chaos.measure("chaos_sim", 1, 0.2, Recorder())
    common = sorted(set(plain) & set(traced))
    assert common and all(plain[k] == traced[k] for k in common)


def test_net_faults_crashes_fire_in_distinct_rounds():
    import math

    for index in range(50):
        _, plan = wl_net.job("net_faults", 7, index)
        rounds = [math.ceil(event.when) for event in plan.events]
        assert len(rounds) == wl_net.CRASHES == len(set(rounds))


def test_traced_digest_mismatch_fails():
    window = run.Window()
    run.check_traced(window, {0: "a", 1: "b", 2: "c"}, {0: "a", 1: "x"})
    assert window.attempted == 2 and window.failed == 1
    assert "traced job 1" in window.errors[0]


def test_non_repeating_replay_fails():
    window = run.Window()
    wl_net.replay_check("net_tree", 0, window, {0: "0" * 64})
    assert window.failed == 1 and "replayed" in window.errors[0]


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
            name for table in run.UNLISTED_LAYERS.values() for name in table]:
        assert pattern.fullmatch(name), name


def test_self_time_excludes_children_and_parked_time():
    recorder = Recorder()
    with Patches(recorder) as patches:
        class Layer:
            def child(self):
                sum(range(20000))

            def parent(self):
                self.child()
                self.child()

            async def parked(self):
                self.child()
                await asyncio.sleep(0.05)

        patches.wrap(Layer, "child", "child")
        patches.wrap(Layer, "parent", "parent")
        patches.wrap(Layer, "parked", "parked")
        Layer().parent()
        asyncio.run(Layer().parked())
    calls, child_busy, _ = recorder.layer("child")
    _, parent_busy, _ = recorder.layer("parent")
    _, parked_busy, parked_wait = recorder.layer("parked")
    assert calls == 3
    assert parent_busy < child_busy / 2
    assert parked_busy < 0.01 and parked_wait >= 0.04
    assert recorder.wall("parked") >= parked_wait


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = _bench("--workload", "net_tree", "--seed", "0", "--seconds", "1",
                       cwd=bare)
    assert code != 0 and "{" not in out
