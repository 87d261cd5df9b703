"""Shared pieces of the benchmark: paths, the measured-window record,
percentiles, process accounting and the phase-stamping tracer."""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes here (ignored by git).  Kept
#: relative to the root so Unix socket paths stay short.
OUT = Path(".perfbench_out")

#: The seed whose digests and tallies are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: The latency percentile reported next to the median.
TAIL_PCT = 95

clock = time.perf_counter


def prepare_process() -> None:
    """Import the program from the checkout and keep every temporary
    file (the runtime's Unix socket directories) inside ``OUT``."""
    import tempfile

    os.chdir(ROOT)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: same program, same temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(ROOT / OUT / "tmp")
    return env


@dataclass
class Window:
    """What one measured window did."""

    wall_s: float = 0.0
    barriers: int = 0
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per-barrier latencies; an array, so the collector never walks it.
    latencies_ms: array = field(default_factory=lambda: array("d"))
    job_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: Workload-specific per-layer inputs (counts, scrapes, spans).
    layers: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``nan`` for no samples)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cpu_self_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_self_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live child (0.0 where /proc is absent)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """A live child's peak resident set (VmHWM), 0.0 where unknown."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stamping_tracer(sink: array) -> type:
    """A :class:`~repro.obs.tracer.Tracer` subclass that also appends
    the wall time (ms) of every successful barrier phase to ``sink``:
    from the phase's start event (or the previous phase's end, for
    engines that narrate ends only) to its successful end.  Events are
    recorded exactly as by the base class, so digests are unchanged."""
    from repro.obs.events import PHASE_END, PHASE_START
    from repro.obs.tracer import Tracer

    class PhaseStampTracer(Tracer):
        def __init__(self) -> None:
            super().__init__()
            self._opened = clock()

        def emit(self, kind: str, time: float, pid: int | None = None,
                 **data: Any) -> None:
            super().emit(kind, time, pid, **data)
            if kind == PHASE_START:
                self._opened = clock()
            elif kind == PHASE_END and data.get("success"):
                now = clock()
                sink.append((now - self._opened) * 1e3)
                self._opened = now

    return PhaseStampTracer
