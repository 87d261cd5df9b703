"""Causal fault analytics: per-fault chains through the trace.

:func:`build_chains` returns, for every injected fault, the chain

    fault -> detect -> recovery -> first clean ``phase_end``

as folded by :class:`repro.obs.spans.FaultChains` (the attribution
rules live there): one :class:`FaultChain` per fault-chain span.  Each
chain's latency is measured from its own fault time, which is what turns
a single mean into the per-fault latency distribution the convergence
literature reports.

The result feeds :class:`CausalReport` -- latency distributions split
by fault class (detectable vs undetectable, the Figure 3/5 vs Figure 7
regimes) -- and the ``causal-report`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.events import ObsEvent
from repro.obs.spans import FAULT_CHAIN, Span, SpanFolder

DETECTABLE = "detectable"
UNDETECTABLE = "undetectable"


@dataclass
class FaultChain:
    """One fault's causal chain (times are virtual; None = never seen)."""

    fault_time: float
    pid: int | None
    detectable: bool
    detect_time: float | None = None
    recovery_time: float | None = None
    #: Fault-to-start-state latency (the Figure 7 quantity).
    recovery_latency: float | None = None
    clean_phase_time: float | None = None
    #: True when the closing recovery was not matched to this chain's
    #: pid (it ended the whole episode).
    system_wide_recovery: bool = False

    @classmethod
    def from_span(cls, span: Span) -> "FaultChain":
        attrs = span.attrs
        return cls(
            fault_time=span.start,
            pid=span.pid,
            detectable=attrs["detectable"],
            detect_time=attrs.get("detect_time"),
            recovery_time=attrs.get("recovery_time"),
            recovery_latency=attrs.get("recovery_latency"),
            clean_phase_time=attrs.get("clean_phase_time"),
            system_wide_recovery=attrs.get("system_wide_recovery", False),
        )

    @property
    def klass(self) -> str:
        return DETECTABLE if self.detectable else UNDETECTABLE

    @property
    def detection_latency(self) -> float | None:
        if self.detect_time is None:
            return None
        return self.detect_time - self.fault_time

    @property
    def total_latency(self) -> float | None:
        """Fault to the first *clean* successful phase end."""
        if self.clean_phase_time is None:
            return None
        return self.clean_phase_time - self.fault_time

    @property
    def complete(self) -> bool:
        return self.recovery_time is not None and self.clean_phase_time is not None

    def to_dict(self) -> dict:
        return {
            "fault_time": self.fault_time,
            "pid": self.pid,
            "klass": self.klass,
            "detect_time": self.detect_time,
            "recovery_time": self.recovery_time,
            "recovery_latency": self.recovery_latency,
            "clean_phase_time": self.clean_phase_time,
            "total_latency": self.total_latency,
            "system_wide_recovery": self.system_wide_recovery,
            "complete": self.complete,
        }


def build_chains(events: Iterable[ObsEvent]) -> list[FaultChain]:
    """Every fault's chain from an event sequence, in fault order."""
    folder = SpanFolder(recent=0, keep_all=True, participation=False)
    folder.feed_all(events).finish(math.inf)
    spans = [s for s in folder.completed or () if s.kind == FAULT_CHAIN]
    return [FaultChain.from_span(s) for s in sorted(spans, key=lambda s: s.span_id)]


@dataclass
class ClassStats:
    """Latency distribution of one fault class."""

    klass: str
    chains: int = 0
    complete: int = 0
    recovered: int = 0
    detected: int = 0
    recovery_latencies: list[float] = field(default_factory=list)
    total_latencies: list[float] = field(default_factory=list)

    def quantile(self, q: float) -> float:
        return _quantile(self.recovery_latencies, q)

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return math.nan
        return sum(self.recovery_latencies) / len(self.recovery_latencies)


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation quantile of raw values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class CausalReport:
    """Chains plus per-class distributions, renderable for the CLI."""

    chains: list[FaultChain]
    by_class: dict[str, ClassStats]

    @property
    def unrecovered(self) -> int:
        return sum(1 for c in self.chains if c.recovery_time is None)

    def render(self) -> str:
        from repro.viz.chart import ascii_histogram_of

        lines = [
            f"Causal fault report: {len(self.chains)} fault chains "
            f"({self.unrecovered} never recovered)"
        ]
        for klass in (DETECTABLE, UNDETECTABLE):
            stats = self.by_class.get(klass)
            if stats is None or stats.chains == 0:
                continue
            lines.append(
                f"  {klass:<13}: {stats.chains} faults, "
                f"{stats.detected} detected, {stats.recovered} recovered, "
                f"{stats.complete} reached a clean phase"
            )
            if stats.recovery_latencies:
                lines.append(
                    "    recovery latency: "
                    f"mean={stats.mean_recovery_latency:.4g} "
                    f"p50={stats.quantile(0.5):.4g} "
                    f"p90={stats.quantile(0.9):.4g} "
                    f"max={max(stats.recovery_latencies):.4g}"
                )
                lines.append(
                    _indent(ascii_histogram_of(stats.recovery_latencies), 4)
                )
        if len(lines) == 1:
            lines.append("  (no faults in this trace)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "chains": [c.to_dict() for c in self.chains],
            "by_class": {
                klass: {
                    "chains": s.chains,
                    "detected": s.detected,
                    "recovered": s.recovered,
                    "complete": s.complete,
                    "mean_recovery_latency": _nan_safe(
                        s.mean_recovery_latency
                    ),
                    "p50": _nan_safe(s.quantile(0.5)),
                    "p90": _nan_safe(s.quantile(0.9)),
                }
                for klass, s in sorted(self.by_class.items())
            },
        }


def _nan_safe(value: float) -> float | None:
    return None if math.isnan(value) else value


def _indent(text: str, n: int) -> str:
    pad = " " * n
    return "\n".join(pad + line for line in text.splitlines())


def causal_report(events: Iterable[ObsEvent]) -> CausalReport:
    """Build the full report (chains + per-class distributions)."""
    chains = build_chains(events)
    by_class: dict[str, ClassStats] = {}
    for chain in chains:
        stats = by_class.setdefault(chain.klass, ClassStats(chain.klass))
        stats.chains += 1
        if chain.detect_time is not None:
            stats.detected += 1
        if chain.recovery_time is not None:
            stats.recovered += 1
        if chain.complete:
            stats.complete += 1
        latency = chain.recovery_latency
        if latency is not None and math.isfinite(latency):
            stats.recovery_latencies.append(latency)
        total = chain.total_latency
        if total is not None and math.isfinite(total):
            stats.total_latencies.append(total)
    return CausalReport(chains=chains, by_class=by_class)
