"""Hierarchical spans folded incrementally from the flat event stream.

The tracer schema is deliberately flat -- eight event kinds, one record
each -- which is perfect for digests and conformance but hostile to a
human watching a live run.  :class:`SpanFolder` rebuilds the hierarchy
*online*, event by event, with bounded state:

* a **barrier span** per narrated round (``phase_start`` ..
  ``phase_end``), status ``ok`` / ``failed``;
* a **participation span** per (round, pid) covering that node's
  message activity inside the round, parented under the barrier span;
* a **fault chain span** per injected fault -- fault -> detect ->
  recovery -> first clean successful phase -- folded by
  :class:`FaultChains`, the one implementation of the fault-attribution
  rules.  The summary's and the metrics' recovery latencies (one sample
  per recovery) and the causal report (one chain per fault) are views
  over the chains it closes.

Finished spans go to a bounded ``recent`` ring (the ``/spans/recent``
endpoint body) and to an optional ``sink`` callback (the ``obs tail``
feed); ``keep_all=True`` additionally retains every finished span for
offline analysis.  Only *open* spans are held otherwise, so the folder
is safe to run for arbitrarily long streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.obs.events import (
    DETECT,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    PHASE_END,
    PHASE_START,
    TOKEN_PASS,
    RECOVERY,
    ObsEvent,
)

BARRIER = "barrier"
PARTICIPATION = "participation"
FAULT_CHAIN = "fault-chain"


@dataclass
class Span:
    """One folded span (times are the stream's virtual/Lamport time)."""

    span_id: int
    kind: str  # BARRIER | PARTICIPATION | FAULT_CHAIN
    name: str
    start: float
    pid: int | None = None
    parent_id: int | None = None
    end: float | None = None
    status: str = "open"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "parent_id": self.parent_id,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def render(self) -> str:
        dur = "" if self.duration is None else f" dur={self.duration:g}"
        pid = "" if self.pid is None else f" pid={self.pid}"
        return f"[{self.start:>10g}] {self.kind:<13} {self.name:<14} {self.status}{pid}{dur}"


class FaultChains:
    """The fault-attribution fold: one fault-chain span per fault.

    A chain runs fault -> detect -> recovery -> first clean (successful)
    phase end, under these rules:

    * a detect goes to the earliest open chain not yet detected
      (detection is observed at the root, not at the victim);
    * a recovery at a pid with an open chain and no explicit ``latency``
      closes that pid's earliest chain (first in, first out per pid);
    * any other recovery -- no pid, a pid with no open chain, or an
      explicit ``latency`` (the engine's return to a start state,
      measured from the episode's first fault) -- ends the episode and
      closes every open chain.  The explicit latency goes to the
      earliest chain; every other chain is measured from its own fault;
    * a recovered chain ends at the next successful phase end.

    :meth:`feed` returns the chains a recovery closed, earliest first.
    """

    def __init__(self) -> None:
        self._next_id = 1
        #: pid -> FIFO of open fault-chain spans awaiting recovery.
        self._open_faults: dict[int | None, list[Span]] = {}
        #: Chains recovered but awaiting their first clean phase end.
        self._awaiting_clean: list[Span] = []

    def _open(self, kind: str, name: str, start: float, **kw: Any) -> Span:
        span = Span(span_id=self._next_id, kind=kind, name=name, start=start, **kw)
        self._next_id += 1
        return span

    def _finish(self, span: Span, end: float, status: str) -> None:
        span.end = end
        span.status = status

    def _open_chains(self) -> list[Span]:
        return sorted(
            (s for q in self._open_faults.values() for s in q),
            key=lambda s: s.span_id,
        )

    def _parent(self) -> int | None:
        """The span a new chain nests under (none in the bare fold)."""
        return None

    def feed(self, event: ObsEvent) -> Sequence[Span]:
        kind = event.kind
        if kind == FAULT:
            span = self._open(
                FAULT_CHAIN,
                f"fault@{event.time:g}",
                event.time,
                pid=event.pid,
                parent_id=self._parent(),
                attrs={
                    "detectable": bool(event.data.get("detectable", True)),
                    "fault_time": event.time,
                },
            )
            self._open_faults.setdefault(event.pid, []).append(span)
        elif kind == DETECT:
            for span in self._open_chains():
                if "detect_time" not in span.attrs:
                    span.attrs["detect_time"] = event.time
                    span.attrs["detection_latency"] = event.time - span.start
                    break
        elif kind == RECOVERY:
            return self._recover(event)
        elif kind == PHASE_END and event.data.get("success"):
            for span in self._awaiting_clean:
                span.attrs["clean_phase_time"] = event.time
                span.attrs["total_latency"] = event.time - span.start
                self._finish(span, event.time, "recovered")
            self._awaiting_clean = []
        return ()

    def _recover(self, event: ObsEvent) -> list[Span]:
        explicit = event.data.get("latency")
        queue = None if event.pid is None else self._open_faults.get(event.pid)
        own = queue[0] if queue else None
        if queue and explicit is None:
            closed = [queue.pop(0)]
            if not queue:
                del self._open_faults[event.pid]
        else:
            closed = self._open_chains()
            self._open_faults.clear()
        for span in closed:
            span.attrs["recovery_time"] = event.time
            span.attrs["system_wide_recovery"] = span is not own
            span.attrs["recovery_latency"] = event.time - span.start
        if explicit is not None and closed:
            closed[0].attrs["recovery_latency"] = float(explicit)
        self._awaiting_clean.extend(closed)
        return closed

    def finish(self, time: float) -> None:
        """End of stream: close the chains still open, honestly."""
        for span in self._open_chains():
            self._finish(span, time, "unrecovered")
        self._open_faults.clear()
        for span in self._awaiting_clean:
            self._finish(span, time, "recovered-no-clean-phase")
        self._awaiting_clean = []


def episode_latency(event: ObsEvent, closed: Sequence[Span]) -> float | None:
    """A recovery's one latency sample: that of the episode it closed
    (its earliest chain's), else the engine's explicit ``latency``."""
    if closed:
        return float(closed[0].attrs["recovery_latency"])
    explicit = event.data.get("latency")
    return None if explicit is None else float(explicit)


class SpanFolder(FaultChains):
    """Fold a (merged) event stream into spans, one event at a time."""

    def __init__(
        self,
        recent: int = 256,
        sink: Callable[[Span], None] | None = None,
        keep_all: bool = False,
        participation: bool = True,
    ) -> None:
        super().__init__()
        self.recent: deque[Span] = deque(maxlen=recent)
        self.sink = sink
        self.completed: list[Span] | None = [] if keep_all else None
        self.participation = participation
        #: Counters by span kind, finished spans only.
        self.finished: dict[str, int] = {BARRIER: 0, PARTICIPATION: 0, FAULT_CHAIN: 0}
        self.started: dict[str, int] = dict(self.finished)
        # -- open state ------------------------------------------------
        self._open_round: Span | None = None
        #: pid -> (first time, last time, event count) inside the round.
        self._round_activity: dict[int, tuple[float, float, int]] = {}

    # -- plumbing ------------------------------------------------------
    def _open(self, kind: str, name: str, start: float, **kw: Any) -> Span:
        self.started[kind] = self.started.get(kind, 0) + 1
        return super()._open(kind, name, start, **kw)

    def _finish(self, span: Span, end: float, status: str) -> None:
        super()._finish(span, end, status)
        self.finished[span.kind] = self.finished.get(span.kind, 0) + 1
        self.recent.append(span)
        if self.completed is not None:
            self.completed.append(span)
        if self.sink is not None:
            self.sink(span)

    @property
    def open_spans(self) -> list[Span]:
        out: list[Span] = []
        if self._open_round is not None:
            out.append(self._open_round)
        for queue in self._open_faults.values():
            out.extend(queue)
        out.extend(self._awaiting_clean)
        return out

    def recent_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.recent]

    def context(self) -> dict[str, Any] | None:
        """The most relevant span right now: the open barrier round if
        any, else the most recently finished span -- what a violation
        surfaced at this moment should be attached to."""
        if self._open_round is not None:
            return self._open_round.to_dict()
        if self.recent:
            return self.recent[-1].to_dict()
        return None

    # -- folding -------------------------------------------------------
    def _parent(self) -> int | None:
        return self._open_round.span_id if self._open_round else None

    def feed(self, event: ObsEvent) -> Sequence[Span]:
        """Fold one event; returns the fault chains it closed."""
        kind = event.kind
        if kind == PHASE_START:
            if self._open_round is not None:
                # An instance started over a still-open one (the masking
                # monitor flags this); close what we had so the feed
                # stays consistent.
                self._close_round(event.time, "interrupted", None)
            phase = event.data.get("phase")
            self._open_round = self._open(
                BARRIER, f"round-{phase}", event.time, pid=event.pid,
                attrs={"phase": phase},
            )
            self._round_activity = {}
        elif kind == PHASE_END:
            success = bool(event.data.get("success"))
            self._close_round(event.time, "ok" if success else "failed", event)
        elif self.participation and kind in (MSG_SEND, MSG_RECV, TOKEN_PASS):
            if self._open_round is not None and event.pid is not None:
                first, _, count = self._round_activity.get(
                    event.pid, (event.time, event.time, 0)
                )
                self._round_activity[event.pid] = (first, event.time, count + 1)
        return super().feed(event)

    def _close_round(
        self, time: float, status: str, event: ObsEvent | None
    ) -> None:
        round_span = self._open_round
        if round_span is None:
            return
        self._open_round = None
        for pid in sorted(self._round_activity):
            first, last, count = self._round_activity[pid]
            part = self._open(
                PARTICIPATION,
                f"{round_span.name}/p{pid}",
                first,
                pid=pid,
                parent_id=round_span.span_id,
                attrs={"events": count},
            )
            self._finish(part, last, "ok")
        self._round_activity = {}
        if event is not None:
            round_span.attrs["success"] = bool(event.data.get("success"))
        self._finish(round_span, time, status)

    def feed_all(self, events: Iterable[ObsEvent]) -> "SpanFolder":
        for event in events:
            self.feed(event)
        return self

    def finish(self, time: float) -> None:
        """End of stream: close whatever is still open, honestly."""
        if self._open_round is not None:
            self._close_round(time, "unfinished", None)
        super().finish(time)
