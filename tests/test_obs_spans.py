"""Span folding: the live hierarchy rebuilt over the flat event stream.

The folder's fault chains are the one fault-attribution fold: the
causal chains (one per fault), the summary and the metrics histogram
(one sample per recovery) are views over them and must agree.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import RECOVERY, MetricsObserver, Tracer, metrics_from_trace, summarize
from repro.obs.causal import build_chains
from repro.obs.spans import BARRIER, FAULT_CHAIN, PARTICIPATION, SpanFolder


def narrated_trace() -> list:
    """Two rounds; a detected fault in round 0 recovers and becomes
    clean at round 1's successful end."""
    t = Tracer()
    t.phase_start(1.0, 0)
    t.msg_send(1.5, 1, 0)
    t.msg_recv(1.6, 1, 0)
    t.fault(2.0, 2, detectable=True)
    t.detect(2.5, 0, peer=2)
    t.recovery(3.0, 2)
    t.phase_end(4.0, 0, False)
    t.phase_start(4.5, 1)
    t.msg_send(4.6, 2, 0)
    t.phase_end(5.0, 1, True)
    return t.events


def folded(events, **kw) -> SpanFolder:
    folder = SpanFolder(keep_all=True, **kw).feed_all(events)
    folder.finish(events[-1].time if events else 0.0)
    return folder


def spans_of(folder: SpanFolder, kind: str) -> list:
    assert folder.completed is not None
    return [s for s in folder.completed if s.kind == kind]


def test_barrier_spans_carry_status_and_phase():
    folder = folded(narrated_trace())
    rounds = spans_of(folder, BARRIER)
    assert [s.status for s in rounds] == ["failed", "ok"]
    assert [s.attrs["phase"] for s in rounds] == [0, 1]
    assert rounds[0].duration == pytest.approx(3.0)
    assert folder.open_spans == []


def test_participation_spans_nest_under_their_round():
    folder = folded(narrated_trace())
    rounds = {s.span_id: s for s in spans_of(folder, BARRIER)}
    parts = spans_of(folder, PARTICIPATION)
    assert parts, "message activity inside a round must fold"
    for part in parts:
        assert part.parent_id in rounds
        assert part.attrs["events"] >= 1
    # msg_send(1.5, src=1) and msg_recv pid=dst=0 in round 0;
    # msg_send(4.6, src=2) in round 1.
    assert {(p.pid, p.parent_id == parts[0].parent_id) for p in parts} == {
        (0, True),
        (1, True),
        (2, False),
    }


def test_fault_chain_matches_causal_attribution():
    events = narrated_trace()
    folder = folded(events)
    (chain,) = build_chains(events)
    (span,) = spans_of(folder, FAULT_CHAIN)
    assert span.status == "recovered"
    assert span.pid == chain.pid == 2
    assert span.attrs["detect_time"] == chain.detect_time
    assert span.attrs["recovery_time"] == chain.recovery_time
    assert span.attrs["recovery_latency"] == chain.recovery_latency
    assert span.attrs["clean_phase_time"] == chain.clean_phase_time
    assert span.attrs["total_latency"] == chain.total_latency
    assert span.duration == pytest.approx(chain.total_latency)


def assert_span_is_chain(span, chain) -> None:
    assert span.start == chain.fault_time
    assert span.pid == chain.pid
    assert span.attrs["detectable"] == chain.detectable
    assert span.attrs.get("detect_time") == chain.detect_time
    assert span.attrs.get("recovery_time") == chain.recovery_time
    assert span.attrs.get("system_wide_recovery", False) == chain.system_wide_recovery
    assert span.attrs.get("recovery_latency") == chain.recovery_latency
    assert span.attrs.get("total_latency") == chain.total_latency


PIDS = st.sampled_from([None, 0, 1, 2])
OPS = st.one_of(
    st.tuples(st.just("fault"), PIDS, st.booleans()),
    st.tuples(st.just("detect")),
    st.tuples(
        st.just("recovery"),
        PIDS,
        st.one_of(st.none(), st.floats(0.0, 5.0), st.just(math.inf)),
    ),
    st.tuples(st.just("phase_end"), st.booleans()),
)


def stream_of(ops) -> list:
    t = Tracer()
    for i, op in enumerate(ops):
        time = float(i + 1)
        if op[0] == "fault":
            t.fault(time, op[1], detectable=op[2])
        elif op[0] == "detect":
            t.detect(time, 0)
        elif op[0] == "recovery":
            data = {} if op[2] is None else {"latency": op[2]}
            t.recovery(time, op[1], **data)
        else:
            t.phase_end(time, i, op[1])
    return t.events


@settings(max_examples=200, deadline=None)
@example(
    ops=[
        ("fault", 1, True),
        ("fault", 3, False),
        ("detect",),
        ("recovery", None, 1.25),  # system-wide, explicit latency
        ("phase_end", False),
        ("phase_end", True),
    ]
)
@given(ops=st.lists(OPS, max_size=30))
def test_fault_chain_agreement_on_interleaved_faults(ops):
    """Random fault/detect/recovery/phase_end streams: the summary and
    the metrics histogram (one sample per recovery), the causal chains
    (one per fault) and a live-plane style shared fold all agree."""
    events = stream_of(ops)
    chains = build_chains(events)

    # Per-recovery projection of the chains: the episode's earliest
    # chain, else the engine's explicit latency.
    expected: list[float] = []
    klasses: dict[str, list[float]] = {}
    for event in events:
        if event.kind != RECOVERY:
            continue
        closed = [c for c in chains if c.recovery_time == event.time]
        if closed:
            latency, klass = closed[0].recovery_latency, closed[0].klass
        elif "latency" in event.data:
            latency, klass = event.data["latency"], "unattributed"
        else:
            continue
        expected.append(latency)
        if math.isfinite(latency):
            klasses.setdefault(klass, []).append(latency)
    assert summarize(events).recovery_latencies == expected

    registry = metrics_from_trace(events)
    hist = registry["barrier_recovery_latency"]
    finite = [x for x in expected if math.isfinite(x)]
    counts = {k: hist.count(klass=k) for k in ("detectable", "undetectable", "unattributed")}
    assert sum(counts.values()) == len(finite)
    assert {k: n for k, n in counts.items() if n} == {k: len(v) for k, v in klasses.items()}
    assert sum(hist.sum(klass=k) for k in counts) == pytest.approx(sum(finite))

    # The live plane folds each event once and hands the observer the
    # folder's verdict.
    folder = SpanFolder(keep_all=True)
    observer = MetricsObserver()
    for event in events:
        observer.fold(event, folder.feed(event))
    folder.finish(events[-1].time if events else 0.0)
    assert observer.finalize().to_json() == registry.to_json()
    spans = sorted(spans_of(folder, FAULT_CHAIN), key=lambda s: s.span_id)
    assert len(spans) == len(chains)
    for span, chain in zip(spans, chains):
        assert_span_is_chain(span, chain)


def test_explicit_latency_recovery_closes_the_episode():
    """A recovery carrying the engine's latency (measured from the
    episode's first fault) returns the system to a start state: it
    closes every open chain, not only its own pid's."""
    t = Tracer()
    t.fault(1.0, 11)
    t.fault(1.2, 0)
    t.recovery(1.5, 0, latency=0.5)
    t.phase_end(2.0, 0, True)
    events = t.events

    first, second = build_chains(events)
    assert (first.pid, first.recovery_time, first.recovery_latency) == (11, 1.5, 0.5)
    assert (second.pid, second.recovery_time) == (0, 1.5)
    assert second.recovery_latency == pytest.approx(0.3)
    assert first.clean_phase_time == second.clean_phase_time == 2.0
    assert summarize(events).recovery_latencies == [0.5]
    hist = metrics_from_trace(events)["barrier_recovery_latency"]
    assert hist.count(klass="detectable") == 1
    assert hist.sum(klass="detectable") == 0.5
    spans = sorted(spans_of(folded(events), FAULT_CHAIN), key=lambda s: s.span_id)
    assert len(spans) == 2
    for span, chain in zip(spans, (first, second)):
        assert_span_is_chain(span, chain)


def test_fig5_chains_close_at_the_first_recovery_after_their_fault():
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

    t = Tracer()
    FTTreeBarrierSim(
        nprocs=16,
        config=SimConfig(latency=0.02, fault_frequency=0.3, seed=0),
        tracer=t,
    ).run(phases=30)
    recoveries = [e.time for e in t.events if e.kind == RECOVERY]
    chains = build_chains(t.events)
    assert chains and recoveries
    for chain in chains:
        first = min((r for r in recoveries if r >= chain.fault_time), default=None)
        assert chain.recovery_time == first
        if first is not None:
            assert chain.recovery_latency == pytest.approx(first - chain.fault_time)


def test_unrecovered_fault_closes_honestly_at_finish():
    t = Tracer()
    t.phase_start(1.0, 0)
    t.fault(2.0, 1)
    t.phase_end(3.0, 0, False)
    folder = folded(t.events)
    (span,) = spans_of(folder, FAULT_CHAIN)
    assert span.status == "unrecovered"
    (chain,) = build_chains(t.events)
    assert chain.recovery_time is None


def test_interrupted_round_is_closed_by_the_next_start():
    t = Tracer()
    t.phase_start(1.0, 0)
    t.phase_start(2.0, 1)  # round 0 never ended
    t.phase_end(3.0, 1, True)
    folder = folded(t.events)
    rounds = spans_of(folder, BARRIER)
    assert [s.status for s in rounds] == ["interrupted", "ok"]


def test_recent_ring_is_bounded_and_counters_are_not():
    t = Tracer()
    for r in range(20):
        t.phase_start(float(2 * r + 1), r)
        t.phase_end(float(2 * r + 2), r, True)
    folder = SpanFolder(recent=4).feed_all(t.events)
    assert len(folder.recent) == 4
    assert folder.finished[BARRIER] == 20
    assert folder.started[BARRIER] == 20
    names = [d["name"] for d in folder.recent_dicts()]
    assert names == ["round-16", "round-17", "round-18", "round-19"]


def test_context_prefers_the_open_round():
    t = Tracer()
    t.phase_start(1.0, 0)
    folder = SpanFolder().feed_all(t.events)
    ctx = folder.context()
    assert ctx is not None and ctx["kind"] == BARRIER and ctx["end"] is None
    t.phase_end(2.0, 0, True)
    folder.feed(t.events[-1])
    ctx = folder.context()
    assert ctx is not None and ctx["status"] == "ok"


def test_span_render_and_sink():
    seen = []
    t = Tracer()
    t.phase_start(1.0, 0)
    t.phase_end(2.0, 0, True)
    SpanFolder(sink=seen.append).feed_all(t.events)
    (span,) = seen
    text = span.render()
    assert "barrier" in text and "round-0" in text and "ok" in text
