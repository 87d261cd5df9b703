"""Adaptive retransmission in the net runtime.

* :class:`RttEstimator` follows RFC 6298: the first sample, the
  smoothed update, and the clamp to ``[RTO_MIN, ceiling]``;
* ``send_until`` takes a round-trip sample only from a reply to a frame
  that was never resent (Karn's rule);
* the tree's ``aack`` wave: an acked child stops resending, a
  restarted parent re-arms it, and a forged or out-of-topology ``aack``
  is quarantined and strikes its sender.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.net import NetConfig, run_sync
from repro.net.frames import Message
from repro.net.node import RTO_G, RTO_MIN, NetNode, RttEstimator, Timing
from repro.net.transport import create_mem_transports
from repro.net.tree import TreeBarrierNode
from repro.obs.events import QUARANTINE
from repro.obs.tracer import Tracer

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ----------------------------------------------------------------------
# RFC 6298 arithmetic
# ----------------------------------------------------------------------
class TestRttEstimator:
    def test_initial_rto_before_any_sample(self):
        est = RttEstimator(0.04, 0.4)
        assert est.srtt is None
        assert est.rto == 0.04

    def test_first_sample(self):
        est = RttEstimator(0.04, 0.4)
        est.sample(0.01)
        assert est.srtt == pytest.approx(0.01)
        assert est.rttvar == pytest.approx(0.005)
        assert est.rto == pytest.approx(0.01 + 4 * 0.005)

    def test_update_uses_the_old_srtt_for_the_variance(self):
        est = RttEstimator(0.04, 0.4)
        est.sample(0.01)
        est.sample(0.03)
        rttvar = 0.75 * 0.005 + 0.25 * abs(0.01 - 0.03)
        srtt = 0.875 * 0.01 + 0.125 * 0.03
        assert est.rttvar == pytest.approx(rttvar)
        assert est.srtt == pytest.approx(srtt)
        assert est.rto == pytest.approx(srtt + 4 * rttvar)

    def test_variance_term_is_at_least_the_granularity(self):
        est = RttEstimator(0.04, 0.4)
        for _ in range(200):
            est.sample(0.02)
        assert est.rttvar < RTO_G / 4
        assert est.rto == pytest.approx(0.02 + RTO_G)

    def test_clamped_to_the_floor(self):
        est = RttEstimator(0.04, 0.4)
        est.sample(0.0001)
        assert est.rto == RTO_MIN

    def test_clamped_to_the_ceiling(self):
        est = RttEstimator(0.04, 0.4)
        est.sample(1.0)
        assert est.rto == 0.4

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=RTO_MIN, max_value=5.0),
    )
    def test_rto_stays_within_floor_and_ceiling(self, samples, ceiling):
        est = RttEstimator(min(0.04, ceiling), ceiling)
        for rtt in samples:
            est.sample(rtt)
            assert RTO_MIN <= est.rto <= ceiling


# ----------------------------------------------------------------------
# send_until and Karn's rule
# ----------------------------------------------------------------------
class _Node(NetNode):
    def neighbors(self) -> list[int]:
        return [1]


def _replied_after(delay: float, timing: Timing) -> tuple[NetNode, int]:
    """Reply to one ``send_until`` after ``delay`` s; (node, frames sent)."""

    async def go() -> tuple[NetNode, int]:
        transports = create_mem_transports(2)
        node = _Node(0, 2, transports[0], timing=timing)
        replied = False
        task = asyncio.ensure_future(
            node.send_until(1, "push", {}, lambda: replied)
        )
        await asyncio.sleep(delay)
        replied = True
        node._notify()
        await asyncio.wait_for(task, 1.0)
        return node, transports[1].drain()

    return asyncio.run(go())


def test_reply_to_a_first_send_is_a_sample():
    node, sent = _replied_after(0.01, Timing(resend=0.2, resend_max=0.4))
    assert sent == 1 and node.stats["resends"] == 0
    est = node.rtt(1)
    assert est.srtt is not None and 0.005 <= est.srtt < 0.2
    assert est.rto < 0.2  # adapted down from the initial RTO


def test_karn_reply_to_a_resent_frame_is_no_sample():
    node, sent = _replied_after(0.05, Timing(resend=0.01, resend_max=0.4))
    assert sent >= 2 and node.stats["resends"] == sent - 1
    est = node.rtt(1)
    assert est.srtt is None
    assert est.rto == 0.01


def test_send_until_holds_without_timer_once_acked():
    """Acked but not done: no frame and no timer until ``acked()``
    turns false again, then sending resumes."""

    async def go() -> tuple[int, int, int]:
        transports = create_mem_transports(2)
        node = _Node(0, 2, transports[0], timing=Timing(resend=0.01))
        state = {"acked": False, "done": False}
        task = asyncio.ensure_future(
            node.send_until(
                1,
                "push",
                {},
                lambda: state["done"],
                acked=lambda: state["acked"],
            )
        )
        await asyncio.sleep(0.002)
        state["acked"] = True
        node._notify()
        await asyncio.sleep(0.1)  # ten initial RTOs: nothing is resent
        held = transports[1].drain()
        state["acked"] = False
        node._notify()
        await asyncio.sleep(0.002)
        resumed = transports[1].drain()
        state["done"] = True
        node._notify()
        await asyncio.wait_for(task, 1.0)
        return held, resumed, node.stats["resends"]

    held, resumed, resends = asyncio.run(go())
    assert held == 1
    assert resumed == 1
    assert resends == 1


# ----------------------------------------------------------------------
# The acked arrive wave
# ----------------------------------------------------------------------
def test_parent_crash_restart_after_aack_does_not_stall_the_child():
    """Node 1 crashes on entering round 2, after acking its children's
    round-1 arrivals and before releasing them.  The children stopped
    resending on the ack; only the restarted parent's ``resync``
    re-arms them, so without it the barrier would stall."""
    plan = FaultPlan(nprocs=7, events=(FaultEvent(pid=1, when=2.0),), seed=5)
    result = run_sync(
        NetConfig(nodes=7, barriers=4, seed=5, plan=plan, timeout_s=20.0)
    )
    assert result.ok, result.render()
    assert result.completed == 4
    assert result.faults_fired == 1
    assert result.wall_s < 5.0


def test_forged_and_out_of_topology_aack_quarantined_and_struck():
    """Node 1 (parent 0, children 3 and 4) rejects an ``aack`` from its
    child and a future-round ``aack`` from its parent; each strikes the
    authentic sender and neither counts as an acknowledgement."""

    async def go() -> tuple[TreeBarrierNode, Tracer]:
        transports = create_mem_transports(5)
        tracer = Tracer()
        node = TreeBarrierNode(1, 5, transports[1], barriers=3, tracer=tracer)
        node.start_loops()
        for src, payload in ((3, {"round": 0}), (0, {"round": 7})):
            body = Message(kind="aack", src=src, dst=1, seq=0, payload=payload)
            await transports[src].send(1, body.to_bytes())
        await node.wait_for(lambda: node.stats["quarantined"] >= 2, poll=0.01)
        await node.stop()
        return node, tracer

    node, tracer = asyncio.run(asyncio.wait_for(go(), 5.0))
    reasons = {
        (e.data["peer"], e.data["reason"])
        for e in tracer.events
        if e.kind == QUARANTINE
    }
    assert reasons == {(3, "topology"), (0, "future-round")}
    assert node._strikes == {3: 1, 0: 1}
    assert node._arrive_acked == -1
