"""Tests for the event queue, resources, and simulator loop."""

import pytest

from repro.core.machine import Machine
from repro.engine import EventQueue, Resource, Simulator
from repro.engine.simulator import DeadlockError
from repro.harness.spec import ExperimentSpec
from repro.network.messages import MsgType


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        out = []
        q.push(5, out.append, "b")
        q.push(1, out.append, "a")
        q.push(9, out.append, "c")
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert out == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push(7, order.append, i)
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert order == list(range(10))

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(0, lambda: None)
        assert q and len(q) == 1

    def test_rejects_negative_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1, lambda: None)


class TestResource:
    def test_uncontended_reserve(self):
        r = Resource()
        assert r.reserve(10, 5) == 15
        assert r.free_at == 15

    def test_contended_reserve_queues(self):
        r = Resource()
        assert r.reserve(0, 10) == 10
        assert r.reserve(3, 10) == 20  # waits for the first

    def test_reserve_after_idle_gap(self):
        r = Resource()
        r.reserve(0, 5)
        assert r.reserve(100, 5) == 105

    def test_zero_duration(self):
        r = Resource()
        assert r.reserve(5, 0) == 5


class TestSimulator:
    def test_runs_events_in_order(self):
        sim = Simulator()
        seen = []
        sim.at(10, lambda: seen.append(("a", sim.now)))
        sim.at(5, lambda: seen.append(("b", sim.now)))
        end = sim.run()
        assert seen == [("b", 5), ("a", 10)]
        assert end == 10

    def test_after_is_relative(self):
        sim = Simulator()
        times = []

        def first():
            sim.after(7, lambda: times.append(sim.now))

        sim.at(3, first)
        sim.run()
        assert times == [10]

    def test_rejects_past_events(self):
        sim = Simulator()
        sim.at(10, lambda: sim.at(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_cascading_events(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100:
                sim.after(1, tick)

        sim.at(0, tick)
        assert sim.run() == 99
        assert count[0] == 100

    def test_max_cycles_guard(self):
        sim = Simulator(max_cycles=50)

        def forever():
            sim.after(10, forever)

        sim.at(0, forever)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_event_count(self):
        sim = Simulator()
        for i in range(5):
            sim.at(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5


#: A one-node receive-NIC list for remote-lane entries the tests pop by
#: hand (``EventQueue.pop`` leaves it unbooked).
NIC = [0]


class TestEventQueueTieBreak:
    """The explicit same-timestamp tie-break (two lanes)."""

    def _drain(self, q):
        out = []
        while q:
            _, cb, args = q.pop()
            cb(*args)
        return out

    def test_local_fifo_at_equal_timestamps(self):
        q = EventQueue()
        order = []
        # Interleave pushes at two equal-time groups: each group must
        # fire in exactly its insertion order (explicit monotonic seq,
        # never callback comparison).
        for i in range(8):
            q.push(5, order.append, ("t5", i))
            q.push(9, order.append, ("t9", i))
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert order == [("t5", i) for i in range(8)] + \
                        [("t9", i) for i in range(8)]

    def test_local_lane_fires_before_remote_at_equal_time(self):
        q = EventQueue()
        order = []
        q.push_remote(7, 0, 0, order.append, ("remote",), NIC, 0, 0)
        q.push(7, order.append, "local")
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert order == ["local", "remote"]

    def test_remote_lane_orders_by_src_then_seq(self):
        q = EventQueue()
        order = []
        # Inserted in scrambled order; must fire sorted by (src, seq) —
        # the canonical key that makes remote order insertion-independent.
        for src, seq in [(2, 0), (0, 1), (1, 5), (0, 0), (1, 2)]:
            q.push_remote(4, src, seq, order.append, ((src, seq),), NIC, 0, 0)
        while q:
            _, cb, args = q.pop()
            cb(*args)
        assert order == [(0, 0), (0, 1), (1, 2), (1, 5), (2, 0)]

    def test_remote_rejects_negative_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push_remote(-1, 0, 0, lambda: None, (), NIC, 0, 0)


class TestDeterminism256:
    """256-node kvstore on every protocol, with the invariant checker as
    the oracle: the run must finish with every check passing."""

    @pytest.mark.parametrize(
        "protocol", ["sc", "erc", "lrc", "lrc-ext", "tardis"]
    )
    def test_kvstore_256(self, protocol):
        spec = ExperimentSpec(
            app="kvstore", protocol=protocol, n_procs=256, classify=True,
            small=True, check_invariants=True,
        )
        machine = spec.machine_config().build()
        result = machine.replay(spec.recorded_stream())
        assert machine.checker.checks_run > 0
        assert result.exec_time > 0


class TestEventsPerMessage:
    """Literal event and per-type message counts, recorded before the
    receive NIC moved into the event loop.  A change to the arrival path
    that adds or drops an event (or a message) fails here in seconds."""

    CASES = {
        ("kvstore", "lrc", 16): (14378, {
            "READ_REQ": 1422, "WRITE_REQ": 861, "DATA_REPLY": 1454,
            "ACK": 1997, "WRITE_NOTICE": 745, "WRITE_THROUGH": 871,
            "RELINQUISH": 1396, "LOCK_REQ": 768, "LOCK_GRANT": 768,
            "LOCK_RELEASE": 768, "BARRIER_ARRIVE": 32, "BARRIER_EXIT": 32,
        }),
        ("kvstore", "tardis", 16): (12210, {
            "READ_REQ": 1535, "WRITE_REQ": 32, "DATA_REPLY": 1567,
            "ACK": 1742, "WRITE_THROUGH": 871, "LOCK_REQ": 768,
            "LOCK_GRANT": 768, "LOCK_RELEASE": 768, "BARRIER_ARRIVE": 32,
            "BARRIER_EXIT": 32, "TS_BUMP": 871,
        }),
        ("gauss", "lrc", 4): (11107, {
            "READ_REQ": 643, "WRITE_REQ": 267, "DATA_REPLY": 643,
            "ACK": 3067, "WRITE_NOTICE": 97, "WRITE_THROUGH": 2800,
            "EVICT_NOTICE": 322, "RELINQUISH": 222, "BARRIER_ARRIVE": 4,
            "BARRIER_EXIT": 4, "FLAG_SET": 47, "FLAG_WAIT": 141,
            "FLAG_GRANT": 141,
        }),
        # Recorded before write and read-write spans opened their
        # coalescing-buffer entry in one protocol call.
        ("gauss", "tardis", 4): (16282, {
            "READ_REQ": 2560, "DATA_REPLY": 2560, "ACK": 3567,
            "WRITE_THROUGH": 2812, "BARRIER_ARRIVE": 4, "BARRIER_EXIT": 4,
            "FLAG_SET": 47, "FLAG_WAIT": 141, "FLAG_GRANT": 141,
            "TS_BUMP": 755,
        }),
        ("fft", "lrc-ext", 4): (5412, {
            "READ_REQ": 384, "WRITE_REQ": 128, "DATA_REPLY": 384,
            "ACK": 1536, "WRITE_NOTICE": 128, "WRITE_THROUGH": 1408,
            "EVICT_NOTICE": 128, "RELINQUISH": 128, "BARRIER_ARRIVE": 44,
            "BARRIER_EXIT": 44,
        }),
    }

    @pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: "-".join(map(str, c)))
    def test_events_and_messages_pinned(self, case):
        app, protocol, n_procs = case
        events, counts = self.CASES[case]
        spec = ExperimentSpec(app, protocol, n_procs=n_procs, small=True)
        # No stall watchdog: its checks are events too.
        machine = Machine(spec.config(), protocol=protocol, stall_cycles=0)
        machine.replay(spec.recorded_stream())
        assert machine.sim.events_processed == events
        assert {
            MsgType(k).name: c
            for k, c in enumerate(machine.fabric.stats.count) if c
        } == counts
