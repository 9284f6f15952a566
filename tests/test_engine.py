"""Tests for the event queue, resources, and simulator loop."""

import pytest

from repro.engine import EventQueue, Resource, Simulator
from repro.engine.simulator import DeadlockError


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

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(42, lambda: None)
        assert q.peek_time() == 42

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

    def test_busy_accounting(self):
        r = Resource()
        r.reserve(0, 5)
        r.reserve(0, 7)
        assert r.busy_cycles == 12
        assert r.requests == 2

    def test_reset(self):
        r = Resource()
        r.reserve(0, 5)
        r.reset()
        assert r.free_at == 0 and r.busy_cycles == 0


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
