"""End-to-end smoke tests: tiny hand-written programs on all protocols."""

import pytest

from repro import Machine, SystemConfig
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    READ_RUN,
    RELEASE,
    RW_RUN,
    WRITE,
    WRITE_RUN,
)

PROTOCOLS = ["sc", "erc", "lrc", "lrc-ext", "tardis"]


def cfg(n=4, **kw):
    kw.setdefault("cache_size", 8 * 128)  # 8 lines: tiny, forces evictions
    return SystemConfig.scaled(n_procs=n, **kw)


@pytest.mark.parametrize("proto", PROTOCOLS)
class TestSingleProcessor:
    def test_read_only_program(self, proto):
        m = Machine(cfg(1), protocol=proto)
        seg = m.space.alloc(4096, "a")

        def prog(pid):
            yield (READ_RUN, seg.base, 64, 8)
            yield (READ_RUN, seg.base, 64, 8)  # second pass: all hits

        r = m.run([prog(0)])
        st = r.stats.procs[0]
        assert st.reads == 128
        # 4096 bytes / 128-byte lines touched by 64*8=512 bytes -> 4 lines.
        assert st.read_misses == 4
        assert st.finish_time > 128

    def test_write_program_completes(self, proto):
        m = Machine(cfg(1), protocol=proto)
        seg = m.space.alloc(4096, "a")

        def prog(pid):
            yield (WRITE_RUN, seg.base, 64, 8)
            yield (FENCE,)

        r = m.run([prog(0)])
        st = r.stats.procs[0]
        assert st.writes == 64
        assert st.misses > 0

    def test_compute_advances_time(self, proto):
        m = Machine(cfg(1), protocol=proto)

        def prog(pid):
            yield (COMPUTE, 5000)

        r = m.run([prog(0)])
        assert r.stats.procs[0].finish_time >= 5000
        assert r.stats.procs[0].cpu_cycles >= 5000

    def test_rw_run(self, proto):
        m = Machine(cfg(1), protocol=proto)
        seg = m.space.alloc(4096, "a")

        def prog(pid):
            yield (RW_RUN, seg.base, 32, 8)
            yield (FENCE,)

        r = m.run([prog(0)])
        st = r.stats.procs[0]
        assert st.reads == 32 and st.writes == 32


@pytest.mark.parametrize("proto", PROTOCOLS)
class TestMultiProcessor:
    def test_barrier_joins_everyone(self, proto):
        n = 4
        m = Machine(cfg(n), protocol=proto)

        def prog(pid):
            yield (COMPUTE, 100 * (pid + 1))
            yield (BARRIER, 0)

        r = m.run([prog(p) for p in range(n)])
        # Everyone leaves the barrier after the slowest arrival.
        finish = [p.finish_time for p in r.stats.procs]
        assert min(finish) >= 400
        # Earlier arrivals accumulated sync wait.
        assert r.stats.procs[0].sync_stall > r.stats.procs[3].sync_stall

    def test_lock_mutual_progress(self, proto):
        n = 4
        m = Machine(cfg(n), protocol=proto)
        seg = m.space.alloc(4096, "shared")

        def prog(pid):
            for _ in range(3):
                yield (ACQUIRE, 7)
                yield (READ, seg.base)
                yield (WRITE, seg.base)
                yield (RELEASE, 7)
            yield (BARRIER, 0)

        r = m.run([prog(p) for p in range(n)])
        assert all(p.done for p in (m.nodes[i].proc for i in range(n)))
        total_acq = sum(p.acquires for p in r.stats.procs)
        assert total_acq == 12

    def test_producer_consumer_flag(self, proto):
        """Producer writes data then releases a lock the consumer takes."""
        n = 2
        m = Machine(cfg(n), protocol=proto)
        data = m.space.alloc(4096, "data")

        def producer(pid):
            yield (ACQUIRE, 1)
            yield (WRITE_RUN, data.base, 16, 8)
            yield (RELEASE, 1)
            yield (BARRIER, 0)

        def consumer(pid):
            yield (COMPUTE, 20000)  # ensure producer went first
            yield (ACQUIRE, 1)
            yield (READ_RUN, data.base, 16, 8)
            yield (RELEASE, 1)
            yield (BARRIER, 0)

        r = m.run([producer(0), consumer(1)])
        assert r.stats.procs[1].reads == 16

    def test_false_sharing_pattern_completes(self, proto):
        """Two writers in disjoint words of the same line, no sync."""
        n = 2
        m = Machine(cfg(n), protocol=proto)
        seg = m.space.alloc(4096, "line")

        def prog(pid):
            for _ in range(50):
                yield (WRITE, seg.base + 8 * pid)
                yield (READ, seg.base + 8 * pid)
            yield (BARRIER, 0)

        r = m.run([prog(p) for p in range(n)])
        assert r.stats.procs[0].writes == 50
        assert r.stats.procs[1].writes == 50


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_determinism(proto):
    """Identical configurations produce identical cycle counts."""

    def build():
        m = Machine(cfg(4), protocol=proto)
        seg = m.space.alloc(8192, "a")

        def prog(pid):
            yield (RW_RUN, seg.base + pid * 32, 64, 8)
            yield (BARRIER, 0)
            yield (READ_RUN, seg.base, 64, 8)
            yield (BARRIER, 1)

        return m.run([prog(p) for p in range(4)])

    a, b = build(), build()
    assert a.exec_time == b.exec_time
    assert a.traffic.total_messages == b.traffic.total_messages
    for pa, pb in zip(a.stats.procs, b.stats.procs):
        assert pa.finish_time == pb.finish_time
        assert pa.misses == pb.misses


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Machine(cfg(2), protocol="mesif")


def test_wrong_program_count_rejected():
    m = Machine(cfg(2), protocol="lrc")
    with pytest.raises(ValueError):
        m.run([iter(())])


def test_unrecordable_op_rejected_before_any_event():
    # Machine.run packs every program before it starts a CPU, so a bad
    # op in processor 1's program fails before processor 0's valid ops
    # run.
    m = Machine(cfg(2), protocol="lrc")
    seg = m.space.alloc(4096, "d")

    def good():
        yield (READ, seg.base)
        yield (COMPUTE, 10)

    def bad():
        yield (COMPUTE, 5)
        yield (99, seg.base)

    with pytest.raises(ValueError, match="unrecordable op"):
        m.run([good(), bad()])
    assert m.sim.events_processed == 0
    assert m.stats.procs[0].reads == 0


def test_machine_single_use():
    m = Machine(cfg(1), protocol="lrc")

    def prog(pid):
        yield (COMPUTE, 10)

    m.run([prog(0)])
    with pytest.raises(RuntimeError):
        m.run([prog(0)])
