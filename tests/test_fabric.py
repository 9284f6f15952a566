"""Tests for the mesh topology, the message fabric timing model and the
seeded delivery jitter."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.machine import Machine
from repro.engine.simulator import Simulator
from repro.harness.spec import ExperimentSpec
from repro.network.fabric import Fabric
from repro.network.jitter import JITTER_CYCLES, JitterFabric
from repro.network.messages import (
    DATA_BEARING,
    RELIABILITY_COUNTERS,
    MessageStats,
    MsgType,
)
from repro.network.topology import Mesh


def make_fabric(n=16):
    sim = Simulator()
    return Fabric(SystemConfig(n_procs=n), sim), sim


class TestMesh:
    def test_dims_cover_nodes(self):
        m = Mesh(SystemConfig(n_procs=16))
        assert m.width * m.height == 16

    def test_coords_roundtrip(self):
        m = Mesh(SystemConfig(n_procs=16))
        for node in range(16):
            x, y = m.coords(node)
            assert m.node_at(x, y) == node

    def test_hop_counts_match_manhattan(self):
        m = Mesh(SystemConfig(n_procs=16))
        for a in range(16):
            for b in range(16):
                ax, ay = m.coords(a)
                bx, by = m.coords(b)
                assert m.hops(a, b) == abs(ax - bx) + abs(ay - by)

    def test_route_endpoints_and_length(self):
        m = Mesh(SystemConfig(n_procs=64))
        path = list(m.route(0, 63))
        assert path[0] == 0 and path[-1] == 63
        assert len(path) == m.hops(0, 63) + 1

    def test_route_is_dimension_order(self):
        m = Mesh(SystemConfig(n_procs=16))
        path = list(m.route(0, 15))
        # X varies first, then Y.
        ys = [m.coords(n)[1] for n in path]
        assert ys == sorted(ys)

    def test_average_distance(self):
        m = Mesh(SystemConfig(n_procs=4))  # 2x2
        # distances: each node has two at 1 hop and one at 2 hops.
        assert m.average_distance() == pytest.approx((2 * 1 + 2) / 3)

    def test_single_node_mesh(self):
        m = Mesh(SystemConfig(n_procs=1))
        assert m.average_distance() == 0.0
        assert m.hops(0, 0) == 0


class TestFabricTiming:
    def test_control_message_latency(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.ACK, 0, lambda t: got.append(t))
        sim.run()
        # 3 hops * (2+1) cycles, no serialization term.
        assert got == [9]

    def test_data_message_latency(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(t))
        sim.run()
        # 3 hops * 3 + 128/2 serialization.
        assert got == [9 + 64]

    def test_local_delivery_is_free(self):
        f, sim = make_fabric(16)
        got = []
        f.send(5, 5, MsgType.DATA_REPLY, 42, lambda t: got.append(t))
        sim.run()
        assert got == [42]

    def test_control_and_data_use_separate_channels(self):
        f, sim = make_fabric(16)
        got = {}
        # A data message saturates the data channel...
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.setdefault("data", t))
        # ...but a control message sent right after is not delayed by it.
        f.send(0, 3, MsgType.ACK, 0, lambda t: got.setdefault("ctl", t))
        sim.run()
        assert got["ctl"] == 9

    def test_same_channel_contention_serializes(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(("a", t)))
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: got.append(("b", t)))
        sim.run()
        (_, ta), (_, tb) = sorted(got, key=lambda x: x[1])
        # Second transfer starts after the first's 64-cycle occupancy.
        assert tb - ta == 64

    def test_size_override(self):
        f, sim = make_fabric(16)
        got = []
        f.send(0, 3, MsgType.WRITE_THROUGH, 0, lambda t: got.append(t), size=16)
        sim.run()
        # 3 hops * 3 + 16/2 serialization.
        assert got == [9 + 8]

    def test_fifo_between_same_pair_same_kind(self):
        f, sim = make_fabric(16)
        order = []
        for i in range(5):
            f.send(0, 7, MsgType.ACK, 0, lambda t, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_traffic_accounting(self):
        f, sim = make_fabric(16)
        f.send(0, 3, MsgType.DATA_REPLY, 0, lambda t: None)
        f.send(0, 1, MsgType.ACK, 0, lambda t: None)
        sim.run()
        assert f.stats.total_messages == 2
        assert f.stats.bytes[MsgType.DATA_REPLY] == 128
        assert f.stats.bytes[MsgType.ACK] == 0
        assert f.stats.total_hops == 4

    def test_hop_accounting_matches_config_hops(self):
        cfg = SystemConfig(n_procs=12)  # 3 x 4: a non-square mesh
        for a in range(12):
            for b in range(12):
                f = Fabric(cfg, Simulator())
                f.send(a, b, MsgType.ACK, 0, lambda t: None)
                assert f.stats.total_hops == cfg.hops(a, b)

    def test_handler_args_passed(self):
        f, sim = make_fabric(4)
        got = []
        f.send(0, 1, MsgType.ACK, 0, lambda t, a, b: got.append((a, b)), "x", 7)
        sim.run()
        assert got == [("x", 7)]


class TestMessageTypes:
    def test_data_bearing_set(self):
        assert MsgType.DATA_REPLY in DATA_BEARING
        assert MsgType.OWNER_DATA in DATA_BEARING
        assert MsgType.WRITEBACK in DATA_BEARING
        assert MsgType.ACK not in DATA_BEARING
        assert MsgType.WRITE_NOTICE not in DATA_BEARING

    def test_payload_size(self):
        f, _ = make_fabric(4)
        assert f.payload_size(MsgType.DATA_REPLY) == 128
        assert f.payload_size(MsgType.READ_REQ) == 0


def _fabric_serial(cfg):
    sim = Simulator()
    return Fabric(cfg, sim), sim


def _fabric_jitter_off(cfg):
    sim = Simulator()
    fab = JitterFabric(cfg, sim, seed=0)
    fab.rate = 0.0
    return fab, sim


class TestReceiveNicOrder:
    """The receive NIC is booked in canonical ``(arrival, src, src_seq)``
    order, whatever order the sends executed in."""

    @pytest.mark.parametrize(
        "make", [_fabric_serial, _fabric_jitter_off],
        ids=["serial", "jitter-off"],
    )
    @pytest.mark.parametrize(
        "mtype", [MsgType.DATA_REPLY, MsgType.ACK], ids=["data", "ctl"]
    )
    def test_same_cycle_arrivals_hand_off_in_canonical_order(
        self, make, mtype
    ):
        cfg = SystemConfig(n_procs=16)  # 4 x 4 mesh
        f, sim = make(cfg)
        dst = 5  # (1, 1); every source below is one hop away
        got = []
        # Sources 9 and 6 arrive together, source 4 one cycle later.  The
        # sends run in the reverse of canonical order.
        for src, t in ((4, 1), (9, 0), (6, 0)):
            f.send(src, dst, mtype, t, lambda t, s: got.append((s, t)), src)
        sim.run()
        size = cfg.line_size if mtype in DATA_BEARING else 0
        occ = cfg.nic_occupancy(size)
        arrival = cfg.hop_latency + (occ if size else 0)
        # (arrival, 6) < (arrival, 9) < (arrival + 1, 4); each later
        # message waits out the occupancy of the one before it.
        assert got == [
            (6, arrival), (9, arrival + occ), (4, arrival + 2 * occ),
        ]


def _old_counter_to_dict(sent):
    """The result-store form written when the counters were Counters."""
    count, nbytes = Counter(), Counter()
    for mtype, size in sent:
        count[mtype] += 1
        nbytes[mtype] += size
    return {
        "count": {MsgType(k).name: v for k, v in count.items()},
        "bytes": {MsgType(k).name: v for k, v in nbytes.items()},
        "total_hops": 0,
        "reliability": {name: 0 for name in RELIABILITY_COUNTERS},
    }


class TestMessageStatsSerialization:
    SENT = [
        (MsgType.WRITE_THROUGH, 16), (MsgType.READ_REQ, 0),
        (MsgType.DATA_REPLY, 128), (MsgType.ACK, 0), (MsgType.READ_REQ, 0),
        (MsgType.WRITE_THROUGH, 40),
    ]

    def _stats(self):
        s = MessageStats()
        for mtype, size in self.SENT:
            s.record(mtype, size, 0)
        return s

    def test_to_dict_matches_the_counter_form(self):
        got = json.dumps(self._stats().to_dict(), sort_keys=True)
        want = json.dumps(_old_counter_to_dict(self.SENT), sort_keys=True)
        assert got == want

    def test_only_sent_types_are_emitted(self):
        d = self._stats().to_dict()
        names = {"WRITE_THROUGH", "READ_REQ", "DATA_REPLY", "ACK"}
        assert set(d["count"]) == set(d["bytes"]) == names
        assert d["bytes"]["ACK"] == 0  # sent, zero bytes: still present

    def test_old_stored_result_round_trips(self):
        old = _old_counter_to_dict(self.SENT)
        old["total_hops"] = 9
        old["reliability"]["delays_injected"] = 2
        assert MessageStats.from_dict(old).to_dict() == old
        # The retired lossy-network counters always serialize as zero.
        old["reliability"]["retransmits"] = 2
        back = MessageStats.from_dict(old).to_dict()
        assert back["reliability"]["retransmits"] == 0
        # Results stored before the counters existed lack "reliability".
        del old["reliability"]
        assert MessageStats.from_dict(old).delays_injected == 0

    def test_counters_index_by_msgtype(self):
        s = self._stats()
        assert s.count[MsgType.READ_REQ] == 2
        assert s.bytes[MsgType.WRITE_THROUGH] == 56
        assert s.count[MsgType.FORWARD] == 0  # never sent
        assert s.total_messages == len(self.SENT)
        assert s.total_bytes == 184
        assert s.as_dict()["DATA_REPLY"] == (1, 128)


def _jitter_stream(seed, sends, rate=1.0):
    """Send ``sends`` ``(dst, data, size)`` messages from node 0, one per
    cycle, on a jitter fabric; return (fabric, handler log).

    ``log[(dst, data)]`` lists ``(send index, hand-off time)`` in the
    order the handlers ran."""
    sim = Simulator()
    fab = JitterFabric(SystemConfig(n_procs=4), sim, seed=seed)
    fab.rate = rate
    log = {}
    for i, (dst, data, size) in enumerate(sends):
        mtype = MsgType.WRITE_THROUGH if data else MsgType.ACK
        fab.send(
            0, dst, mtype, i,
            lambda t, key, i: log.setdefault(key, []).append((i, t)),
            (dst, data), i, size=size if data else 0,
        )
    sim.run()
    return fab, log


_sends = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.sampled_from([8, 64, 128]),
    ),
    min_size=1, max_size=40,
)


class TestJitterFabric:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), sends=_sends)
    def test_jitter_reorders_wires_not_handlers(self, seed, sends):
        """Every message is delayed, by a random amount, yet each
        (src, dst, channel) hands off exactly once, in send order."""
        fab, log = _jitter_stream(seed, sends)
        assert fab.stats.delays_injected == len(sends)
        for key, got in log.items():
            want = [i for i, (d, data, _) in enumerate(sends)
                    if (d, data) == key]
            assert [i for i, _t in got] == want

    def test_delays_are_bounded_and_seeded(self):
        sends = [(1 + i % 3, bool(i % 2), 64) for i in range(60)]
        _plain, base = _jitter_stream(0, sends, rate=0.0)
        fab, a = _jitter_stream(7, sends)
        _fab, b = _jitter_stream(7, sends)
        _fab, c = _jitter_stream(8, sends)
        assert a == b  # same seed, same schedule
        assert a != c  # another seed, another schedule
        assert a != base
        # A delay adds at most JITTER_CYCLES per message to the clamped
        # channel, so no hand-off is later than all of them stacked.
        last = max(t for got in base.values() for _i, t in got)
        assert max(t for got in a.values() for _i, t in got) <= \
            last + len(sends) * JITTER_CYCLES

    def test_machine_uses_plain_fabric_without_a_seed(self):
        cfg = SystemConfig(n_procs=4)
        assert type(Machine(cfg).fabric) is Fabric
        assert type(Machine(cfg, jitter_seed=3).fabric) is JitterFabric

    def test_jitter_moves_cycles_not_operations(self):
        spec = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)

        def run(jitter_seed):
            m = Machine(spec.config(), protocol="lrc",
                        check_invariants=True, jitter_seed=jitter_seed)
            return m.replay(spec.recorded_stream())

        plain, jit, again = run(None), run(5), run(5)
        assert plain.traffic.delays_injected == 0
        assert jit.traffic.delays_injected > 0
        assert jit.exec_time != plain.exec_time
        assert jit.to_dict() == again.to_dict()  # deterministic
        ops = lambda r: [(p.reads, p.writes, p.acquires, p.releases,
                          p.barriers) for p in r.stats.procs]
        assert ops(jit) == ops(plain)
