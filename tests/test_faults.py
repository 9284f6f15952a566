"""Tests for the fault-injection subsystem: FaultPlan, the machine
wiring (zero-overhead-off), end-to-end recovery under every protocol,
the retransmit cap, and the stall watchdog."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.machine import Machine
from repro.engine.simulator import Simulator
from repro.faults.plan import FaultPlan
from repro.faults.reliable import ReliableFabric
from repro.faults.watchdog import SimulationStall, StallWatchdog
from repro.harness.presets import bench_config
from repro.harness.spec import ExperimentSpec
from repro.network.fabric import Fabric
from repro.network.messages import MsgType

#: A mild plan every protocol must survive transparently.
MILD = FaultPlan(drop=0.02, dup=0.02, delay=0.05)


class TestFaultPlan:
    def test_parse_cli_form(self):
        p = FaultPlan.parse("drop=0.02, dup=0.02, delay=0.05, seed=7")
        assert (p.drop, p.dup, p.delay, p.seed) == (0.02, 0.02, 0.05, 7)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.parse("dorp=0.5")

    def test_parse_rejects_bad_syntax(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("drop")

    def test_json_round_trip(self):
        p = FaultPlan(seed=3, drop=0.1, delay=0.2, burst_every=1000,
                      burst_len=100, src=2, channel="ctl")
        back = FaultPlan.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop"):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPlan(max_retries=0)
        with pytest.raises(ValueError, match="channel"):
            FaultPlan(channel="bogus")

    def test_active_iff_any_rate_positive(self):
        assert not FaultPlan().active
        assert not FaultPlan(seed=9, burst_every=100, burst_len=10).active
        assert FaultPlan(drop=0.01).active
        assert FaultPlan(reorder=0.01).active

    def test_filter_matching(self):
        p = FaultPlan(drop=0.5, src=1, channel="data")
        assert p.matches(1, 7, "data")
        assert not p.matches(2, 7, "data")
        assert not p.matches(1, 7, "ctl")
        assert FaultPlan().matches(0, 0, "ctl")

    def test_burst_windows(self):
        p = FaultPlan(drop=0.1, burst_every=100, burst_len=10)
        assert p.in_burst(5) and p.in_burst(105)
        assert not p.in_burst(50)
        assert not FaultPlan(drop=0.1).in_burst(5)

    def test_coerce_spellings(self):
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(MILD) is MILD
        assert FaultPlan.coerce("drop=0.02") == FaultPlan(drop=0.02)
        assert FaultPlan.coerce({"drop": 0.02}) == FaultPlan(drop=0.02)
        with pytest.raises(TypeError):
            FaultPlan.coerce(42)


class TestMachineWiring:
    def test_inert_plan_uses_plain_fabric(self):
        cfg = bench_config(n_procs=4)
        assert type(Machine(cfg, faults=FaultPlan()).fabric) is Fabric
        assert type(Machine(cfg).fabric) is Fabric
        assert isinstance(Machine(cfg, faults=MILD).fabric, ReliableFabric)

    def test_inert_plan_is_bit_identical_to_no_faults(self):
        """The zero-overhead-off guarantee: attaching a zero-rate plan
        changes nothing — same cycles, same traffic, byte for byte."""
        base = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        inert = base.with_(faults=FaultPlan())
        a, b = base.run(), inert.run()
        assert a.exec_time == b.exec_time
        assert a.stats.to_dict() == b.stats.to_dict()
        assert a.traffic.to_dict() == b.traffic.to_dict()

    @pytest.mark.parametrize("protocol", ["sc", "erc", "lrc", "lrc-ext"])
    def test_every_protocol_survives_faults_unmodified(self, protocol):
        spec = ExperimentSpec("mp3d", protocol, n_procs=4, small=True,
                              faults=MILD)
        clean = spec.with_(faults=None).run()
        faulty = spec.run()
        t = faulty.traffic
        # Faults genuinely fired and were genuinely recovered from.
        assert t.drops_injected > 0
        assert t.retransmits > 0
        assert t.bytes[MsgType.RD_ACK] == 0 and t.count[MsgType.RD_ACK] > 0
        # Recovery is transparent: the protocol committed the same work
        # (faults move cycles, never operations).
        for a, b in zip(clean.stats.procs, faulty.stats.procs):
            assert (a.reads, a.writes, a.acquires, a.releases, a.barriers) == \
                   (b.reads, b.writes, b.acquires, b.releases, b.barriers)

    def test_fault_runs_are_deterministic(self):
        spec = ExperimentSpec("gauss", "lrc", n_procs=4, small=True,
                              faults=MILD)
        a, b = spec.run(), spec.run()
        assert a.exec_time == b.exec_time
        assert a.traffic.to_dict() == b.traffic.to_dict()

    def test_different_fault_seed_different_schedule(self):
        spec = ExperimentSpec("gauss", "lrc", n_procs=4, small=True,
                              faults=MILD)
        other = spec.with_(faults=FaultPlan.from_dict(
            {**MILD.to_dict(), "seed": 99}))
        assert spec.run().traffic.to_dict() != other.run().traffic.to_dict()


class TestSpecIntegration:
    def test_no_faults_fingerprint_unchanged(self):
        """A fault-free spec must fingerprint exactly as it did before
        the faults field existed (pinned in test_spec.py); attaching a
        plan must move it."""
        base = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        assert base.with_(faults=MILD).fingerprint() != base.fingerprint()
        assert base.with_(faults=None).fingerprint() == base.fingerprint()
        # An inert default plan cannot perturb a run: no faults either.
        assert base.with_(faults=FaultPlan()).fingerprint() == base.fingerprint()

    def test_spec_round_trips_with_faults(self):
        spec = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True,
                              faults="drop=0.1,seed=5")
        back = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.faults == FaultPlan(drop=0.1, seed=5)
        assert back.fingerprint() == spec.fingerprint()
        assert "faults[drop=0.1,seed=5]" in spec.label()


class TestUpgradeEvictHintRace:
    """Regression for a home-side race the fault campaign exposed
    (seed 3, erc): a node holding a line read-only issued an upgrade,
    then evicted the RO copy while the grant was in flight.  The clean
    EVICT_NOTICE — sent after the WRITE_REQ, so processed after the
    grant was issued — erased the freshly-DIRTY directory entry, while
    the requester re-installed the line exclusively when the grant
    landed: node caches the block, home has no entry.  The home must
    ignore a clean hint from the block's current dirty owner (a real
    dirty eviction arrives as a WRITEBACK, never a hint)."""

    def _directory(self, protocol):
        m = Machine(SystemConfig(n_procs=4), protocol=protocol)
        seg = m.space.alloc(1 << 12, "data")
        block = seg.base >> m.config.line_shift
        home = m.protocol.nodes[m.home_of(block)]
        return m.protocol, home.directory, block

    @pytest.mark.parametrize("protocol", ["sc", "erc"])
    def test_clean_hint_from_dirty_owner_is_ignored(self, protocol):
        from repro.directory.entry import DIRTY

        proto, d, block = self._directory(protocol)
        d.read(block, 3)                  # node 3 holds the line RO,
        d.write(block, 3, has_copy=True)  # then its upgrade is granted.
        assert d.state_of(block) == DIRTY
        # The stale hint for the superseded RO copy arrives at the home.
        proto._h_evict_hint(0, block, 3)
        assert d.state_of(block) == DIRTY
        assert d.entries[block].owner == 3

    def test_hint_from_a_mere_sharer_still_evicts(self):
        from repro.directory.entry import DIRTY, UNCACHED

        proto, d, block = self._directory("erc")
        d.read(block, 1)
        d.write(block, 3, has_copy=False)
        assert d.state_of(block) == DIRTY
        # Node 1's hint (it was invalidated-or-evicted as a sharer) is
        # not from the owner: normal processing.
        proto._h_evict_hint(0, block, 1)
        assert d.state_of(block) == DIRTY  # owner unaffected
        proto._h_evict_hint(0, block, 3)   # owner's *own* hint ignored
        assert d.entries[block].owner == 3
        d.evict(block, 3, dirty=True)      # but a real writeback clears
        assert d.state_of(block) == UNCACHED

    def test_seed3_erc_campaign_iteration_stays_clean(self):
        # The exact campaign iteration that caught the race: iteration 3
        # (seed 3) of ``fuzz --iters 50 --faults drop=.02,dup=.02,delay=.05``.
        from repro.conformance.fuzz import fuzz_iteration

        failures = fuzz_iteration(
            3, 3, 8, 120, ("erc",), do_minimize=False, faults=MILD
        )
        assert failures == []


class TestRetransmitCap:
    def test_total_loss_raises_structured_stall(self):
        cfg = SystemConfig(n_procs=4)
        sim = Simulator()
        fab = ReliableFabric(cfg, sim, FaultPlan(drop=1.0, max_retries=3))
        fab.send(0, 1, MsgType.ACK, 0, lambda t: None)
        with pytest.raises(SimulationStall) as ei:
            sim.run()
        assert ei.value.kind == "retransmit-cap"
        assert fab.stats.retransmits == 3
        assert fab.stats.drops_injected == 4  # initial + 3 retransmits

    def test_backoff_is_exponential(self):
        cfg = SystemConfig(n_procs=4)
        sim = Simulator()
        fab = ReliableFabric(cfg, sim, FaultPlan(drop=1.0, max_retries=3))
        fab.send(0, 1, MsgType.ACK, 0, lambda t: None)
        with pytest.raises(SimulationStall) as ei:
            sim.run()
        # Timer k fires rto<<k after transmission k: 1+2+4+8 base RTOs.
        assert ei.value.cycle == fab.rto * (1 + 2 + 4 + 8)


class TestStallWatchdog:
    def _machine(self):
        return Machine(bench_config(n_procs=4), protocol="lrc",
                       stall_cycles=0)

    def test_busy_queue_without_progress_raises(self):
        m = self._machine()

        def tick():
            m.sim.at(m.sim.now + 100, tick)

        m.sim.at(0, tick)
        StallWatchdog(m, 1_000).arm()
        with pytest.raises(SimulationStall) as ei:
            m.sim.run()
        assert ei.value.kind == "watchdog"
        assert ei.value.cycle >= 1_000

    def test_progress_rearms_instead_of_raising(self):
        m = self._machine()
        stop = 10_000

        def tick():
            m.stats.procs[0].reads += 1  # forward progress
            if m.sim.now < stop:
                m.sim.at(m.sim.now + 100, tick)

        m.sim.at(0, tick)
        StallWatchdog(m, 1_000).arm()
        m.sim.run()  # no stall: the queue drains normally

    def test_drained_queue_is_left_to_deadlock_diagnosis(self):
        """With blocked processors and an *empty* queue the watchdog must
        stand down so Machine.run's DeadlockError names the culprits."""
        m = self._machine()
        StallWatchdog(m, 100).arm()
        m.sim.run()  # only the watchdog's own check is queued: no raise

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            StallWatchdog(self._machine(), 0)

    def test_machine_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_STALL_CYCLES", "12345")
        assert Machine(bench_config(n_procs=4)).stall_cycles == 12345
        monkeypatch.setenv("REPRO_STALL_CYCLES", "")
        assert Machine(bench_config(n_procs=4)).stall_cycles == 0
        assert Machine(bench_config(n_procs=4),
                       stall_cycles=7).stall_cycles == 7

    def test_livelocked_run_raises_through_machine_run(self):
        """End to end: total message loss under a short watchdog budget
        becomes a structured stall out of Machine.run, not a hang."""
        spec = ExperimentSpec(
            "mp3d", "lrc", n_procs=4, small=True,
            faults=FaultPlan(drop=1.0, max_retries=10_000),
        )
        cfg = spec.config()
        from repro.apps import APPS, AppContext
        from repro.program.stream import RecordedStream

        machine = Machine(cfg, protocol="lrc", faults=spec.faults,
                          stall_cycles=200_000)
        app = APPS["mp3d"](AppContext(cfg), **spec.app_params())
        with pytest.raises(SimulationStall):
            machine.replay(RecordedStream.record(app))


class TestFaultPhases:
    """Phase-scripted plans: good→bad→good windows over simulated cycles."""

    def test_phase_validation(self):
        from repro.faults.plan import FaultPhase

        with pytest.raises(ValueError, match="start < end"):
            FaultPhase(start=100, end=100)
        with pytest.raises(ValueError, match=">= 0"):
            FaultPhase(start=-1, end=100)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPhase(start=0, end=10, drop=1.5)
        with pytest.raises(ValueError, match="unknown FaultPhase fields"):
            FaultPhase.from_dict({"start": 0, "end": 10, "dorp": 0.5})

    def test_plan_rejects_unsorted_or_overlapping_windows(self):
        from repro.faults.plan import FaultPhase

        ok = FaultPlan(phases=(FaultPhase(0, 10, drop=0.1),
                               FaultPhase(10, 20, drop=0.2)))
        assert len(ok.phases) == 2  # adjacent windows are fine
        with pytest.raises(ValueError, match="sorted and non-overlapping"):
            FaultPlan(phases=(FaultPhase(0, 15, drop=0.1),
                              FaultPhase(10, 20, drop=0.2)))
        with pytest.raises(ValueError, match="sorted and non-overlapping"):
            FaultPlan(phases=(FaultPhase(10, 20, drop=0.1),
                              FaultPhase(0, 5, drop=0.2)))

    def test_phase_round_trip_and_label(self):
        p = FaultPlan(seed=5, phases=({"start": 100, "end": 200, "drop": 0.3},))
        back = FaultPlan.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p
        assert "phases=1" in p.label()
        # A phase-free plan serializes without the key at all, so old
        # stored plans and spec fingerprints are unchanged.
        assert "phases" not in FaultPlan(drop=0.1).to_dict()

    def test_parse_rejects_phases_key(self):
        with pytest.raises(ValueError, match="scenario JSON"):
            FaultPlan.parse("phases=3")

    def test_rates_at_switches_inside_windows(self):
        from repro.faults.plan import FaultPhase

        p = FaultPlan(drop=0.01, phases=(FaultPhase(100, 200, drop=0.5),
                                         FaultPhase(300, 400, dup=0.25)))
        assert p.rates_at(0) == (0.01, 0.0, 0.0, 0.0)
        assert p.rates_at(100) == (0.5, 0.0, 0.0, 0.0)
        assert p.rates_at(199) == (0.5, 0.0, 0.0, 0.0)
        assert p.rates_at(200) == (0.01, 0.0, 0.0, 0.0)
        assert p.rates_at(350) == (0.0, 0.25, 0.0, 0.0)
        assert p.rates_at(400) == (0.01, 0.0, 0.0, 0.0)

    def test_zero_rate_script_is_inert(self):
        from repro.faults.plan import FaultPhase

        calm = FaultPlan(seed=3, phases=(FaultPhase(0, 10_000),))
        assert not calm.active
        assert FaultPlan(phases=(FaultPhase(0, 10, drop=0.1),)).active

    def test_zero_rate_script_bit_identical_to_faults_off(self):
        from repro.faults.plan import FaultPhase

        base = ExperimentSpec("kvstore", "lrc", n_procs=4, small=True)
        calm = base.with_(
            faults=FaultPlan(seed=9, phases=(FaultPhase(0, 1 << 40),))
        )
        assert base.run().to_dict() == calm.run().to_dict()

    @given(
        bounds=st.lists(
            st.integers(min_value=0, max_value=20_000),
            min_size=2, max_size=8, unique=True,
        ),
        rate=st.floats(min_value=0.3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        times=st.lists(
            st.integers(min_value=0, max_value=25_000),
            min_size=20, max_size=120,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_injection_outside_phase_windows(self, bounds, rate, seed, times):
        """The property the scenario library's attribution story rests
        on: with zero base rates, every drop/dup/delay the injector
        produces lands at a cycle covered by some phase window."""
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import FaultPhase

        cuts = sorted(bounds)
        phases = tuple(
            FaultPhase(cuts[i], cuts[i + 1], drop=rate, dup=rate, delay=rate)
            for i in range(0, len(cuts) - 1, 2)
        )
        plan = FaultPlan(seed=seed, phases=phases)
        inj = FaultInjector(plan)
        covered = lambda t: any(p.covers(t) for p in phases)
        for i, t in enumerate(times):
            d = inj.decide(src=i % 4, dst=(i + 1) % 4, channel="data", t=t)
            if d.drop or d.dup or d.extra:
                assert covered(t), (
                    f"injection at t={t} outside every phase window "
                    f"{[(p.start, p.end) for p in phases]}"
                )

