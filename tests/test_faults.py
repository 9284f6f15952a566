"""Tests for the one fault the simulator still detects, a stall: the
watchdog raises a structured SimulationStall on a busy queue without
progress, stands down on progress or a drained queue, and fires
through Machine.run."""

import pytest

from repro.core.machine import Machine
from repro.engine.watchdog import SimulationStall, StallWatchdog
from repro.harness.presets import bench_config
from repro.harness.spec import ExperimentSpec


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
        """End to end: a fabric that loses every remote message and
        re-sends it forever keeps the queue busy without progress; the
        watchdog turns that into a structured stall out of Machine.run,
        not a hang."""
        spec = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        machine = Machine(spec.config(), protocol="lrc", stall_cycles=200_000)

        def resend_forever(arrival, src, sseq, callback, payload):
            machine.sim.at(
                arrival + 1_000, resend_forever,
                arrival + 1_000, src, sseq, callback, payload,
            )

        machine.fabric._deliver_remote = resend_forever
        with pytest.raises(SimulationStall):
            machine.replay(spec.recorded_stream())
