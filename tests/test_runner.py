"""Tests for the parallel experiment engine (determinism, store reuse,
crash retry, timeout handling)."""

import multiprocessing as mp
import os

import pytest

from repro.harness.experiments import all_artifact_specs, clear_cache, prefetch
from repro.harness.runner import (
    ExperimentError,
    run_parallel,
    run_serial,
)
from repro.engine.watchdog import SimulationStall
from repro.harness.spec import ExperimentSpec
from repro.results.store import ResultStore

#: The fault-injection tests monkeypatch ExperimentSpec.run and rely on
#: fork()ed workers inheriting the patch.
FORK = "fork" in mp.get_all_start_methods()

SPECS = [
    ExperimentSpec("mp3d", "lrc", n_procs=4, small=True),
    ExperimentSpec("mp3d", "erc", n_procs=4, small=True),
    ExperimentSpec("gauss", "lrc", n_procs=4, small=True),
]


class TestDeterminism:
    def test_pool_matches_serial_bit_for_bit(self, tmp_path):
        """DESIGN.md §7: identical specs -> identical cycle counts,
        whether run in-process or fanned out over worker processes."""
        serial = run_serial(SPECS, store=None)
        pooled = run_parallel(SPECS, jobs=2, store=ResultStore(tmp_path / "rs"))
        assert set(serial) == set(pooled) == set(SPECS)
        for spec in SPECS:
            a, b = serial[spec], pooled[spec]
            assert a.exec_time == b.exec_time
            assert a.stats.total_cycles == b.stats.total_cycles
            assert a.summary() == b.summary()
            assert a.breakdown() == b.breakdown()
            assert a.traffic.as_dict() == b.traffic.as_dict()

    def test_cached_results_match_too(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        cold = run_parallel(SPECS, jobs=2, store=store)
        warm = run_parallel(SPECS, jobs=2, store=store)
        for spec in SPECS:
            assert cold[spec].summary() == warm[spec].summary()

    def test_duplicate_specs_are_deduplicated(self):
        results = run_serial([SPECS[0], SPECS[0]])
        assert len(results) == 1


class TestStoreReuse:
    @pytest.mark.skipif(not FORK, reason="needs fork() to inject faults")
    def test_warm_store_spawns_no_workers(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "rs")
        run_parallel(SPECS, jobs=2, store=store)
        monkeypatch.setattr(
            ExperimentSpec, "run",
            lambda self: (_ for _ in ()).throw(AssertionError("re-simulated")),
        )
        warm = run_parallel(SPECS, jobs=2, store=store)
        assert set(warm) == set(SPECS)

    def test_prefetch_warms_the_memo(self, tmp_path, monkeypatch):
        clear_cache()
        specs = SPECS[:2]
        prefetch(specs, jobs=2, store=ResultStore(tmp_path / "rs"))
        # Rendering now must not simulate.
        monkeypatch.setattr(
            ExperimentSpec, "run",
            lambda self: (_ for _ in ()).throw(AssertionError("re-simulated")),
        )
        from repro.harness.experiments import run_spec

        for spec in specs:
            assert run_spec(spec, store=None).exec_time > 0
        clear_cache()


class TestArtifactEnumeration:
    def test_all_artifacts_deduplicate_shared_runs(self):
        specs = all_artifact_specs(n_procs=8, small=True)
        assert len(specs) == len(set(specs))
        # f4 and f5 share their sc/erc/lrc runs: the union must be far
        # smaller than the per-artifact sum.
        per_artifact = sum(
            len(all_artifact_specs([k], n_procs=8, small=True))
            for k in ("f4", "f5", "f6", "f7", "f8", "f9", "t2", "t3", "sweep")
        )
        assert len(specs) < per_artifact

    def test_t2_specs_classify(self):
        assert all(s.classify for s in all_artifact_specs(["t2"], n_procs=8))

    def test_future_artifacts_use_future_kind(self):
        assert {s.kind for s in all_artifact_specs(["f8", "f9"], n_procs=8)} == {"future"}

    def test_unknown_artifact_rejected(self):
        from repro.harness.experiments import artifact_specs

        with pytest.raises(ValueError, match="artifact"):
            artifact_specs("f13")


@pytest.mark.skipif(not FORK, reason="needs fork() to inject faults")
class TestFaultHandling:
    def test_crashed_worker_is_retried_once(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        real_run = ExperimentSpec.run

        def crash_first(self):
            if not marker.exists():
                marker.write_text("x")
                os._exit(3)
            return real_run(self)

        monkeypatch.setattr(ExperimentSpec, "run", crash_first)
        results = run_parallel(
            SPECS[:2], jobs=2, store=ResultStore(tmp_path / "rs")
        )
        assert set(results) == set(SPECS[:2])
        assert marker.exists()

    def test_persistent_crash_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ExperimentSpec, "run", lambda self: os._exit(3))
        with pytest.raises(ExperimentError, match="exit code 3"):
            run_parallel(SPECS[:2], jobs=2, store=ResultStore(tmp_path / "rs"))

    def test_timeout_raises_after_retry(self, tmp_path, monkeypatch):
        import time as _time

        monkeypatch.setattr(ExperimentSpec, "run", lambda self: _time.sleep(60))
        with pytest.raises(ExperimentError, match="timed out"):
            run_parallel(
                SPECS[:2], jobs=2, store=ResultStore(tmp_path / "rs"),
                timeout=0.2,
            )

    def test_degraded_serial_path_honors_timeout(self, tmp_path, monkeypatch):
        """jobs=1 used to silently fall back to run_serial, dropping the
        timeout (and retry) guarantees on the floor."""
        import time as _time

        monkeypatch.setattr(ExperimentSpec, "run", lambda self: _time.sleep(60))
        with pytest.raises(ExperimentError, match="timed out"):
            run_parallel(
                SPECS[:2], jobs=1, store=ResultStore(tmp_path / "rs"),
                timeout=0.2,
            )

    def test_single_spec_honors_timeout(self, tmp_path, monkeypatch):
        """A one-element spec list also degrades to jobs=1; the timeout
        must still be supervised."""
        import time as _time

        monkeypatch.setattr(ExperimentSpec, "run", lambda self: _time.sleep(60))
        with pytest.raises(ExperimentError, match="timed out"):
            run_parallel(
                SPECS[:1], jobs=4, store=ResultStore(tmp_path / "rs"),
                timeout=0.2,
            )

    def test_degraded_path_without_timeout_runs_in_process(self, tmp_path):
        results = run_parallel(SPECS[:1], jobs=1, store=None)
        assert set(results) == set(SPECS[:1])
        assert results[SPECS[0]].exec_time > 0

    def test_timeout_kills_the_worker_process(self, tmp_path, monkeypatch):
        """Regression: a timed-out worker must be dead when run_parallel
        returns, not left livelocked in the background."""
        import time as _time

        monkeypatch.setattr(ExperimentSpec, "run", lambda self: _time.sleep(60))
        failures = {}
        store = ResultStore(tmp_path / "rs")
        results = run_parallel(
            SPECS[:2], jobs=2, store=store, timeout=0.2, retries=0,
            on_failure="record", failures_out=failures,
        )
        assert results == {}
        assert not mp.active_children(), "worker outlived its timeout"
        assert set(failures) == set(SPECS[:2])
        for spec in SPECS[:2]:
            failure = store.load_failure(spec)
            assert failure is not None and failure.kind == "timeout"
            assert "timed out" in failure.message


@pytest.mark.skipif(not FORK, reason="needs fork() to monkeypatch workers")
class TestStructuredFailures:
    """A livelocked spec becomes a persisted RunFailure, not a hung pool."""

    #: The spec whose run the fixture below turns into a watchdog stall.
    LIVELOCKED = ExperimentSpec("mp3d", "sc", n_procs=4, small=True)

    @pytest.fixture(autouse=True)
    def _livelock(self, monkeypatch):
        """Make LIVELOCKED's run raise the watchdog's SimulationStall,
        deterministically; forked workers inherit the patch."""
        real_run = ExperimentSpec.run

        def run(spec):
            if spec == self.LIVELOCKED:
                raise SimulationStall(
                    "no processor committed an operation for 5000000 "
                    "cycles", kind="watchdog", cycle=5_000_000,
                )
            return real_run(spec)

        monkeypatch.setattr(ExperimentSpec, "run", run)

    def test_record_mode_persists_and_continues(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        failures = {}
        results = run_parallel(
            [self.LIVELOCKED, SPECS[0]], jobs=2, store=store,
            on_failure="record", failures_out=failures,
        )
        # The healthy spec completed; the livelocked one left a record.
        assert set(results) == {SPECS[0]}
        assert set(failures) == {self.LIVELOCKED}
        persisted = store.load_failure(self.LIVELOCKED)
        assert persisted is not None
        assert persisted.kind == "stall"
        assert "no processor committed" in persisted.message
        assert persisted.fingerprint == self.LIVELOCKED.fingerprint()
        assert not mp.active_children()

    def test_raise_mode_reports_the_diagnosis(self, tmp_path):
        with pytest.raises(ExperimentError, match="stall"):
            run_parallel(
                [self.LIVELOCKED], jobs=2, store=ResultStore(tmp_path / "rs"),
                timeout=60,
            )

    def test_structured_failure_is_not_retried(self, tmp_path, monkeypatch):
        """Stalls are deterministic: the pool must not burn its retry
        re-running one (crash retries still happen, tested above)."""
        calls = tmp_path / "calls"
        calls.mkdir()
        real_run = ExperimentSpec.run

        def counting_run(self):
            (calls / str(len(list(calls.iterdir())))).write_text("x")
            return real_run(self)

        monkeypatch.setattr(ExperimentSpec, "run", counting_run)
        failures = {}
        run_parallel(
            [self.LIVELOCKED], jobs=2, store=ResultStore(tmp_path / "rs"),
            retries=1, on_failure="record", failures_out=failures,
        )
        assert len(list(calls.iterdir())) == 1
        assert failures[self.LIVELOCKED].kind == "stall"

    def test_run_serial_record_mode(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        failures = {}
        results = run_serial(
            [self.LIVELOCKED, SPECS[0]], store=store,
            on_failure="record", failures_out=failures,
        )
        assert set(results) == {SPECS[0]}
        assert store.load_failure(self.LIVELOCKED).kind == "stall"

    def test_run_serial_raise_mode_reraises_original(self):
        with pytest.raises(SimulationStall):
            run_serial([self.LIVELOCKED])


class TestRetryBackoff:
    def test_delay_is_bounded_and_jittered(self):
        import random

        from repro.harness.runner import (
            RETRY_BACKOFF_BASE,
            RETRY_BACKOFF_CAP,
            retry_delay,
        )

        rng = random.Random(7)
        for attempt in range(1, 10):
            d = retry_delay(attempt, rng=rng)
            ceiling = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= d <= 1.5 * ceiling
        # Deep attempts saturate at the cap, never grow unbounded.
        assert retry_delay(50, rng=rng) <= 1.5 * RETRY_BACKOFF_CAP

    def test_reaper_installs_once(self):
        from repro.harness import runner

        runner._install_reaper()
        runner._install_reaper()
        assert runner._REAPER_INSTALLED
