"""Tests for the experiment runner and its ordered process map
(determinism, store reuse, structured failures, timeouts, dead workers,
workers outliving their parent)."""

import multiprocessing as mp
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.machine import RunResult
from repro.engine.watchdog import SimulationStall
from repro.harness.experiments import all_artifact_specs, clear_cache, prefetch
from repro.harness.runner import ExperimentError, run_specs
from repro.harness.spec import ExperimentSpec
from repro.results.store import ResultStore

#: The fault-injection tests monkeypatch ExperimentSpec.run and rely on
#: fork()ed workers inheriting the patch.
FORK = "fork" in mp.get_all_start_methods()

SRC = Path(__file__).resolve().parents[1] / "src"

SPECS = [
    ExperimentSpec("mp3d", "lrc", n_procs=4, small=True),
    ExperimentSpec("mp3d", "erc", n_procs=4, small=True),
    ExperimentSpec("gauss", "lrc", n_procs=4, small=True),
]


def _python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", code, *args], env


class TestDeterminism:
    def test_pool_matches_serial_bit_for_bit(self, tmp_path):
        """DESIGN.md §7: identical specs -> identical cycle counts,
        whether run in-process or fanned out over worker processes."""
        serial = run_specs(SPECS)
        pooled = run_specs(SPECS, jobs=2, store=ResultStore(tmp_path / "rs"))
        assert list(serial) == list(pooled) == SPECS
        for spec in SPECS:
            a, b = serial[spec], pooled[spec]
            assert a.exec_time == b.exec_time
            assert a.stats.total_cycles == b.stats.total_cycles
            assert a.summary() == b.summary()
            assert a.breakdown() == b.breakdown()
            assert a.traffic.as_dict() == b.traffic.as_dict()
            assert a.to_dict() == b.to_dict()

    def test_cached_results_match_too(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        cold = run_specs(SPECS, jobs=2, store=store)
        warm = run_specs(SPECS, jobs=2, store=store)
        for spec in SPECS:
            assert cold[spec].summary() == warm[spec].summary()

    def test_duplicate_specs_are_deduplicated(self):
        assert list(run_specs([SPECS[0], SPECS[0]])) == [SPECS[0]]


class TestStoreReuse:
    @pytest.mark.skipif(not FORK, reason="needs fork() to inject faults")
    def test_warm_store_spawns_no_workers(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "rs")
        run_specs(SPECS, jobs=2, store=store)
        monkeypatch.setattr(
            ExperimentSpec, "run",
            lambda self: (_ for _ in ()).throw(AssertionError("re-simulated")),
        )
        warm = run_specs(SPECS, jobs=2, store=store)
        assert all(isinstance(r, RunResult) for r in warm.values())

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
    def test_persistent_crash_raises(self, tmp_path, monkeypatch):
        clear_cache()
        monkeypatch.setattr(ExperimentSpec, "run", lambda self: os._exit(3))
        with pytest.raises(ExperimentError, match="crash") as info:
            prefetch(SPECS[:2], jobs=2, store=ResultStore(tmp_path / "rs"))
        assert set(info.value.failures) == set(SPECS[:2])
        assert not mp.active_children()

    def test_dead_worker_becomes_a_crash_failure(self, tmp_path, monkeypatch):
        """A worker killed mid-cell breaks the pool: its cell (and any
        cell in flight beside it) comes back as an unpersisted ``crash``
        failure, and every cell that finished is in the store."""
        dead = SPECS[1]
        real_run = ExperimentSpec.run

        def run(spec):
            if spec == dead:
                os._exit(3)
            return real_run(spec)

        monkeypatch.setattr(ExperimentSpec, "run", run)
        store = ResultStore(tmp_path / "rs")
        outcomes = run_specs(SPECS, jobs=2, store=store)
        assert list(outcomes) == SPECS
        assert outcomes[dead].kind == "crash"
        for spec, outcome in outcomes.items():
            if isinstance(outcome, RunResult):
                assert store.load(spec).to_dict() == outcome.to_dict()
            else:
                assert outcome.kind == "crash"
                assert store.load_failure(spec) is None
        assert not mp.active_children()

    def test_degraded_path_without_timeout_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("one spec must not start a pool"),
        )
        results = run_specs(SPECS[:1], jobs=4)
        assert results[SPECS[0]].exec_time > 0

    @staticmethod
    def _stall(monkeypatch, slow, log=None):
        """Make each spec in ``slow`` sleep far past any test timeout;
        with ``log``, each such run appends its pid to that file."""
        real_run = ExperimentSpec.run

        def run(spec):
            if spec in slow:
                if log is not None:
                    with open(log, "a") as f:
                        f.write(f"{os.getpid()}\n")
                time.sleep(60)
            return real_run(spec)

        monkeypatch.setattr(ExperimentSpec, "run", run)

    @staticmethod
    def _assert_timed_out(outcomes, store, slow):
        """``slow`` timed out (recorded and persisted), every other
        cell completed and is in the store, and no worker is left."""
        for spec, outcome in outcomes.items():
            if spec in slow:
                assert outcome.kind == "timeout"
                failure = store.load_failure(spec)
                assert failure is not None and failure.kind == "timeout"
                assert "timed out" in failure.message
            else:
                assert isinstance(outcome, RunResult)
                assert store.load(spec).to_dict() == outcome.to_dict()
        assert not mp.active_children()

    def test_timeout_raises_after_retry(self, tmp_path, monkeypatch):
        """A timeout is not retried (the simulator is deterministic):
        each timed-out cell runs once, and prefetch raises at the end."""
        clear_cache()
        log = tmp_path / "runs"
        self._stall(monkeypatch, SPECS[:2], log)
        with pytest.raises(ExperimentError, match="timed out") as info:
            prefetch(
                SPECS[:2], jobs=2, store=ResultStore(tmp_path / "rs"),
                timeout=0.2,
            )
        assert set(info.value.failures) == set(SPECS[:2])
        assert len(log.read_text().split()) == 2
        assert not mp.active_children()

    def test_timeout_kills_the_worker_process(self, tmp_path, monkeypatch):
        """A pooled cell past its deadline is interrupted inside its
        worker and recorded; the other cell completes, and the worker
        that ran the timed-out cell is gone when run_specs returns."""
        slow = SPECS[:1]
        log = tmp_path / "runs"
        self._stall(monkeypatch, slow, log)
        store = ResultStore(tmp_path / "rs")
        t0 = time.monotonic()
        outcomes = run_specs(SPECS[:2], jobs=2, store=store, timeout=3)
        assert time.monotonic() - t0 < 30
        self._assert_timed_out(outcomes, store, slow)
        (pid,) = map(int, log.read_text().split())
        assert pid != os.getpid()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_degraded_serial_path_honors_timeout(self, tmp_path, monkeypatch):
        """jobs=1 runs in-process under the same in-cell deadline."""
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("jobs=1 must not start a pool"),
        )
        slow = SPECS[:1]
        self._stall(monkeypatch, slow)
        store = ResultStore(tmp_path / "rs")
        t0 = time.monotonic()
        outcomes = run_specs(SPECS[:2], jobs=1, store=store, timeout=3)
        assert time.monotonic() - t0 < 30
        self._assert_timed_out(outcomes, store, slow)

    def test_single_spec_honors_timeout(self, tmp_path, monkeypatch):
        """A one-element spec list runs in-process whatever ``jobs`` is;
        the deadline still holds."""
        self._stall(monkeypatch, SPECS[:1])
        store = ResultStore(tmp_path / "rs")
        t0 = time.monotonic()
        outcomes = run_specs(SPECS[:1], jobs=4, store=store, timeout=0.2)
        assert time.monotonic() - t0 < 30
        self._assert_timed_out(outcomes, store, SPECS[:1])


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

    def _assert_persisted_and_continued(self, outcomes, store):
        # The healthy spec completed; the livelocked one left a record.
        assert isinstance(outcomes[SPECS[0]], RunResult)
        persisted = store.load_failure(self.LIVELOCKED)
        assert persisted is not None
        assert persisted.kind == "stall"
        assert "no processor committed" in persisted.message
        assert persisted.fingerprint == self.LIVELOCKED.fingerprint()
        assert outcomes[self.LIVELOCKED].to_dict() == persisted.to_dict()

    def test_record_mode_persists_and_continues(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        outcomes = run_specs([self.LIVELOCKED, SPECS[0]], jobs=2, store=store)
        self._assert_persisted_and_continued(outcomes, store)
        assert not mp.active_children()

    def test_in_process_record_mode(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        outcomes = run_specs([self.LIVELOCKED, SPECS[0]], store=store)
        self._assert_persisted_and_continued(outcomes, store)

    def test_raise_mode_reports_the_diagnosis(self, tmp_path):
        """prefetch finishes the sweep, warms the memo with the healthy
        cell, and then raises with the diagnosis."""
        clear_cache()
        with pytest.raises(ExperimentError, match="stall") as info:
            prefetch(
                [self.LIVELOCKED, SPECS[0]], jobs=2,
                store=ResultStore(tmp_path / "rs"), timeout=60,
            )
        assert set(info.value.failures) == {self.LIVELOCKED}
        from repro.harness.experiments import run_spec

        assert run_spec(SPECS[0], store=None).exec_time > 0
        clear_cache()

    def test_structured_failure_is_not_retried(self, tmp_path, monkeypatch):
        """Stalls are deterministic: the runner runs the cell once."""
        calls = tmp_path / "calls"
        calls.mkdir()
        real_run = ExperimentSpec.run

        def counting_run(spec):
            if spec == self.LIVELOCKED:
                (calls / str(len(list(calls.iterdir())))).write_text("x")
            return real_run(spec)

        monkeypatch.setattr(ExperimentSpec, "run", counting_run)
        outcomes = run_specs(
            [self.LIVELOCKED, SPECS[0]], jobs=2,
            store=ResultStore(tmp_path / "rs"),
        )
        assert len(list(calls.iterdir())) == 1
        assert outcomes[self.LIVELOCKED].kind == "stall"

    def test_in_process_failure_keeps_the_original_traceback(self):
        failure = run_specs([self.LIVELOCKED])[self.LIVELOCKED]
        assert failure.kind == "stall"
        assert "SimulationStall" in failure.traceback


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


_HOLD_POOL = """
import os, sys, time
from repro.harness.runner import process_map

def hold(path):
    open(os.path.join(path, str(os.getpid())), "w").close()
    time.sleep(120)

list(process_map(hold, [sys.argv[1]] * 2, jobs=2))
"""

_DYING_FUZZ = """
import os, sys
import repro.conformance.fuzz as fuzz
from repro.__main__ import main

real = fuzz.fuzz_iteration

def dying(iteration, seed, **kwargs):
    if seed == 2:
        os._exit(3)
    return real(iteration, seed, **kwargs)

fuzz.fuzz_iteration = dying
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not FORK, reason="needs fork() to patch workers")
class TestWorkerDeath:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="reads /proc"
    )
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """SIGKILL skips every exit hook of the parent; its pool workers,
        mid-task, must still go at once instead of running on."""
        argv, env = _python(_HOLD_POOL, str(tmp_path))
        proc = subprocess.Popen(argv, env=env)
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                pids = [int(p.name) for p in tmp_path.iterdir()]
            proc.send_signal(signal.SIGKILL)
            proc.wait(10)
            deadline = time.monotonic() + 5
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, pids)), "pool workers outlived the parent"
        finally:
            proc.kill()
            proc.wait(10)
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_dead_fuzz_worker_cannot_hang_the_campaign(self, tmp_path, capsys):
        """A fuzz worker that dies mid-iteration ends the campaign with a
        non-zero exit naming the seed, not a hang; --resume finishes it."""
        from repro.__main__ import main

        fuzz_argv = ["fuzz", "--seed", "0", "--iters", "4", "--procs", "4",
                     "--n-ops", "30", "--protocols", "lrc", "--jobs", "2",
                     "--store-dir", str(tmp_path / "rs")]
        argv, env = _python(_DYING_FUZZ, *fuzz_argv)
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=30
        )
        assert done.returncode == 1, done.stderr
        assert re.search(r"no outcome for seed\(s\) [\d, ]*\b2\b", done.stderr)
        assert "Traceback" not in done.stderr
        assert main(fuzz_argv + ["--resume"]) == 0
        resumed = capsys.readouterr()
        assert "iterations journaled" in resumed.err
        assert "all clean" in resumed.out
