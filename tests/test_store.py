"""Tests for RunResult serialization and the on-disk result store."""

import json

import pytest

from repro.core.machine import RunResult
from repro.harness.experiments import clear_cache, run_spec
from repro.harness.spec import ExperimentSpec
from repro.results.store import SCHEMA_VERSION, ResultStore, RunFailure
from repro.stats.classification import CATEGORIES


@pytest.fixture(scope="module")
def classified_result():
    spec = ExperimentSpec("mp3d", "erc", n_procs=4, classify=True, small=True)
    return spec, spec.run()


@pytest.fixture(scope="module")
def plain_result():
    spec = ExperimentSpec("gauss", "lrc", n_procs=4, small=True,
                          overrides={"line_size": 64})
    return spec, spec.run()


class TestRunResultRoundTrip:
    def test_schema_version_is_pinned(self):
        # The round-trip layout below is what SCHEMA_VERSION == 1 means;
        # changing RunResult.to_dict() requires bumping it.
        assert SCHEMA_VERSION == 1

    def test_dict_is_json_safe(self, classified_result):
        _, r = classified_result
        back = json.loads(json.dumps(r.to_dict()))
        assert back == r.to_dict()

    def test_core_numbers_survive(self, plain_result):
        _, r = plain_result
        back = RunResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.exec_time == r.exec_time
        assert back.miss_rate == r.miss_rate
        assert back.protocol == r.protocol
        assert back.config == r.config
        assert back.config.line_size == 64

    def test_cycle_bucket_breakdowns_survive(self, plain_result):
        _, r = plain_result
        back = RunResult.from_dict(r.to_dict())
        assert back.breakdown() == r.breakdown()
        assert back.stats.total_cycles == r.stats.total_cycles
        base = r.stats.total_cycles
        assert back.stats.breakdown_normalized(base) == r.stats.breakdown_normalized(base)
        assert back.summary() == r.summary()

    def test_per_processor_counters_survive(self, plain_result):
        _, r = plain_result
        back = RunResult.from_dict(r.to_dict())
        assert len(back.stats.procs) == len(r.stats.procs)
        for a, b in zip(back.stats.procs, r.stats.procs):
            assert a.to_dict() == b.to_dict()

    def test_traffic_survives(self, plain_result):
        _, r = plain_result
        back = RunResult.from_dict(r.to_dict())
        assert back.traffic.total_messages == r.traffic.total_messages
        assert back.traffic.total_bytes == r.traffic.total_bytes
        assert back.traffic.total_hops == r.traffic.total_hops
        assert back.traffic.as_dict() == r.traffic.as_dict()

    def test_classifier_percentages_survive(self, classified_result):
        _, r = classified_result
        back = RunResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.classifier is not None
        assert back.classifier.total == r.classifier.total > 0
        assert back.classifier.counts == r.classifier.counts
        assert back.classifier.percentages() == r.classifier.percentages()
        assert set(back.classifier.percentages()) == set(CATEGORIES)

    def test_absent_classifier_round_trips_as_none(self, plain_result):
        _, r = plain_result
        assert r.classifier is None
        assert RunResult.from_dict(r.to_dict()).classifier is None


class TestResultStore:
    def test_save_then_load(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        path = store.save(spec, r)
        assert path.name == f"{spec.fingerprint()}.json"
        back = store.load(spec)
        assert back is not None
        assert back.exec_time == r.exec_time
        assert back.summary() == r.summary()
        assert spec in store and len(store) == 1

    def test_miss_on_absent(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        assert store.load(ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)) is None

    def test_different_spec_is_a_miss(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save(spec, r)
        assert store.load(spec.with_(protocol="erc")) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save(spec, r)
        store.path_for(spec).write_text("{ not json")
        assert store.load(spec) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        path = store.save(spec, r)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load(spec) is None

    def test_clear(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save(spec, r)
        assert store.clear() == 1
        assert len(store) == 0 and spec not in store

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save(spec, r)
        # A worker killed between mkstemp and os.replace leaves this behind.
        orphan = store.root / "deadbeef0123.json-abc123.tmp"
        orphan.write_text("{ half-written")
        assert store.clear() == 2
        assert not orphan.exists()
        assert list(store.root.iterdir()) == []

    def test_init_sweeps_old_tmp_but_keeps_fresh_ones(self, tmp_path):
        import os
        import time

        root = tmp_path / "rs"
        root.mkdir()
        stale = root / "stale.json-xyz.tmp"
        stale.write_text("{")
        os.utime(stale, (time.time() - 3600, time.time() - 3600))
        fresh = root / "fresh.json-abc.tmp"
        fresh.write_text("{")  # could be a write in flight elsewhere
        ResultStore(root)
        assert not stale.exists()
        assert fresh.exists()

    def test_failure_records_do_not_count_as_results(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save_failure(spec, RunFailure.from_exception(spec, ValueError("x")))
        assert len(store) == 0 and spec not in store
        store.save(spec, r)
        assert len(store) == 1

    def test_run_spec_uses_store_across_memo_clears(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "rs")
        spec = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        clear_cache()
        first = run_spec(spec, store=store)
        assert len(store) == 1
        clear_cache()
        # A fresh process would hit the store, not re-simulate: make any
        # attempt to simulate blow up.
        monkeypatch.setattr(
            ExperimentSpec, "run", lambda self: pytest.fail("re-simulated")
        )
        second = run_spec(spec, store=store)
        assert second is not first
        assert second.exec_time == first.exec_time
        assert second.summary() == first.summary()
        clear_cache()


class TestRunFailureRecords:
    SPEC = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)

    def _failure(self):
        return RunFailure.from_exception(self.SPEC, ValueError("boom"))

    def test_from_exception_maps_known_kinds(self):
        from repro.engine.simulator import DeadlockError
        from repro.engine.watchdog import SimulationStall

        f = RunFailure.from_exception(self.SPEC, SimulationStall("stuck"))
        assert f.kind == "stall" and f.message == "stuck"
        assert f.fingerprint == self.SPEC.fingerprint()
        assert "SimulationStall" in f.traceback or f.traceback
        assert RunFailure.from_exception(
            self.SPEC, DeadlockError("d")).kind == "deadlock"
        # Unknown exceptions keep their class name: never anonymous.
        assert RunFailure.from_exception(
            self.SPEC, ValueError("v")).kind == "ValueError"

    def test_save_then_load_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        f = self._failure()
        path = store.save_failure(self.SPEC, f)
        assert path.name == f"{self.SPEC.fingerprint()}.fail.json"
        back = store.load_failure(self.SPEC)
        assert back == f
        assert store.failures() == [f]

    def test_json_round_trip(self):
        f = self._failure()
        assert RunFailure.from_dict(json.loads(json.dumps(f.to_dict()))) == f

    def test_absent_and_corrupt_read_as_none(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        assert store.load_failure(self.SPEC) is None
        store.save_failure(self.SPEC, self._failure())
        store.failure_path_for(self.SPEC).write_text("{ not json")
        assert store.load_failure(self.SPEC) is None
        assert store.failures() == []

    def test_corrupt_record_is_skipped_with_a_warning(self, tmp_path, caplog):
        import logging

        store = ResultStore(tmp_path / "rs")
        good = self._failure()
        store.save_failure(self.SPEC, good)
        other = ExperimentSpec("gauss", "sc", n_procs=4, small=True)
        store.save_failure(other, RunFailure.from_exception(other, ValueError("y")))
        store.failure_path_for(other).write_text("{ not json")
        with caplog.at_level(logging.WARNING, logger="repro.results.store"):
            assert store.failures() == [good]
        assert any(
            "unreadable failure record" in rec.getMessage()
            for rec in caplog.records
        )

    def test_success_supersedes_failure(self, tmp_path, plain_result):
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        store.save_failure(spec, RunFailure.from_exception(spec, ValueError("x")))
        assert store.load_failure(spec) is not None
        store.save(spec, r)
        assert store.load_failure(spec) is None
        assert store.load(spec) is not None

    def test_clear_removes_failure_records_too(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        store.save_failure(self.SPEC, self._failure())
        assert store.clear() == 1
        assert store.failures() == []


class TestContentChecksums:
    """Stored JSON carries a content checksum, verified on every load
    (DESIGN.md §15): silent bit-rot reads as a miss, never as data."""

    SPEC = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)

    def _tamper(self, path, key, mutate):
        """Edit the envelope's payload without touching its checksum."""
        payload = json.loads(path.read_text())
        mutate(payload[key])
        path.write_text(json.dumps(payload))

    def test_tampered_result_reads_as_none(self, tmp_path, plain_result, caplog):
        import logging

        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        path = store.save(spec, r)
        assert store.load(spec) is not None
        self._tamper(path, "result", lambda d: d.__setitem__("exec_time", 1))
        with caplog.at_level(logging.WARNING, logger="repro.results.store"):
            assert store.load(spec) is None
        assert any("content checksum" in rec.getMessage()
                   for rec in caplog.records)

    def test_tampered_failure_reads_as_none(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        f = RunFailure.from_exception(self.SPEC, ValueError("boom"))
        path = store.save_failure(self.SPEC, f)
        assert store.load_failure(self.SPEC) == f
        self._tamper(path, "failure", lambda d: d.__setitem__("message", "benign"))
        assert store.load_failure(self.SPEC) is None
        assert store.failures() == []

    def test_envelopes_without_checksum_still_load(self, tmp_path, plain_result):
        # Files written before the checksum field existed verify trivially.
        spec, r = plain_result
        store = ResultStore(tmp_path / "rs")
        path = store.save(spec, r)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert store.load(spec) is not None

    def test_legacy_flat_failure_record_still_loads(self, tmp_path):
        # Old layout: failure fields flat in the envelope, no checksum.
        store = ResultStore(tmp_path / "rs")
        f = RunFailure.from_exception(self.SPEC, ValueError("boom"))
        path = store.failure_path_for(self.SPEC)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, **f.to_dict()}))
        assert store.load_failure(self.SPEC) == f
