"""Campaign-journal tests (DESIGN.md §15).

The journal is the write-ahead log behind ``--resume``: append-only,
checksummed per record, tolerant of a torn final line (the process was
killed mid-append) and loud about corruption anywhere else.
"""

import json

import pytest

from repro.results.journal import (
    JOURNAL_SCHEMA,
    PLAN_CELL,
    CampaignJournal,
    params_digest,
)


@pytest.fixture
def journal(tmp_path):
    return CampaignJournal(tmp_path / "j.wal")


class TestRecords:
    def test_append_round_trips(self, journal):
        journal.start("a")
        journal.done("a", {"rows": 3})
        journal.start("b")
        ops = [(r["op"], r["cell"]) for r in journal.records()]
        assert ops == [("start", "a"), ("done", "a"), ("start", "b")]
        assert [r["data"] for r in journal.records()] == [None, {"rows": 3}, None]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in journal.records())

    def test_outcomes_latest_record_wins(self, journal):
        journal.start("a")
        journal.start("a")  # the first try died in flight and re-ran
        assert journal.outcomes()["a"] == {"op": "start", "data": None}
        journal.done("a", {"ok": True})
        out = journal.outcomes()
        assert out["a"] == {"op": "done", "data": {"ok": True}}

    def test_completed_excludes_in_flight_cells(self, journal):
        journal.start("finished")
        journal.done("finished", 1)
        journal.start("inflight")
        journal.done("also", 2)
        done = journal.completed()
        assert set(done) == {"finished", "also"}
        assert done["also"] == {"op": "done", "data": 2}

    def test_missing_file_reads_as_empty(self, journal):
        assert list(journal.records()) == []
        assert journal.outcomes() == {}
        assert journal.plan() is None


class TestCorruption:
    def test_torn_tail_is_dropped_with_a_warning(self, journal, caplog):
        journal.done("a", 1)
        journal.done("b", 2)
        with open(journal.path, "a") as f:
            f.write('{"schema":1,"op":"done","cel')  # killed mid-append
        with caplog.at_level("WARNING", logger="repro.results.journal"):
            out = journal.outcomes()
        assert set(out) == {"a", "b"}
        assert any("torn tail" in r.getMessage() for r in caplog.records)

    def test_corrupt_mid_file_record_truncates_recovery(self, journal, caplog):
        journal.done("a", 1)
        journal.done("b", 2)
        journal.done("c", 3)
        lines = journal.path.read_text().splitlines()
        bad = json.loads(lines[1])
        bad["data"] = 999  # tampered: sha no longer matches
        lines[1] = json.dumps(bad, separators=(",", ":"))
        journal.path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="repro.results.journal"):
            out = journal.outcomes()
        # Recovery stops at the bad record: "c" is dropped too.
        assert set(out) == {"a"}
        assert any("checksum mismatch" in r.getMessage() for r in caplog.records)

    def test_wrong_schema_is_refused(self, journal, caplog):
        journal.done("a", 1)
        record = {"schema": 99, "op": "done", "cell": "b", "data": 2}
        with open(journal.path, "a") as f:
            f.write(json.dumps(record) + "\n")
        with caplog.at_level("WARNING", logger="repro.results.journal"):
            assert set(journal.outcomes()) == {"a"}


class TestForCampaign:
    def test_plan_record_written_once(self, tmp_path):
        params = {"kind": "faults", "rates": [0.01, 0.05]}
        j = CampaignJournal.for_campaign(tmp_path, "faults", params)
        assert j.plan() == params
        j.done("rate-0.01", {"n_fail": 0})
        # Reopening the same campaign appends nothing.
        again = CampaignJournal.for_campaign(tmp_path, "faults", params)
        assert again.path == j.path
        assert [r["op"] for r in again.records()] == ["plan", "done"]

    def test_different_params_open_different_journals(self, tmp_path):
        a = CampaignJournal.for_campaign(tmp_path, "fuzz", {"seed": 1})
        b = CampaignJournal.for_campaign(tmp_path, "fuzz", {"seed": 2})
        assert a.path != b.path
        a.done("iter-1")
        assert b.completed() == {}

    def test_digest_is_stable_under_key_order(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest({"b": 2, "a": 1})

    def test_clear_removes_the_file(self, tmp_path):
        j = CampaignJournal.for_campaign(tmp_path, "fuzz", {"seed": 3})
        assert j.path.exists()
        j.clear()
        assert not j.path.exists()
        j.clear()  # idempotent
        assert list(j.records()) == []

    def test_plan_cell_is_reserved(self, journal):
        journal.append("plan", PLAN_CELL, {"x": 1})
        journal.done("real-cell", 1)
        assert PLAN_CELL not in journal.completed()
        assert journal.plan() == {"x": 1}
