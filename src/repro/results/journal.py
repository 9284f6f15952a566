"""Write-ahead campaign journal: resumable long-running sweeps (DESIGN.md §15).

A campaign (``repro fuzz``) is a planned list of *cells* (its
iterations, which have no result-store entry; a ``repro figures`` sweep
resumes from the result store instead).  The journal records, as an
append-only JSONL file under the result store, each planned cell and
its outcome::

    <store-root>/journal/<kind>-<params-digest>.wal

    {"schema":1,"op":"plan","cell":"*","data":{...campaign params...},"sha":...}
    {"schema":1,"op":"start","cell":"<key>","data":null,"sha":...}
    {"schema":1,"op":"done","cell":"<key>","data":{...outcome...},"sha":...}
    {"schema":1,"op":"fail","cell":"<key>","data":{"kind":...,"message":...},"sha":...}

Appends are atomic at the line level (single ``write`` of one line,
flushed and fsynced); every record carries a content checksum, so a
process killed mid-append leaves at most one torn final line, which
:meth:`CampaignJournal.outcomes` detects and drops with a warning.  A
corrupt record mid-file truncates recovery at that point — later
records could depend on lost state, so they are ignored, and the
affected cells simply re-run.

Resume semantics (``--resume`` on the CLI): cells with a journaled
``done`` or ``fail`` outcome are *skipped* and their journaled data is
reused to rebuild the campaign's report/artifact — bit-identical to an
uninterrupted run, because cell execution is deterministic and the
journaled data is exactly what the live run would have produced.  Cells
with only a ``start`` (in flight when the campaign died) re-run.

The journal file is keyed by a digest of the campaign parameters, so
``--resume`` with different arguments opens a *different* journal
rather than mixing incompatible campaigns; the ``plan`` record keeps
the parameters readable for humans.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Optional

log = logging.getLogger(__name__)

JOURNAL_SCHEMA = 1

#: Journal files live under ``<store-root>/journal/``.
JOURNAL_SUBDIR = "journal"

#: The pseudo-cell key of the campaign-level ``plan`` record.
PLAN_CELL = "*"


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_sha(record: Dict[str, Any]) -> str:
    body = {k: v for k, v in record.items() if k != "sha"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:16]


def params_digest(params: Dict[str, Any]) -> str:
    """Stable digest of a campaign's parameters (filename-safe hex)."""
    return hashlib.sha256(_canonical(params).encode()).hexdigest()[:12]


class CampaignJournal:
    """Append-only, checksummed outcome log for one campaign."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    @classmethod
    def for_campaign(
        cls, store_root: os.PathLike, kind: str, params: Dict[str, Any]
    ) -> "CampaignJournal":
        """The journal for (``kind``, ``params``) under a store root;
        writes the ``plan`` record if the journal is new."""
        path = (
            Path(store_root)
            / JOURNAL_SUBDIR
            / f"{kind}-{params_digest(params)}.wal"
        )
        journal = cls(path)
        if not path.exists():
            journal.append("plan", PLAN_CELL, params)
        return journal

    # -- writing --------------------------------------------------------------

    def append(self, op: str, cell: str, data: Any = None) -> None:
        """Atomically append one checksummed record (flush + fsync)."""
        record = {
            "schema": JOURNAL_SCHEMA,
            "op": op,
            "cell": cell,
            "data": data,
        }
        record["sha"] = _record_sha(record)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(line)
            f.flush()
            os.fsync(f.fileno())

    def start(self, cell: str) -> None:
        self.append("start", cell)

    def done(self, cell: str, data: Any = None) -> None:
        self.append("done", cell, data)

    def fail(self, cell: str, kind: str, message: str) -> None:
        self.append("fail", cell, {"kind": kind, "message": message})

    # -- reading --------------------------------------------------------------

    def records(self):
        """Yield verified records in order; stop (with a warning) at the
        first torn or corrupt line — later records may depend on state
        that was lost with it."""
        try:
            with open(self.path) as f:
                lines = f.readlines()
        except OSError:
            return
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                kind = "torn tail" if i == len(lines) - 1 else "corrupt record"
                log.warning(
                    "%s: %s at line %d; ignoring it and %d later record(s)",
                    self.path, kind, i + 1, len(lines) - i - 1,
                )
                return
            if (
                not isinstance(record, dict)
                or record.get("schema") != JOURNAL_SCHEMA
                or record.get("sha") != _record_sha(record)
            ):
                log.warning(
                    "%s: checksum mismatch at line %d; ignoring it and "
                    "%d later record(s)",
                    self.path, i + 1, len(lines) - i - 1,
                )
                return
            yield record

    def outcomes(self) -> Dict[str, Dict[str, Any]]:
        """Latest outcome per cell: ``{cell: {"op": ..., "data": ...}}``.

        ``done``/``fail`` supersede ``start``; a later record for the
        same cell supersedes an earlier one (re-runs are appended, never
        rewritten).  The campaign ``plan`` appears under ``"*"``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            out[record["cell"]] = {"op": record["op"], "data": record["data"]}
        return out

    def plan(self) -> Optional[Dict[str, Any]]:
        """The campaign parameters recorded at creation, or None."""
        entry = self.outcomes().get(PLAN_CELL)
        return entry["data"] if entry and entry["op"] == "plan" else None

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Cells whose outcome is known (``done`` or ``fail``)."""
        return {
            cell: entry
            for cell, entry in self.outcomes().items()
            if entry["op"] in ("done", "fail")
        }

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass
