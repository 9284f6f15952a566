"""On-disk result store, keyed by experiment-spec fingerprint.

Layout (``.repro-results/`` by default)::

    <root>/
        <fingerprint>.json       one file per completed experiment
        <fingerprint>.fail.json  structured RunFailure for a crashed /
                                 stalled / timed-out run (superseded by
                                 a later successful result)
        <stream-key>.stream.npz  one recorded reference stream per
                                 (app, params, stream-config) — the
                                 record phase's output, reused by every
                                 replay that shares the key

Each file holds a schema-versioned envelope::

    {
      "schema": 1,
      "fingerprint": "<spec.fingerprint()>",
      "checksum": "<sha256 of the canonical content JSON>",
      "spec": {...ExperimentSpec.to_dict()...},   # for humans / debugging
      "result": {...RunResult.to_dict()...}
    }

``checksum`` is a content integrity check over the payload (the result
or failure dict): a file corrupted *after* its atomic write —
truncated by a crashed filesystem, bit-flipped on disk — reads as a
miss with a logged warning rather than silently feeding a figure wrong
numbers.  Envelopes written before the field existed verify as intact
(there is nothing to check against), so old stores stay warm.

Invalidation rule: a stored entry is used only when *both* its schema
version matches :data:`SCHEMA_VERSION` *and* its filename fingerprint
matches the requesting spec.  The fingerprint covers every spec field
plus ``SPEC_VERSION`` (see :mod:`repro.harness.spec`), so changing any
experiment parameter — or the meaning of one — is automatically a store
miss; bumping :data:`SCHEMA_VERSION` orphans (but does not delete) all
old entries.  Corrupt or truncated files are treated as misses, never
as errors: the store is a cache, the simulator is the source of truth.

Writes are atomic (temp file + ``os.replace``) so concurrent runner
workers and concurrent CLI invocations can share one store directory;
last-writer-wins is harmless because results are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
import traceback as _traceback
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

log = logging.getLogger(__name__)

from repro.core.machine import RunResult
from repro.harness.spec import ExperimentSpec

#: Version of the RunResult JSON layout.  Bump on any breaking change to
#: ``RunResult.to_dict()`` (or the nested stats/traffic/classifier dicts).
SCHEMA_VERSION = 1

#: Default store location (relative to the working directory).
DEFAULT_ROOT = ".repro-results"

#: Environment variable that switches on a process-wide default store.
ENV_STORE_DIR = "REPRO_RESULTS_DIR"

#: Filename suffix of failure records (``<fingerprint>.fail.json``).
FAILURE_SUFFIX = ".fail.json"

#: Minimum age (seconds) before an orphaned ``*.tmp`` file is swept.
#: Younger temp files may belong to a write in flight in another
#: process; anything older than this was left behind by a crash between
#: ``mkstemp`` and ``os.replace``.
TMP_SWEEP_AGE = 300.0

#: What loading a corrupt, truncated or wrong-version stream blob raises
#: (bit flips in the archive surface as ``zlib.error`` or, in a zip
#: header, as an unsupported compression method).
_BAD_BLOB = (
    ValueError, KeyError, EOFError, OSError, zipfile.BadZipFile,
    zlib.error, NotImplementedError,
)


def _content_checksum(content) -> str:
    """SHA-256 over the canonical JSON of a payload dict."""
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _verify_checksum(payload: dict, key: str, path) -> bool:
    """True when ``payload[key]`` matches the envelope's checksum.

    Envelopes without a checksum (written before the field existed)
    verify trivially; a mismatch is logged, never raised — the store is
    a cache and a corrupt entry is just a miss.
    """
    recorded = payload.get("checksum")
    if recorded is None:
        return True
    actual = _content_checksum(payload.get(key))
    if actual != recorded:
        log.warning(
            "%s failed its content checksum (recorded %s..., actual "
            "%s...); treating it as missing", path, recorded[:12], actual[:12],
        )
        return False
    return True


def _failure_body(payload: dict, path) -> Optional[dict]:
    """The failure dict inside an envelope, or None if corrupt.

    Failure envelopes come in two generations: the original flat layout
    (the failure's own fields spread at top level, no checksum) and the
    current ``{"schema": ..., "checksum": ..., "failure": {...}}`` one.
    """
    if "failure" in payload:
        if not _verify_checksum(payload, "failure", path):
            return None
        return payload["failure"]
    return payload


#: Exception class name -> stable failure kind.  Anything unlisted is
#: recorded under its own class name, so no failure is ever anonymous.
_KIND_BY_EXCEPTION = {
    "SimulationStall": "stall",
    "DeadlockError": "deadlock",
    "InvariantViolation": "invariant",
    "ConformanceViolation": "conformance",
    "TimeoutError": "timeout",
}


@dataclass
class RunFailure:
    """A structured record of one crashed / stalled / timed-out run.

    Persisted next to results as ``<fingerprint>.fail.json`` so a failed
    sweep leaves evidence behind instead of losing the diagnosis with
    the worker process.  A later *successful* run of the same spec
    supersedes (deletes) the record.
    """

    kind: str          # stall | deadlock | invariant | timeout | <ExcName>
    message: str
    traceback: str
    fingerprint: str
    spec: dict

    @classmethod
    def from_exception(cls, spec: ExperimentSpec, exc: BaseException) -> "RunFailure":
        name = type(exc).__name__
        return cls(
            kind=_KIND_BY_EXCEPTION.get(name, name),
            message=str(exc),
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            fingerprint=spec.fingerprint(),
            spec=spec.to_dict(),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "traceback": self.traceback,
            "fingerprint": self.fingerprint,
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunFailure":
        return cls(
            kind=d["kind"],
            message=d["message"],
            traceback=d.get("traceback", ""),
            fingerprint=d["fingerprint"],
            spec=d.get("spec", {}),
        )


class ResultStore:
    """A directory of ``<fingerprint>.json`` experiment results."""

    def __init__(self, root: os.PathLike = DEFAULT_ROOT) -> None:
        self.root = Path(root)
        self._sweep_orphaned_tmp()

    def _sweep_orphaned_tmp(self, min_age: float = TMP_SWEEP_AGE) -> int:
        """Delete ``*.tmp`` files older than ``min_age`` seconds.

        Atomic writes go through ``mkstemp`` + ``os.replace``; a worker
        killed in between leaves the temp file behind forever (nothing
        else knows its randomized name).  Age-gating keeps the sweep
        safe to run concurrently with live writers, and every unlink
        tolerates losing the race to another sweeper.
        """
        n = 0
        if not self.root.is_dir():
            return n
        cutoff = time.time() - min_age
        for p in self.root.glob("*.tmp"):
            try:
                if p.stat().st_mtime <= cutoff:
                    p.unlink()
                    n += 1
            except OSError:
                continue
        return n

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{spec.fingerprint()}.json"

    def failure_path_for(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{spec.fingerprint()}{FAILURE_SUFFIX}"

    # -- persistence ----------------------------------------------------------

    def _atomic_write(self, final: Path, payload: dict) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=final.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, separators=(",", ":"))
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def save(self, spec: ExperimentSpec, result: RunResult) -> Path:
        """Atomically persist one result; returns the file written.

        A success supersedes any earlier failure record for the spec.
        """
        d = result.to_dict()
        final = self._atomic_write(
            self.path_for(spec),
            {
                "schema": SCHEMA_VERSION,
                "fingerprint": spec.fingerprint(),
                "checksum": _content_checksum(d),
                "spec": spec.to_dict(),
                "result": d,
            },
        )
        try:
            self.failure_path_for(spec).unlink()
        except OSError:
            pass
        return final

    def load(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Return the stored result for ``spec``, or None on any miss
        (absent, wrong schema version, or unreadable/corrupt file)."""
        path = self.path_for(spec)
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            if payload["schema"] != SCHEMA_VERSION:
                return None
            if payload["fingerprint"] != spec.fingerprint():
                return None
            if not _verify_checksum(payload, "result", path):
                return None
            return RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.load(spec) is not None

    # -- failure records -------------------------------------------------------

    def save_failure(self, spec: ExperimentSpec, failure: RunFailure) -> Path:
        """Atomically persist one failure record; returns the file written."""
        d = failure.to_dict()
        return self._atomic_write(
            self.failure_path_for(spec),
            {
                "schema": SCHEMA_VERSION,
                "checksum": _content_checksum(d),
                "failure": d,
            },
        )

    def load_failure(self, spec: ExperimentSpec) -> Optional[RunFailure]:
        """The stored failure record for ``spec``, or None.

        Same tolerance as :meth:`load`: absent, wrong-schema, or corrupt
        records read as None, never as errors.
        """
        path = self.failure_path_for(spec)
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            if payload["schema"] != SCHEMA_VERSION:
                return None
            d = _failure_body(payload, path)
            return RunFailure.from_dict(d) if d is not None else None
        except (KeyError, TypeError, ValueError):
            return None

    def failures(self) -> List[RunFailure]:
        """Every readable failure record in the store."""
        out: List[RunFailure] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob(f"*{FAILURE_SUFFIX}")):
            try:
                with open(path) as f:
                    payload = json.load(f)
                if payload.get("schema") == SCHEMA_VERSION:
                    d = _failure_body(payload, path)
                    if d is not None:
                        out.append(RunFailure.from_dict(d))
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                # A half-written or corrupt record is a skip, not an
                # error — but a silent skip hides evidence, so say so.
                log.warning("skipping unreadable failure record %s: %s", path, exc)
                continue
        return out

    # -- recorded streams ------------------------------------------------------

    def stream_path_for(self, key: str) -> Path:
        return self.root / f"{key}.stream.npz"

    def save_stream(self, key: str, stream) -> Path:
        """Atomically persist one recorded stream under its request key."""
        final = self.stream_path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=key, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(stream.to_bytes())
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def load_stream(self, key: str):
        """The stored stream for ``key``, or None on any miss.

        Same tolerance as :meth:`load`: absent, wrong-version, corrupt,
        or fingerprint-mismatched blobs read as None, never as errors —
        the record phase simply runs again.  Any other exception, such as
        the ``TimeoutError`` of a ``--timeout`` alarm, propagates.
        """
        from repro.program.stream import RecordedStream

        try:
            blob = self.stream_path_for(key).read_bytes()
        except OSError:
            return None
        try:
            return RecordedStream.from_bytes(blob)
        except TimeoutError:
            raise  # a ``--timeout`` alarm, not a bad blob (it is an OSError)
        except _BAD_BLOB:
            return None

    # -- maintenance ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored *results* (failure records not included)."""
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for p in self.root.glob("*.json")
            if not p.name.endswith(FAILURE_SUFFIX)
        )

    def clear(self) -> int:
        """Delete every stored entry (results, failure records,
        recorded streams, and orphaned temp files); returns how many
        files were removed."""
        n = 0
        if self.root.is_dir():
            for pattern in ("*.json", "*.stream.npz", "*.tmp"):
                for p in self.root.glob(pattern):
                    try:
                        p.unlink()
                        n += 1
                    except OSError:
                        continue  # lost a race to a concurrent clear
        return n


def default_store() -> Optional[ResultStore]:
    """The process-wide store, or None when disk caching is off.

    Library calls (``run_spec``, ``ExperimentSpec.run``) touch disk only
    when ``REPRO_RESULTS_DIR`` is set, keeping tests hermetic; the
    ``python -m repro figures`` CLI passes a store explicitly.
    """
    root = os.environ.get(ENV_STORE_DIR)
    return ResultStore(root) if root else None
