"""Recorded reference streams: the record half of the record/replay engine.

An application's reference streams are a pure function of its parameters
and a handful of config fields (:data:`STREAM_CONFIG_FIELDS`): every app
pre-computes its random inputs in ``setup()`` and its ``program(pid)``
generators never observe machine state.  That purity is what makes the
record/replay split sound: execute the app's Python **once**, pack the
yielded ops into structure-of-arrays numpy columns, and drive any number
of (protocol, config) simulations from the arrays without ever resuming
an application generator again.

A :class:`RecordedStream` holds

* four parallel columns over all processors' ops — ``op`` (uint8 opcode),
  ``a`` / ``b`` / ``c`` (int64 operands: addr/sync-id/gap, count, stride;
  unused operands are zero) — with CSR-style ``starts`` offsets
  delimiting each processor's slice, and
* the app's allocation log (from
  :class:`~repro.program.address_space.RecordingAddressSpace`), so a
  replay machine reproduces identical segment bases and page-home
  assignments without running app code.

Streams are content-addressed two ways:

* :func:`stream_key` — the *request* key, computed from
  ``(app, params, stream-relevant config fields)`` before any recording
  happens; it indexes the in-process memo and the result store.
* :meth:`RecordedStream.fingerprint` — the *content* hash over the
  packed arrays and the allocation log; persisted alongside the arrays
  and re-checked on load, so a corrupt or stale cache entry reads as a
  miss, never as a wrong replay.

The replay side compiles a stream into per-processor micro-programs
(:mod:`repro.engine.replay`) that each node's
:class:`~repro.core.processor.Processor` walks with an integer cursor.
Hand-written programs passed to :meth:`repro.core.machine.Machine.run`
are packed by the same :func:`pack_programs` and take the same path.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.program.ops import RUN_OPS, SCALAR_ARITY

#: Bumped whenever the recorded format or the meaning of a stream key
#: changes; old cached streams then no longer collide with new ones.
STREAM_VERSION = 1

#: The :class:`~repro.config.SystemConfig` fields a reference stream may
#: depend on.  Apps allocate (``page_size``), pad to cache lines
#: (``line_size``, ``word_size``), partition work (``n_procs``) and seed
#: their RNGs (``seed``) — and nothing else: latency/bandwidth/cache-size
#: parameters shape *timing*, not the streams, which is exactly why one
#: recording serves a whole protocol × machine sweep.
STREAM_CONFIG_FIELDS = ("n_procs", "line_size", "page_size", "word_size", "seed")

_RUN_SET = frozenset(RUN_OPS)


def pack_programs(programs, source: str) -> Tuple[list, list, list, list, list]:
    """Pack one iterable of op tuples per processor into the stream
    columns ``(op, a, b, c, starts)``.

    Raises ``ValueError`` on an op a stream cannot hold (an unknown
    opcode or a wrong arity); ``source`` names the programs' origin in
    that message.
    """
    ops: List[int] = []
    av: List[int] = []
    bv: List[int] = []
    cv: List[int] = []
    starts = [0]
    for program in programs:
        for tup in program:
            kind = tup[0]
            if kind in _RUN_SET:
                if len(tup) != 4:
                    raise ValueError(f"malformed run op from {source!r}: {tup!r}")
                ops.append(kind)
                av.append(tup[1])
                bv.append(tup[2])
                cv.append(tup[3])
            else:
                arity = SCALAR_ARITY.get(kind)
                if arity is None or len(tup) != arity:
                    raise ValueError(f"unrecordable op from {source!r}: {tup!r}")
                ops.append(kind)
                av.append(tup[1] if arity == 2 else 0)
                bv.append(0)
                cv.append(0)
        starts.append(len(ops))
    return ops, av, bv, cv, starts


class RecordedStream:
    """Structure-of-arrays recording of one app's reference streams.

    ``meta`` snapshots the :data:`STREAM_CONFIG_FIELDS` the record phase
    ran under; :meth:`repro.core.machine.Machine.replay` validates the
    structural subset against its own config, so a stream can never be
    silently replayed on a machine with a different geometry.
    """

    __slots__ = (
        "op", "a", "b", "c", "starts", "alloc_log", "meta",
        "_fp", "_compiled",
    )

    def __init__(self, op, a, b, c, starts, alloc_log, meta) -> None:
        self.op = np.asarray(op, dtype=np.uint8)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.c = np.asarray(c, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.alloc_log: List[Tuple] = [tuple(entry) for entry in alloc_log]
        self.meta: Dict = dict(meta)
        self._fp: Optional[str] = None
        #: Per-proc micro-programs compiled by :mod:`repro.engine.replay`
        #: (block-span decomposition); cached here because the spans
        #: depend only on the stream itself, so one compilation serves
        #: every replay of this stream in the process.
        self._compiled: Optional[list] = None

    # -- shape ----------------------------------------------------------------

    @property
    def n_procs(self) -> int:
        return len(self.starts) - 1

    @property
    def n_ops(self) -> int:
        return len(self.op)

    def proc_slice(self, pid: int) -> slice:
        return slice(int(self.starts[pid]), int(self.starts[pid + 1]))

    def __len__(self) -> int:
        return self.n_ops

    def __repr__(self) -> str:
        return (
            f"RecordedStream(procs={self.n_procs}, ops={self.n_ops}, "
            f"allocs={len(self.alloc_log)})"
        )

    # -- recording ------------------------------------------------------------

    @classmethod
    def record(cls, app) -> "RecordedStream":
        """Run every ``app.program(pid)`` generator to exhaustion once.

        The app must have been built against a recording
        :class:`~repro.apps.common.AppContext` (the default), so its
        allocations are captured alongside its ops.
        """
        global RECORDINGS
        RECORDINGS += 1
        columns = pack_programs(
            (app.program(pid) for pid in range(app.n_procs)), app.name
        )
        meta = {f: getattr(app.cfg, f) for f in STREAM_CONFIG_FIELDS}
        return cls(*columns, app.space.alloc_log, meta)

    # -- identity / persistence -------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the packed stream (hex, filename-safe)."""
        if self._fp is None:
            h = hashlib.sha256()
            h.update(f"stream_version={STREAM_VERSION};".encode())
            h.update(json.dumps(self.meta, sort_keys=True).encode())
            h.update(json.dumps(self.alloc_log, sort_keys=False).encode())
            for col in (self.op, self.a, self.b, self.c, self.starts):
                h.update(str(col.dtype).encode())
                h.update(np.ascontiguousarray(col).tobytes())
            self._fp = h.hexdigest()[:24]
        return self._fp

    def to_bytes(self) -> bytes:
        """The stream as a self-describing ``.npz`` byte blob."""
        buf = io.BytesIO()
        meta = json.dumps(
            {
                "stream_version": STREAM_VERSION,
                "alloc_log": self.alloc_log,
                "meta": self.meta,
                "fingerprint": self.fingerprint(),
            }
        )
        np.savez_compressed(
            buf,
            op=self.op,
            a=self.a,
            b=self.b,
            c=self.c,
            starts=self.starts,
            meta=np.frombuffer(meta.encode(), dtype=np.uint8),
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RecordedStream":
        """Inverse of :meth:`to_bytes`; raises on any corruption."""
        with np.load(io.BytesIO(blob)) as z:
            meta = json.loads(z["meta"].tobytes().decode())
            if meta["stream_version"] != STREAM_VERSION:
                raise ValueError(
                    f"stream version {meta['stream_version']} != {STREAM_VERSION}"
                )
            stream = cls(
                z["op"], z["a"], z["b"], z["c"], z["starts"],
                meta["alloc_log"], meta["meta"],
            )
        if stream.fingerprint() != meta["fingerprint"]:
            raise ValueError("stream content does not match its fingerprint")
        return stream


#: Count of record-phase executions this process has performed.  Tests
#: (and the cache-hit acceptance criterion) assert a warm sweep leaves
#: this unchanged.
RECORDINGS = 0


def _canon(value):
    """Canonical JSON-able form of an app parameter value."""
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def stream_key(app_name: str, params: Dict, config) -> str:
    """Content address of the stream a record phase *would* produce.

    SHA-256 over the app name, its canonicalized parameters and the
    stream-relevant config fields (:data:`STREAM_CONFIG_FIELDS`) — the
    complete set of inputs the record phase consumes.  Configs differing
    only in timing parameters map to the same key, so one recording
    serves an entire sweep.
    """
    payload = {
        "stream_version": STREAM_VERSION,
        "app": app_name,
        "params": {str(k): _canon(v) for k, v in sorted(params.items())},
        "config": {f: getattr(config, f) for f in STREAM_CONFIG_FIELDS},
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:24]


#: In-process stream memo (LRU-bounded: fuzz campaigns record thousands
#: of distinct programs; sweeps reuse a handful of app streams).
_MEMO: "OrderedDict[str, RecordedStream]" = OrderedDict()
_MEMO_CAP = 128


def clear_stream_cache() -> None:
    """Drop the in-process stream memo (on-disk copies are untouched)."""
    _MEMO.clear()


def _memoize(key: str, stream: RecordedStream) -> RecordedStream:
    _MEMO[key] = stream
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_CAP:
        _MEMO.popitem(last=False)
    return stream


def recorded_stream(
    app_name: str, params: Dict, config, store=None
) -> RecordedStream:
    """The recorded stream for ``(app, params, config)``, recording at
    most once.

    Lookup order: in-process memo, then ``store`` (when given a
    :class:`~repro.results.store.ResultStore`), then a fresh record
    phase — whose result is written back to both tiers.
    """
    key = stream_key(app_name, params, config)
    hit = _MEMO.get(key)
    if hit is not None:
        _MEMO.move_to_end(key)
        return hit
    if store is not None:
        stored = store.load_stream(key)
        if stored is not None:
            return _memoize(key, stored)
    from repro.apps import APPS
    from repro.apps.common import AppContext

    app = APPS[app_name](AppContext(config), **params)
    stream = RecordedStream.record(app)
    if store is not None:
        store.save_stream(key, stream)
    return _memoize(key, stream)
