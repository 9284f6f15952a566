"""Miss classification (Table 2 of the paper).

Implements a word-granularity classification in the spirit of Bianchini &
Kontothanassis, "Algorithms for Categorizing Multiprocessor Communication
under Invalidate and Update-Based Coherence Protocols" (the paper's
reference [3]):

* **cold**    — the processor's first-ever access to the block.
* **eviction**— the line was lost to a capacity/conflict replacement.
* **true**   — the line was lost to a coherence invalidation and the word
  being accessed was written by another processor since the loss.
* **false**  — the line was lost to a coherence invalidation but the word
  being accessed was *not* written by another processor since the loss —
  the invalidation was an artifact of block granularity.
* **write**  — a write to a block present in the cache read-only
  ("they do not result in data transfers, since they occur when a block
  is already present in the cache but the processor does not have
  permission to write it").

The classifier is an optional observer: when detached, the simulator's
hot paths pay a single ``is None`` test.

Every call appends to a per-node log stamped with the node's simulated
time, and :meth:`finalize` resolves the logs in the canonical order
``(time, node, log index)``.  Canonical ordering makes the counts a
function of the simulated history rather than of host-side event
interleaving, which is what lets the span-batched replay engine, which
logs whole write spans as single compact records, produce
classifications bit-identical to per-element execution.

Resolution costs per miss, not per written word.  Cold, eviction and
write-upgrade outcomes never read write state, so one sorted pass over
the non-write records decides them.  Only a miss whose line was lost to
an invalidation asks about writes: it becomes a query, answered by
indexing the writes to just the ``(block, word)`` pairs that queries
name.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

COLD = "cold"
TRUE_SHARING = "true"
FALSE_SHARING = "false"
EVICTION = "eviction"
WRITE_MISS = "write"

CATEGORIES = (COLD, TRUE_SHARING, FALSE_SHARING, EVICTION, WRITE_MISS)

# Log opcodes (order within the log entry: (t, op, a, b)).
_OP_WRITE = 0      # a=block, b=word
_OP_EVICT = 1      # a=block
_OP_INVAL = 2      # a=block
_OP_MISS = 3       # a=block, b=word
_OP_UPGRADE = 4    # a=block
_OP_WSPAN = 5      # a=block, b=(words...), extra=time step per element


class MissClassifier:
    """Word-granularity miss classifier (observer)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {c: 0 for c in CATEGORIES}
        # Per-node operation logs.  An op is always appended to the log
        # of the node *executing* it, so each log's order is a function
        # of that node's own deterministic history.
        self._logs: Dict[int, List[tuple]] = defaultdict(list)
        self._finalized = False

    # -- write tracking (called on every simulated write) ----------------------

    def record_write(self, proc: int, block: int, word: int, t: int = 0) -> None:
        self._logs[proc].append((t, _OP_WRITE, block, word))

    def record_write_span(
        self, proc: int, t: int, block: int, words, step: int
    ) -> None:
        """Batch variant: one compact record for a span of writes to
        ``block``, element ``j`` writing ``words[j]`` at ``t + step * j``.

        The replay engine's span fast paths use this so an attached
        classifier does not demote them to per-element loops.  The span
        counts as ``len(words)`` log entries; :meth:`finalize` reads its
        elements only if an invalidation-caused miss asks about
        ``block``.  ``words`` is kept, not copied: pass an immutable
        sequence.
        """
        self._logs[proc].append((t, _OP_WSPAN, block, words, step))

    # -- loss tracking -----------------------------------------------------------

    def record_eviction(self, proc: int, block: int, t: int = 0) -> None:
        self._logs[proc].append((t, _OP_EVICT, block, 0))

    def record_invalidation(self, proc: int, block: int, t: int = 0) -> None:
        self._logs[proc].append((t, _OP_INVAL, block, 0))

    # -- miss classification -------------------------------------------------------

    def classify_miss(self, proc: int, block: int, word: int, t: int = 0) -> None:
        """A data-transfer miss by ``proc`` on ``(block, word)``; its
        category is decided by :meth:`finalize`."""
        self._logs[proc].append((t, _OP_MISS, block, word))

    def classify_write_upgrade(self, proc: int, block: int, t: int = 0) -> None:
        """A write to a read-only cached block (no data transfer)."""
        self._logs[proc].append((t, _OP_UPGRADE, block, 0))

    # -- resolution ------------------------------------------------------------------

    def finalize(self) -> None:
        """Resolve the per-node logs in canonical ``(t, node, index)``
        order, filling ``counts``.

        Pass 1 sorts only the non-write records and decides every miss
        that does not depend on writes.  A miss on a line lost to an
        invalidation becomes a query ``(block, word, proc, loss_key,
        miss_key)`` of canonical keys; pass 2 (:meth:`_sharing`) settles
        those.

        Idempotent.  Called by the machine at end of run; reporting
        accessors call it defensively.
        """
        if self._finalized:
            return
        self._finalized = True
        logs = self._logs
        recs: List[tuple] = []
        push = recs.append
        for proc, log in logs.items():
            idx = 0
            for entry in log:
                op = entry[1]
                if op == _OP_WSPAN:
                    idx += len(entry[3])
                    continue
                if op != _OP_WRITE:
                    push((entry[0], proc, idx, op, entry[2], entry[3]))
                idx += 1
        recs.sort()
        counts = self.counts
        # (proc, block) -> canonical key of the invalidation that last
        # took the line, or None when the last loss was an eviction or
        # the block has not been lost since its first touch (a cold miss
        # or an upgrade).  Absence means "never accessed" (the cold test).
        loss: Dict[Tuple[int, int], Optional[tuple]] = {}
        queries: List[tuple] = []
        for t, proc, idx, op, block, word in recs:
            key = (proc, block)
            if op == _OP_MISS:
                if key not in loss:
                    counts[COLD] += 1
                    loss[key] = None
                elif loss[key] is None:
                    counts[EVICTION] += 1
                else:
                    queries.append((block, word, proc, loss[key], (t, proc, idx)))
            elif op == _OP_INVAL:
                loss[key] = (t, proc, idx)
            elif op == _OP_EVICT:
                loss[key] = None
            else:  # _OP_UPGRADE
                counts[WRITE_MISS] += 1
                loss.setdefault(key, None)
        if queries:
            self._sharing(queries)
        logs.clear()

    def _sharing(self, queries: List[tuple]) -> None:
        """Pass 2: count each query as true or false sharing.

        Indexes the canonical keys of the writes to the queried
        ``(block, word)`` pairs only (a write elsewhere costs one set
        test), then finds the last write before the miss.  The miss is
        true sharing iff that write is another processor's and comes
        after the loss — ordered by canonical key, the same order the
        writes retire in.
        """
        writes: Dict[Tuple[int, int], List[tuple]] = {
            (q[0], q[1]): [] for q in queries
        }
        blocks = {block for block, _ in writes}
        for proc, log in self._logs.items():
            idx = 0
            for entry in log:
                op = entry[1]
                if op == _OP_WSPAN:
                    t0, _, block, words, step = entry
                    if block in blocks:
                        for j, word in enumerate(words):
                            keys = writes.get((block, word))
                            if keys is not None:
                                keys.append((t0 + step * j, proc, idx + j))
                    idx += len(words)
                    continue
                if op == _OP_WRITE and entry[2] in blocks:
                    keys = writes.get((entry[2], entry[3]))
                    if keys is not None:
                        keys.append((entry[0], proc, idx))
                idx += 1
        for keys in writes.values():
            keys.sort()
        true = 0
        for block, word, proc, loss_key, miss_key in queries:
            keys = writes[(block, word)]
            i = bisect_left(keys, miss_key)
            if i:
                last = keys[i - 1]
                if last[1] != proc and last > loss_key:
                    true += 1
        self.counts[TRUE_SHARING] += true
        self.counts[FALSE_SHARING] += len(queries) - true

    # -- reporting ------------------------------------------------------------------

    @property
    def total(self) -> int:
        self.finalize()
        return sum(self.counts.values())

    def percentages(self) -> Dict[str, float]:
        """Each category as a percentage of all misses (Table 2 rows)."""
        t = self.total
        if t == 0:
            return {c: 0.0 for c in CATEGORIES}
        return {c: 100.0 * self.counts[c] / t for c in CATEGORIES}

    # -- serialization (result store) -------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        """Category counts only: the per-node logs are working state of
        a live run, not part of the measured result."""
        self.finalize()
        return dict(self.counts)

    @classmethod
    def from_dict(cls, d: Dict[str, int]) -> "MissClassifier":
        """Rebuild a reporting-only classifier (counts/percentages work;
        further ``record_*``/``classify_*`` calls would start from empty
        logs and must not be mixed with restored counts)."""
        c = cls()
        c.counts = {cat: int(d.get(cat, 0)) for cat in CATEGORIES}
        return c
