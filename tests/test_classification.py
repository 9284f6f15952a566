"""Tests for the Table 2 miss classifier.

Three layers:

* **scenarios** — hand-written histories, one per classification rule,
  each call stamped with an explicit increasing time;
* **reference** — ``finalize`` gives exactly the counts of
  ``reference_finalize``, the sorted merge that expands every write, on
  arbitrary multi-node logs (hypothesis);
* **laziness** — ``finalize`` never reads the elements of a write span
  that no invalidation-caused miss asks about.
"""

from hypothesis import given, settings, strategies as st

from repro.stats.classification import (
    _OP_EVICT,
    _OP_INVAL,
    _OP_MISS,
    _OP_UPGRADE,
    _OP_WRITE,
    _OP_WSPAN,
    CATEGORIES,
    COLD,
    EVICTION,
    FALSE_SHARING,
    MissClassifier,
    TRUE_SHARING,
    WRITE_MISS,
)


def resolved(c):
    c.finalize()
    return c.counts


def counts(**kw):
    """A full ``counts`` dict: the categories named, all others zero."""
    return {cat: kw.get(cat, 0) for cat in CATEGORIES}


class TestClassifier:
    def test_first_access_is_cold(self):
        c = MissClassifier()
        c.classify_miss(proc=0, block=1, word=0, t=1)
        assert resolved(c) == counts(cold=1)

    def test_second_proc_first_access_also_cold(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.classify_miss(1, 1, 0, t=2)
        assert resolved(c) == counts(cold=2)

    def test_eviction_miss(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_eviction(0, 1, t=2)
        c.classify_miss(0, 1, 0, t=3)
        assert resolved(c) == counts(cold=1, eviction=1)

    def test_true_sharing(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.record_write(proc=1, block=1, word=0, t=3)  # another proc writes my word
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(cold=1, true=1)

    def test_false_sharing_different_word(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.record_write(proc=1, block=1, word=5, t=3)  # a different word
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(cold=1, false=1)

    def test_false_sharing_no_writes_at_all(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.classify_miss(0, 1, 0, t=3)
        assert resolved(c) == counts(cold=1, false=1)

    def test_own_write_does_not_make_true_sharing(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.record_write(proc=0, block=1, word=0, t=3)  # my own write
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(cold=1, false=1)

    def test_write_before_loss_is_not_true_sharing(self):
        c = MissClassifier()
        c.record_write(proc=1, block=1, word=0, t=1)  # happens before the loss
        c.classify_miss(0, 1, 0, t=2)
        c.record_invalidation(0, 1, t=3)
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(cold=1, false=1)

    def test_write_upgrade_category(self):
        c = MissClassifier()
        c.classify_write_upgrade(0, 1, t=1)
        assert resolved(c) == counts(write=1)
        assert c.counts[WRITE_MISS] == 1

    def test_upgrade_marks_block_touched(self):
        c = MissClassifier()
        c.classify_write_upgrade(0, 1, t=1)
        # Not cold anymore: the block was present (read-only) already.
        c.record_invalidation(0, 1, t=2)
        c.record_write(1, 1, 0, t=3)
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(write=1, true=1)

    def test_percentages_sum_to_100(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_eviction(0, 1, t=2)
        c.classify_miss(0, 1, 0, t=3)
        c.classify_write_upgrade(0, 1, t=4)
        p = c.percentages()
        assert abs(sum(p.values()) - 100.0) < 1e-9
        assert set(p) == set(CATEGORIES)

    def test_percentages_empty(self):
        p = MissClassifier().percentages()
        assert all(v == 0.0 for v in p.values())

    def test_eviction_takes_precedence_over_foreign_writes(self):
        # A capacity miss is an eviction miss even if others wrote since:
        # the processor would have missed regardless of coherence.
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_eviction(0, 1, t=2)
        c.record_write(1, 1, 0, t=3)
        c.classify_miss(0, 1, 0, t=4)
        assert resolved(c) == counts(cold=1, eviction=1)

    def test_counts_accumulate(self):
        c = MissClassifier()
        for b in range(5):
            c.classify_miss(0, b, 0, t=b + 1)
        assert c.total == 5
        assert c.counts == counts(cold=5)

    def test_per_proc_blocks_independent(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        # proc 1's history with block 1 is separate.
        c.classify_miss(1, 1, 0, t=3)
        assert resolved(c) == counts(cold=2)

    def test_equal_time_orders_by_node(self):
        # At equal t the lower node id comes first: node 1's write at
        # t=3 follows node 0's miss at t=3 but precedes node 2's.
        for miss_node, expected in ((0, FALSE_SHARING), (2, TRUE_SHARING)):
            c = MissClassifier()
            c.classify_miss(miss_node, 1, 0, t=1)
            c.record_invalidation(miss_node, 1, t=2)
            c.record_write(1, 1, 0, t=3)
            c.classify_miss(miss_node, 1, 0, t=3)
            assert resolved(c) == counts(cold=1, **{expected: 1})

    def test_write_span_elements_are_timed_by_step(self):
        # Node 1's span writes word 0 at t=5 (step 1) or t=6 (step 2):
        # before node 0's miss at t=6, or after it by node order.
        for step, expected in ((1, TRUE_SHARING), (2, FALSE_SHARING)):
            c = MissClassifier()
            c.classify_miss(0, 1, 0, t=1)
            c.record_invalidation(0, 1, t=2)
            c.record_write_span(1, 4, 1, (3, 0), step)
            c.classify_miss(0, 1, 0, t=6)
            assert resolved(c) == counts(cold=1, **{expected: 1})

    def test_last_write_before_the_miss_decides(self):
        # A foreign write after the loss is shadowed by the missing
        # node's own later write to the same word.
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.record_write(1, 1, 0, t=3)
        c.record_write_span(0, 4, 1, (0, 2), 1)
        c.classify_miss(0, 1, 0, t=9)
        assert resolved(c) == counts(cold=1, false=1)

    def test_span_advances_the_log_index(self):
        # The span's second element and the miss share t=5 and node 0;
        # the miss was logged after the span, so the node's own write
        # precedes it and shadows node 1's.
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.record_invalidation(0, 1, t=2)
        c.record_write(1, 1, 0, t=3)
        c.record_write_span(0, 4, 1, (2, 0), 1)
        c.classify_miss(0, 1, 0, t=5)
        assert resolved(c) == counts(cold=1, false=1)

    def test_finalize_is_idempotent(self):
        c = MissClassifier()
        c.classify_miss(0, 1, 0, t=1)
        c.finalize()
        c.finalize()
        assert c.total == 1


def reference_finalize(logs):
    """The sorted merge ``finalize`` replaced: every write span expands
    to per-element records, all records of all nodes sort in canonical
    ``(t, node, index)`` order, and a replay numbers the writes.  A miss
    after an invalidation is true sharing iff the last write to its word
    is another processor's and numbered after the loss.  ``finalize``
    must give exactly its counts."""
    elems = []
    for proc in sorted(logs):
        idx = 0
        for entry in logs[proc]:
            if entry[1] == _OP_WSPAN:
                t0, _, block, words, step = entry
                for j, word in enumerate(words):
                    elems.append((t0 + step * j, proc, idx, _OP_WRITE, block, word))
                    idx += 1
            else:
                t0, op, a, b = entry
                elems.append((t0, proc, idx, op, a, b))
                idx += 1
    elems.sort()
    out = counts()
    seq = 0
    last_write = {}  # (block, word) -> (writer, seq)
    loss = {}  # (proc, block) -> (invalidated, seq at loss)
    for _t, proc, _idx, op, block, word in elems:
        if op == _OP_WRITE:
            seq += 1
            last_write[(block, word)] = (proc, seq)
        elif op == _OP_MISS:
            lost = loss.get((proc, block))
            if lost is None:
                out[COLD] += 1
                loss[(proc, block)] = (False, -1)
            elif not lost[0]:
                out[EVICTION] += 1
            else:
                lw = last_write.get((block, word))
                if lw is not None and lw[0] != proc and lw[1] > lost[1]:
                    out[TRUE_SHARING] += 1
                else:
                    out[FALSE_SHARING] += 1
        elif op == _OP_INVAL:
            loss[(proc, block)] = (True, seq)
        elif op == _OP_EVICT:
            loss[(proc, block)] = (False, seq)
        else:  # _OP_UPGRADE
            out[WRITE_MISS] += 1
            loss.setdefault((proc, block), (False, -1))
    return out


_OPS = (_OP_WRITE, _OP_WSPAN, _OP_MISS, _OP_INVAL, _OP_EVICT, _OP_UPGRADE)
#: Number of distinct record codes (see :func:`log_codes`).
_CODES = 4 * 2 * 6 * 2 * 2 * 4 * 2 * 16


def log_codes(c, codes):
    """Log one record per integer code through the public API.

    A code picks a node (of 4), whether that node's clock advances (by 0
    or 1), an op, a block and a word (of 2 each), and for a write span 1-4
    words and a step of 1 or 2.  Few blocks and words make repeated
    losses of one block and invalidation-caused misses common; slow
    clocks make equal-time ties common, across nodes and between a
    record and a span element its node logged just before it.
    """
    clock = [0, 0, 0, 0]
    for x in codes:
        x, node = divmod(x, 4)
        x, dt = divmod(x, 2)
        x, op = divmod(x, 6)
        x, block = divmod(x, 2)
        x, word = divmod(x, 2)
        clock[node] += dt
        t = clock[node]
        op = _OPS[op]
        if op == _OP_WRITE:
            c.record_write(node, block, word, t)
        elif op == _OP_WSPAN:
            x, n = divmod(x, 4)
            step, bits = divmod(x, 16)
            words = tuple((bits >> k) & 1 for k in range(n + 1))
            c.record_write_span(node, t, block, words, 1 + step)
        elif op == _OP_MISS:
            c.classify_miss(node, block, word, t)
        elif op == _OP_INVAL:
            c.record_invalidation(node, block, t)
        elif op == _OP_EVICT:
            c.record_eviction(node, block, t)
        else:
            c.classify_write_upgrade(node, block, t)


class TestReference:
    @settings(max_examples=300, deadline=None)
    @given(codes=st.lists(st.integers(0, _CODES - 1), min_size=40, max_size=160))
    def test_counts_match_reference(self, codes):
        c = MissClassifier()
        log_codes(c, codes)
        logs = {p: list(log) for p, log in c._logs.items()}
        assert resolved(c) == reference_finalize(logs)


class OpaqueWords:
    """A span's word sequence that can be counted but not read."""

    def __len__(self):
        return 3

    def __iter__(self):
        raise AssertionError("span elements were read")

    def __getitem__(self, i):
        raise AssertionError("span elements were read")


class TestLaziness:
    def test_unqueried_span_is_never_expanded(self):
        c = MissClassifier()
        c.record_write_span(1, 1, 7, OpaqueWords(), 1)
        c.classify_miss(0, 7, 0, t=2)  # cold: asks no question
        # An invalidation-caused miss on another block runs pass 2.
        c.classify_miss(0, 1, 0, t=3)
        c.record_invalidation(0, 1, t=4)
        c.record_write(1, 1, 0, t=5)
        c.classify_miss(0, 1, 0, t=6)
        c.record_eviction(0, 7, t=7)
        c.classify_miss(0, 7, 0, t=8)
        assert resolved(c) == counts(cold=2, true=1, eviction=1)
