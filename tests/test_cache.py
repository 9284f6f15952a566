"""Tests for the cache, write buffer, and coalescing buffer."""

import pytest

from repro.cache import INVALID, RO, RW, Cache, CoalescingBuffer, WriteBuffer
from repro.config import SystemConfig


def small_cache(n_lines=8):
    cfg = SystemConfig.scaled(n_procs=4, cache_size=n_lines * 128)
    return Cache(cfg)


class TestCache:
    def test_initially_empty(self):
        c = small_cache()
        assert c.lookup(0) == INVALID
        assert c.resident_blocks() == []

    def test_install_and_lookup(self):
        c = small_cache()
        assert c.install(3, RO) is None
        assert c.lookup(3) == RO
        assert c.resident(3)

    def test_direct_mapped_conflict_evicts(self):
        c = small_cache(n_lines=8)
        c.install(1, RO)
        victim = c.install(1 + 8, RW)  # same set
        assert victim == (1, RO)
        assert c.lookup(1) == INVALID
        assert c.lookup(9) == RW

    def test_install_same_block_no_eviction(self):
        c = small_cache()
        c.install(5, RO)
        assert c.install(5, RW) is None
        assert c.lookup(5) == RW

    def test_victim_of_preview(self):
        c = small_cache(n_lines=8)
        c.install(2, RW)
        assert c.victim_of(2 + 8) == (2, RW)
        assert c.victim_of(3) is None
        # Preview must not mutate.
        assert c.lookup(2) == RW

    def test_upgrade(self):
        c = small_cache()
        c.install(4, RO)
        c.upgrade(4)
        assert c.lookup(4) == RW

    def test_upgrade_missing_raises(self):
        c = small_cache()
        with pytest.raises(KeyError):
            c.upgrade(4)

    def test_downgrade(self):
        c = small_cache()
        c.install(4, RW)
        c.downgrade(4)
        assert c.lookup(4) == RO

    def test_invalidate(self):
        c = small_cache()
        c.install(4, RO)
        assert c.invalidate(4)
        assert c.lookup(4) == INVALID
        assert not c.invalidate(4)  # already gone
        assert c.coherence_invalidations == 1

    def test_eviction_counter(self):
        c = small_cache(n_lines=8)
        c.install(0, RO)
        c.install(8, RO)
        c.install(16, RO)
        assert c.evictions == 2

    def test_clear(self):
        c = small_cache()
        c.install(1, RO)
        c.install(2, RW)
        c.clear()
        assert c.resident_blocks() == []

    def test_rejects_non_power_of_two_sets(self):
        cfg = SystemConfig.scaled(n_procs=4, cache_size=3 * 128)
        with pytest.raises(ValueError):
            Cache(cfg)

    def test_whole_block_tags_distinguish_conflicting_blocks(self):
        c = small_cache(n_lines=8)
        c.install(8, RO)
        assert c.lookup(16) == INVALID  # same set, different block


class TestWriteBuffer:
    def test_add_and_coalesce(self):
        wb = WriteBuffer(4)
        assert wb.add(10, 0)
        assert wb.add(10, 3)  # coalesces
        assert len(wb) == 1
        assert wb.words[10] == {0, 3}

    def test_fifo_order(self):
        wb = WriteBuffer(4)
        wb.add(1, 0)
        wb.add(2, 0)
        assert wb.head() == 1
        assert wb.retire_head() == {0}
        assert wb.head() == 2

    def test_full_rejects_new_entries(self):
        wb = WriteBuffer(2)
        assert wb.add(1, 0)
        assert wb.add(2, 0)
        assert wb.full
        assert not wb.add(3, 0)
        # But coalescing into an existing entry still works when full.
        assert wb.add(1, 5)

    def test_contains_for_read_bypass(self):
        wb = WriteBuffer(4)
        wb.add(7, 2)
        assert wb.contains(7)
        assert not wb.contains(8)

    def test_retire_frees_slot(self):
        wb = WriteBuffer(1)
        wb.add(1, 0)
        assert not wb.add(2, 0)
        wb.retire_head()
        assert wb.add(2, 0)

    def test_empty_flag(self):
        wb = WriteBuffer(4)
        assert wb.empty
        wb.add(1, 0)
        assert not wb.empty

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(0)

    def test_fifo_is_a_deque(self):
        # O(1) head retirement: list.pop(0) was O(n) per retire.
        from collections import deque

        wb = WriteBuffer(64)
        for b in range(64):
            wb.add(b, 0)
        assert isinstance(wb.order, deque)
        retired = []
        while not wb.empty:
            retired.append(wb.head())
            wb.retire_head()
        assert retired == list(range(64))


class TestCoalescingBuffer:
    def test_merge_same_block(self):
        cb = CoalescingBuffer(4)
        assert cb.add(5, {0, 1}) is None
        assert cb.add(5, {2}) is None
        assert cb.words[5] == {0, 1, 2}
        assert len(cb) == 1

    def test_capacity_displaces_fifo_victim(self):
        cb = CoalescingBuffer(2)
        cb.add(1, {0})
        cb.add(2, {0})
        victim = cb.add(3, {0})
        assert victim == (1, {0})
        assert not cb.contains(1)
        assert cb.contains(2) and cb.contains(3)

    def test_drain_returns_all_fifo(self):
        cb = CoalescingBuffer(4)
        cb.add(1, {0})
        cb.add(2, {1})
        out = cb.drain()
        assert out == [(1, {0}), (2, {1})]
        assert cb.empty

    def test_remove_specific_block(self):
        cb = CoalescingBuffer(4)
        cb.add(1, {0, 2})
        assert cb.remove(1) == {0, 2}
        assert cb.remove(1) is None
        assert cb.empty

    def test_add_copies_word_set(self):
        cb = CoalescingBuffer(4)
        ws = {0}
        cb.add(1, ws)
        ws.add(99)
        assert cb.words[1] == {0}

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CoalescingBuffer(0)

    def test_fifo_is_a_deque(self):
        from collections import deque

        cb = CoalescingBuffer(8)
        for b in range(12):
            cb.add(b, {0})
        assert isinstance(cb.order, deque)
        assert list(cb.order) == list(range(4, 12))  # oldest 4 displaced
