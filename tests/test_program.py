"""Tests for the op encoding and the shared address space."""

import pytest

from repro.config import SystemConfig
from repro.program import AddressSpace, ops
from repro.program.ops import op_name


class TestOps:
    def test_opcodes_distinct(self):
        codes = [
            ops.READ, ops.WRITE, ops.READ_RUN, ops.WRITE_RUN, ops.RW_RUN,
            ops.COMPUTE, ops.ACQUIRE, ops.RELEASE, ops.BARRIER, ops.FENCE,
            ops.SET_FLAG, ops.WAIT_FLAG,
        ]
        assert len(set(codes)) == len(codes)

    def test_op_names(self):
        assert op_name(ops.READ) == "READ"
        assert op_name(ops.WAIT_FLAG) == "WAIT_FLAG"

    def test_unknown_op_name_raises(self):
        with pytest.raises(KeyError):
            op_name(999)


class TestAddressSpace:
    def cfg(self, n=4):
        return SystemConfig(n_procs=n)

    def test_alloc_page_aligned(self):
        sp = AddressSpace(self.cfg())
        seg = sp.alloc(100, "a")
        assert seg.base % 4096 == 0
        assert seg.size == 4096

    def test_allocations_dont_overlap(self):
        sp = AddressSpace(self.cfg())
        a = sp.alloc(5000, "a")
        b = sp.alloc(5000, "b")
        assert a.end <= b.base

    def test_page_zero_unmapped(self):
        sp = AddressSpace(self.cfg())
        sp.alloc(4096, "a")
        with pytest.raises(KeyError):
            sp.home_of_block(0)

    def test_striped_placement(self):
        sp = AddressSpace(self.cfg(4))
        seg = sp.alloc(8 * 4096, "a", home="striped")
        homes = [sp.home_of_addr(seg.base + i * 4096) for i in range(8)]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_blocked_placement(self):
        sp = AddressSpace(self.cfg(4))
        seg = sp.alloc(8 * 4096, "a", home="blocked")
        homes = [sp.home_of_addr(seg.base + i * 4096) for i in range(8)]
        assert homes == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_fixed_placement(self):
        sp = AddressSpace(self.cfg(4))
        seg = sp.alloc(3 * 4096, "a", home=2)
        for i in range(3):
            assert sp.home_of_addr(seg.base + i * 4096) == 2

    def test_fixed_placement_out_of_range(self):
        sp = AddressSpace(self.cfg(4))
        with pytest.raises(ValueError):
            sp.alloc(4096, "a", home=9)

    def test_unknown_policy(self):
        sp = AddressSpace(self.cfg())
        with pytest.raises(ValueError):
            sp.alloc(4096, "a", home="mystery")

    def test_zero_size_rejected(self):
        sp = AddressSpace(self.cfg())
        with pytest.raises(ValueError):
            sp.alloc(0, "a")

    def test_block_home_consistent_with_addr_home(self):
        cfg = self.cfg(4)
        sp = AddressSpace(cfg)
        seg = sp.alloc(4 * 4096, "a")
        for off in (0, 4096, 8192, 12000):
            addr = seg.base + off
            block = addr >> cfg.line_shift
            assert sp.home_of_block(block) == sp.home_of_addr(addr)

    def test_fast_lookup_closure(self):
        cfg = self.cfg(4)
        sp = AddressSpace(cfg)
        seg = sp.alloc(4 * 4096, "a")
        lookup = sp.build_block_home_lookup()
        block = seg.base >> cfg.line_shift
        assert lookup(block) == sp.home_of_block(block)

    def test_fast_lookup_sees_later_allocations(self):
        cfg = self.cfg(4)
        sp = AddressSpace(cfg)
        lookup = sp.build_block_home_lookup()
        seg = sp.alloc(4096, "late")
        assert lookup(seg.base >> cfg.line_shift) == sp.home_of_addr(seg.base)

    def test_fast_lookup_memo_never_holds_an_unallocated_block(self):
        cfg = self.cfg(4)
        sp = AddressSpace(cfg)
        lookup = sp.build_block_home_lookup()
        block = sp.page_size >> cfg.line_shift  # first page, not yet allocated
        with pytest.raises(KeyError):
            lookup(block)
        seg = sp.alloc(4096, "a")
        assert seg.base >> cfg.line_shift == block
        assert lookup(block) == lookup(block) == sp.home_of_block(block)

    def test_bytes_allocated(self):
        sp = AddressSpace(self.cfg())
        sp.alloc(4096, "a")
        sp.alloc(100, "b")
        assert sp.bytes_allocated == 2 * 4096


class TestSegment:
    def test_addr_indexing(self):
        sp = AddressSpace(SystemConfig(n_procs=4))
        seg = sp.alloc(4096, "a", elem_size=8)
        assert seg.addr(0) == seg.base
        assert seg.addr(10) == seg.base + 80

    def test_addr_bounds_checked(self):
        sp = AddressSpace(SystemConfig(n_procs=4))
        seg = sp.alloc(4096, "a", elem_size=8)
        with pytest.raises(IndexError):
            seg.addr(512)
        with pytest.raises(IndexError):
            seg.addr(-1)

    def test_elem_size_respected(self):
        sp = AddressSpace(SystemConfig(n_procs=4))
        seg = sp.alloc(4096, "a", elem_size=16)
        assert seg.addr(1) - seg.addr(0) == 16
        assert seg.n_elems == 256

    def test_unchecked_is_fast_path_equivalent(self):
        sp = AddressSpace(SystemConfig(n_procs=4))
        seg = sp.alloc(4096, "a")
        assert seg.addr_unchecked(3) == seg.addr(3)
