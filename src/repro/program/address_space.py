"""Shared address space and data placement.

A bump allocator hands out page-aligned segments; each page is assigned a
home node at allocation time.  The directory entry for a block "resides
at the block's home node — the node whose main memory contains the
block's page" (Section 2).

Placement policies:

* ``"striped"`` (default) — consecutive pages round-robin across nodes,
  the common default for scientific allocators.
* ``"blocked"``  — the segment is split into one contiguous chunk per
  node (good for partitioned per-processor data).
* an integer    — the whole segment lives on that node.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.config import SystemConfig


class Segment:
    """A named, page-aligned allocation in the shared address space."""

    __slots__ = ("name", "base", "size", "elem_size")

    def __init__(self, name: str, base: int, size: int, elem_size: int = 8) -> None:
        self.name = name
        self.base = base
        self.size = size
        self.elem_size = elem_size

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        a = self.base + index * self.elem_size
        if a >= self.end or index < 0:
            raise IndexError(
                f"{self.name}[{index}] out of bounds (size {self.size} bytes)"
            )
        return a

    def addr_unchecked(self, index: int) -> int:
        """Hot-path address computation without bounds checking."""
        return self.base + index * self.elem_size

    @property
    def n_elems(self) -> int:
        return self.size // self.elem_size

    def __repr__(self) -> str:
        return f"Segment({self.name!r}, base={self.base:#x}, size={self.size})"


class BlockHomeLookup(dict):
    """``block -> home node id`` map, memoised per block.

    Holds the *live* ``page_home`` dict by reference — it grows as the
    space allocates — plus the constant block→page shift.  A block's
    home is computed from its page on first lookup and stored: a page's
    home is fixed when the page is allocated, so the memo never goes
    stale.  The hot path calls the bound ``__getitem__``, a C-level dict
    lookup with no Python frame once the block has been seen.
    """

    __slots__ = ("page_home", "shift")

    def __init__(self, page_home: Dict[int, int], shift: int) -> None:
        super().__init__()
        self.page_home = page_home
        self.shift = shift

    def __missing__(self, block: int) -> int:
        home = self[block] = self.page_home[block >> self.shift]
        return home


class AddressSpace:
    """Bump allocator plus the page -> home-node map."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.page_size = config.page_size
        self._page_shift = config.page_size.bit_length() - 1
        self._line_shift = config.line_shift
        self._next = config.page_size  # keep page 0 unmapped (null guard)
        self._next_rr_node = 0
        self.page_home: Dict[int, int] = {}
        self.segments: List[Segment] = []

    def alloc(
        self,
        nbytes: int,
        name: str = "",
        home: Union[str, int] = "striped",
        elem_size: int = 8,
    ) -> Segment:
        """Allocate ``nbytes`` (rounded up to whole pages)."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        pages = -(-nbytes // self.page_size)
        base = self._next
        self._next += pages * self.page_size
        first_page = base >> self._page_shift
        n = self.config.n_procs
        if home == "striped":
            for p in range(pages):
                self.page_home[first_page + p] = self._next_rr_node
                self._next_rr_node = (self._next_rr_node + 1) % n
        elif home == "blocked":
            # ceil-sized chunks so every page gets a home even when
            # pages does not divide evenly.
            chunk = -(-pages // n)
            for p in range(pages):
                self.page_home[first_page + p] = min(p // chunk, n - 1)
        elif isinstance(home, int):
            if not (0 <= home < n):
                raise ValueError(f"home node {home} out of range")
            for p in range(pages):
                self.page_home[first_page + p] = home
        else:
            raise ValueError(f"unknown placement policy {home!r}")
        seg = Segment(name or f"seg{len(self.segments)}", base, pages * self.page_size, elem_size)
        self.segments.append(seg)
        return seg

    def home_of_block(self, block: int) -> int:
        """Home node of a cache block (block = byte_addr >> line_shift)."""
        page = (block << self._line_shift) >> self._page_shift
        try:
            return self.page_home[page]
        except KeyError:
            raise KeyError(
                f"access to unallocated address {block << self._line_shift:#x}"
            ) from None

    def home_of_addr(self, addr: int) -> int:
        return self.page_home[addr >> self._page_shift]

    def build_block_home_lookup(self):
        """Return a fast ``block -> home`` callable for the hot path.

        The :class:`BlockHomeLookup` shares ``page_home`` by reference,
        so allocations made after the lookup was built are still visible
        through it.
        """
        lookup = BlockHomeLookup(self.page_home, self._page_shift - self._line_shift)
        return lookup.__getitem__

    @property
    def bytes_allocated(self) -> int:
        return self._next - self.page_size


class RecordingAddressSpace(AddressSpace):
    """An address space that logs every allocation it hands out.

    The log — ``(nbytes, name, home, elem_size)`` per :meth:`alloc` call,
    in order — is the piece of app construction a
    :class:`~repro.program.stream.RecordedStream` must carry so a replay
    machine can reproduce identical segment bases *and* page-home
    assignments without re-running any application Python.  Allocation is
    deterministic (bump pointer + policy), so replaying the log against a
    fresh :class:`AddressSpace` built from an equivalent config yields a
    bit-identical ``page_home`` map.
    """

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self.alloc_log: List[tuple] = []

    def alloc(
        self,
        nbytes: int,
        name: str = "",
        home: Union[str, int] = "striped",
        elem_size: int = 8,
    ) -> Segment:
        seg = super().alloc(nbytes, name, home, elem_size)
        self.alloc_log.append((nbytes, seg.name, home, elem_size))
        return seg


def apply_alloc_log(space: AddressSpace, alloc_log) -> None:
    """Replay a recorded allocation log into ``space``."""
    for nbytes, name, home, elem_size in alloc_log:
        space.alloc(nbytes, name, home, elem_size)
