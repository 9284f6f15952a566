"""The per-node CPU: runs one compiled micro-program against one node.

Every workload reaches the CPU the same way: as a recorded stream
compiled by :func:`repro.engine.replay.compile_stream` into a flat list
of micro-ops (scalar op tuples, same-block spans, and run micro-ops that
carry a multi-block run's spans).  The processor walks that list with a
persistent iterator and a ``for`` loop; there are no generator frames
on the hot path.

Design notes (hot path):

* Cache hits are resolved inline against the raw tag/state lists — a
  read hit costs a few integer ops and no function calls; a write hit on
  a read-write line with a live coalescing-buffer entry is equally flat.
* A fresh span, or a whole run micro-op, retires in one step when it
  fits before the quantum deadline and every block it touches provably
  needs no protocol work, or only the opening of its coalescing-buffer
  entry, which one ``Protocol.cpu_write_words`` call does for all the
  span's words (see :mod:`repro.engine.replay` for the three batchable
  cases).  Otherwise the run's spans continue from a second
  iterator, ``_cur``, through the per-span path: a span's tail retires
  as one batch, the element that does need the protocol runs alone
  through the per-element step, and the rest of the span re-qualifies;
  an entry-opening write there takes the span's elements up to the
  deadline with it.  With a value model attached every element runs
  per-element, which makes the value-checked run the differential
  oracle for the batched one.
* A processor runs in bounded *quanta*: it may advance at most
  ``config.quantum`` cycles past the global clock before rescheduling,
  which bounds the timing skew between processors (important for
  contention and sharing interleavings) while keeping the event queue
  out of the per-reference path.

Blocking protocol ops hand control to the protocol object, which calls
:meth:`Processor.unblock` when the stall resolves.  The convention for
``Protocol.cpu_write`` is: return the new local time if the CPU may
continue, or ``-1`` if the CPU must stall and retry the same write when
woken (write-buffer full, or SC write miss).  ``cpu_write_words`` never
stalls: each of its words costs one cycle, which the CPU counts itself.
"""

from __future__ import annotations

from heapq import heappush
from itertools import islice
from typing import Optional

from repro.engine.events import LANE_LOCAL
from repro.engine.replay import (
    BATCH,
    ELEMENT,
    READ_SPAN,
    READ_SPANS,
    RW_SPAN,
    SPAN_CONT,
    WRITE_ONLY,
    WRITE_SPAN,
)
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    RELEASE,
    SET_FLAG,
    WAIT_FLAG,
    WRITE,
)

# Stall buckets.
B_READ = 0
B_WB = 1
B_SYNC = 2

#: Human-readable stall-bucket names (keyed by the B_* constants).
BUCKET_NAMES = {B_READ: "read", B_WB: "write-buffer", B_SYNC: "sync"}


class Processor:
    """Drives one node from a compiled micro-program.

    The cursor is an iterator: ``_prog`` over the micro-program list,
    and ``_cur``, which is ``_prog`` or, while a run micro-op goes
    through the per-span path, an iterator over that run's spans.
    Scalar ops block with their own tuple as the pending op; a blocked
    or split span parks as a :data:`~repro.engine.replay.SPAN_CONT`
    continuation, which runs before ``_cur`` resumes.
    """

    __slots__ = (
        "id",
        "node",
        "machine",
        "sim",
        "protocol",
        "stats",
        "_prog",
        "_cur",
        "_pending",
        "_line_shift",
        "_word_mask",
        "done",
        "blocked",
        "_block_t",
        "_block_bucket",
        "_env",
        "_wake",
        "_lane",
    )

    def __init__(self, node, machine) -> None:
        self.id = node.id
        self.node = node
        self.machine = machine
        self.sim = machine.sim
        self.protocol = machine.protocol
        self.stats = node.stats
        cfg = machine.config
        self._prog = self._cur = iter(())
        self._pending = None
        self._line_shift = cfg.line_shift
        self._word_mask = (cfg.line_size // cfg.word_size) - 1
        self.done = False
        self.blocked = False
        self._block_t = 0
        self._block_bucket = B_READ
        self._env = ()  # bound by start()
        # run_quantum bound once: every wake-up schedules this object.
        self._wake = self.run_quantum
        # The event queue's local lane: unblock pushes the wake-up itself.
        self._lane = self.sim.local_lane()

    def start(self, mops: list) -> None:
        """Load a micro-program and schedule its first quantum at cycle 0.

        Binds what every quantum reads and nothing changes during a run,
        so a wake-up unpacks it in one step: the node's cache lists and
        buffers (lazy protocols expose the coalescing buffer's word map,
        so the steady-state write path, an RW line with a live entry,
        stays inline), and the machine's observers, attached by now.  A
        value model must see every element, so it runs spans
        per-element; a classifier takes batched writes as span records.
        With neither, a write that would open a present line's
        coalescing-buffer entry opens it for all the span's words that
        retire this quantum, in one ``cpu_write_words`` call.
        """
        node = self.node
        cache = node.cache
        prot = self.protocol
        machine = self.machine
        obs = machine.classifier
        vm = machine.valmodel
        wt = node.cbuf.words if node.cbuf is not None else None
        self._env = (
            self.sim, node, cache.tags, cache.states, cache.set_mask,
            self._line_shift, self._word_mask, self.stats, prot,
            node.wb.words if node.wb is not None else None, wt,
            prot.wb_coalesce_states, self.id, machine.config.quantum,
            obs, vm, vm is None, BATCH if vm is None else ELEMENT,
            prot.cpu_write_words if vm is None and obs is None and wt is not None else None,
        )
        self._prog = self._cur = iter(mops)
        self.sim.at(0, self._wake)

    # -- blocking ------------------------------------------------------------------

    def block(self, t: int, bucket: int) -> None:
        assert not self.blocked, f"proc {self.id} double-blocked"
        self.blocked = True
        self._block_t = t
        self._block_bucket = bucket

    @property
    def blocked_on_write_buffer(self) -> bool:
        """True when the CPU is stalled waiting on a write-buffer slot.

        Protocols that free a slot (write-buffer retirement) use this to
        decide whether to wake the CPU, instead of reaching into the
        private ``_block_bucket`` bookkeeping.
        """
        return self.blocked and self._block_bucket == B_WB

    @property
    def block_reason(self) -> Optional[str]:
        """Name of the stall bucket the CPU is blocked in, or ``None``."""
        return BUCKET_NAMES[self._block_bucket] if self.blocked else None

    def unblock(self, t: int) -> None:
        """Resume execution at time ``t``.

        ``t`` may be earlier than the blocking time: the CPU runs up to a
        quantum ahead of the global clock, so a resource can free (in
        global time) before the CPU's local clock reached the stall.  In
        that case the stall was zero cycles long.
        """
        assert self.blocked, f"proc {self.id} unblocked while running"
        self.blocked = False
        if t < self._block_t:
            t = self._block_t
        stall = t - self._block_t
        st = self.stats
        b = self._block_bucket
        if b == B_READ:
            st.read_stall += stall
        elif b == B_WB:
            st.wb_stall += stall
        else:
            st.sync_stall += stall
        now = self.sim.now
        heap, seq = self._lane
        heappush(heap, (t if t > now else now, LANE_LOCAL, next(seq), self._wake, ()))

    def complete_pending_write(self) -> None:
        """Mark the blocked write op as performed (SC ownership grant).

        Under SC the write must be bound to the ownership grant: if the
        CPU merely retried it, a racing invalidation could beat the retry
        every time and livelock two writers of the same line.  The caller
        grants ownership, installs/upgrades the line, then calls this to
        consume the pending write; the CPU resumes at the next op.
        """
        op = self._pending
        assert op is not None, "no pending write to complete"
        if op[0] == WRITE:
            addr = op[1]
            block = addr >> self._line_shift
            word = (addr >> 3) & self._word_mask
            self._pending = None
        elif op[0] == SPAN_CONT:
            _, block, base, count, stride, words, j, kind, _mode = op
            word = words[j]
            self._pending = (
                (SPAN_CONT, block, base, count, stride, words, j + 1, kind, BATCH)
                if j + 1 < count else None
            )
        else:
            raise AssertionError(f"pending op is not a write: {op!r}")
        self.stats.writes += 1
        vm = self.machine.valmodel
        if vm is not None:
            vm.write(self.id, block, word)

    def _finish(self, t: int) -> None:
        self.done = True
        self.stats.finish_time = t
        self.machine.proc_finished(self.id, t)

    # -- the quantum runner ----------------------------------------------------------

    def run_quantum(self) -> None:
        (
            sim, node, tags, states, mask, lsh, wmask, stats, prot, wb_words, wt,
            coalesce, my_id, quantum, obs, vm, fast, fresh, opener,
        ) = self._env
        t = sim.now
        deadline = t + quantum
        prog = self._prog
        cur = self._cur

        pend = self._pending
        self._pending = None

        # Reads and writes count in locals and reach ``stats`` when the
        # quantum ends; nothing reads the counters while a CPU runs.
        nr = nw = 0
        try:
            while True:
                # A parked op runs alone first, then ``cur`` resumes.
                if pend is None:
                    ops = cur
                else:
                    ops = (pend,)
                    pend = None
                for op in ops:
                    kind = op[0]

                    # -- block spans and runs -----------------------------------
                    if kind >= READ_SPAN:
                        if kind == READ_SPAN:
                            _, block, base, count, stride = op
                            s = block & mask
                            words = None
                            j = 0
                            if not (tags[s] == block and states[s]) and not (
                                wb_words is not None and block in wb_words
                            ):
                                mode = ELEMENT  # element 0 misses
                            elif fast and count <= deadline - t:
                                # The whole span hits and fits: one step.
                                nr += count
                                t += count
                                if t >= deadline:
                                    sim.at(t, self._wake)
                                    return
                                continue
                            else:
                                mode = fresh
                        elif kind > SPAN_CONT:
                            # A multi-block run.  If it fits before the
                            # deadline, its spans retire back to back while
                            # each block batches; from the first span that
                            # does not (or from the first, if the run does
                            # not fit) the spans go through the per-span
                            # path from a span iterator.  A span's first
                            # element is ``(base - run base) // stride``.
                            _, spans, count = op
                            if kind == READ_SPANS:
                                if fast and count <= deadline - t:
                                    for sp in spans:
                                        block = sp[1]
                                        s = block & mask
                                        if not (tags[s] == block and states[s]) and not (
                                            wb_words is not None and block in wb_words
                                        ):
                                            break
                                    else:
                                        nr += count
                                        t += count
                                        if t >= deadline:
                                            sim.at(t, self._wake)
                                            return
                                        continue
                                    k = spans.index(sp)
                                    if k:
                                        m = (sp[2] - spans[0][2]) // sp[4]
                                        nr += m
                                        t += m
                                        cur = islice(spans, k, None)
                                        break
                            elif fast and (count << 1) <= deadline - t + 1:
                                for sp in spans:
                                    block = sp[1]
                                    s = block & mask
                                    if tags[s] == block and states[s] == 2:
                                        if wt is not None:
                                            ws = wt.get(block)
                                            if ws is not None:
                                                ws.update(sp[5])
                                            elif opener is None:
                                                break
                                            else:
                                                m = (sp[2] - spans[0][2]) // sp[4]
                                                opener(node, t + 2 * m + 1, block, sp[5])
                                    else:
                                        st = states[s] if tags[s] == block else 0
                                        ws = wb_words.get(block) if st in coalesce else None
                                        if ws is not None:
                                            ws.update(sp[5])
                                        elif opener is None or not st:
                                            break
                                        else:
                                            m = (sp[2] - spans[0][2]) // sp[4]
                                            opener(node, t + 2 * m + 1, block, sp[5])
                                    if obs is not None:
                                        m = (sp[2] - spans[0][2]) // sp[4]
                                        obs.record_write_span(my_id, t + 2 * m + 1, block, sp[5], 2)
                                else:
                                    nr += count
                                    nw += count
                                    t += count << 1
                                    if t >= deadline:
                                        sim.at(t, self._wake)
                                        return
                                    continue
                                k = spans.index(sp)
                                if k:
                                    m = (sp[2] - spans[0][2]) // sp[4]
                                    nr += m
                                    nw += m
                                    t += m << 1
                                    cur = islice(spans, k, None)
                                    break
                            cur = iter(spans)
                            break
                        elif kind < SPAN_CONT:
                            _, block, base, count, stride, words = op
                            s = block & mask
                            j = 0
                            st = states[s] if tags[s] == block else 0
                            if st == 2:
                                ws = wt.get(block) if wt is not None else None
                                batch = wt is None or ws is not None
                            else:
                                ws = wb_words.get(block) if st in coalesce else None
                                batch = ws is not None
                            rw = kind - WRITE_SPAN
                            if not batch and (opener is None or not st):
                                mode = ELEMENT  # element 0 needs the protocol
                            elif fast and (count << rw) <= deadline - t + rw:
                                # The whole span batches and fits: one step.
                                # A present line with no buffer entry opens
                                # one at the first write, for every word.
                                if obs is not None:
                                    obs.record_write_span(my_id, t + rw, block, words, 1 + rw)
                                if ws is not None:
                                    ws.update(words)
                                elif not batch:
                                    opener(node, t + rw, block, words)
                                nw += count
                                if rw:
                                    nr += count
                                t += count << rw
                                if t >= deadline:
                                    sim.at(t, self._wake)
                                    return
                                continue
                            else:
                                mode = fresh if batch else ELEMENT
                        else:
                            _, block, base, count, stride, words, j, kind, mode = op
                            mode = mode or fresh
                            s = block & mask
                        while True:
                            if not mode:
                                # The one batched-tail block: fresh spans that do
                                # not fit, tails after a per-element step, resumed
                                # continuations.
                                if words is None:
                                    batch = (tags[s] == block and states[s]) or (
                                        wb_words is not None and block in wb_words
                                    )
                                else:
                                    st = states[s] if tags[s] == block else 0
                                    if st == 2:
                                        ws = wt.get(block) if wt is not None else None
                                        batch = wt is None or ws is not None
                                    else:
                                        ws = wb_words.get(block) if st in coalesce else None
                                        batch = ws is not None
                                if batch:
                                    left = deadline - t
                                    m = count - j
                                    if words is None:
                                        if m > left:
                                            m = left
                                        nr += m
                                        t += m
                                    else:
                                        rw = kind == RW_SPAN
                                        if rw:
                                            left = (left + 1) >> 1
                                        if m > left:
                                            m = left
                                        w = words[j : j + m]
                                        if obs is not None:
                                            obs.record_write_span(my_id, t + rw, block, w, 1 + rw)
                                        if ws is not None:
                                            ws.update(w)
                                        nw += m
                                        if rw:
                                            nr += m
                                            t += m
                                        t += m
                                    j += m
                                    if j < count:
                                        self._pending = (
                                            SPAN_CONT, block, base, count, stride, words, j,
                                            kind, BATCH,
                                        )
                                        sim.at(t, self._wake)
                                        return
                                    break
                            # Element j alone: the per-element step.
                            if words is not None:
                                word = words[j]
                            else:
                                word = ((base + j * stride) >> 3) & wmask
                            if kind != WRITE_SPAN and mode != WRITE_ONLY:
                                nr += 1
                                if tags[s] == block and states[s]:
                                    t += 1
                                    if vm is not None:
                                        vm.read_hit(my_id, block, word)
                                elif wb_words is not None and block in wb_words:
                                    t += 1  # read bypasses / forwards from the write buffer
                                    if vm is not None:
                                        vm.read_wb(my_id, block, word)
                                else:
                                    stats.read_misses += 1
                                    if obs is not None:
                                        obs.classify_miss(my_id, block, word, t)
                                    if vm is not None:
                                        vm.read_miss(my_id, block, word)
                                    if kind == RW_SPAN:
                                        self._pending = (
                                            SPAN_CONT, block, base, count, stride, words, j,
                                            kind, WRITE_ONLY,
                                        )
                                    elif j + 1 < count:
                                        self._pending = (
                                            SPAN_CONT, block, base, count, stride, words,
                                            j + 1, kind, BATCH,
                                        )
                                    self.block(t, B_READ)
                                    prot.cpu_read_miss(node, t, block)
                                    return
                            mode = fresh
                            if kind != READ_SPAN:
                                if obs is not None:
                                    obs.record_write(my_id, block, word, t)
                                if tags[s] == block and states[s] == 2 and (
                                    wt is None or block in wt
                                ):
                                    if wt is not None:
                                        wt[block].add(word)
                                    t += 1
                                elif opener is not None and tags[s] == block and states[s]:
                                    # This write opens the line's buffer
                                    # entry: it does so for every element
                                    # that retires before the deadline.
                                    m = deadline - t
                                    if kind == RW_SPAN:
                                        m = (m >> 1) + 1
                                    if m > count - j:
                                        m = count - j
                                    opener(node, t, block, words[j : j + m])
                                    nw += m
                                    t += m
                                    if kind == RW_SPAN:
                                        nr += m - 1
                                        t += m - 1
                                    j += m
                                    if j == count:
                                        break
                                    self._pending = (
                                        SPAN_CONT, block, base, count, stride, words, j,
                                        kind, BATCH,
                                    )
                                    sim.at(t, self._wake)
                                    return
                                else:
                                    nt = prot.cpu_write(node, t, block, word)
                                    if nt < 0:
                                        self._pending = (
                                            SPAN_CONT, block, base, count, stride, words, j,
                                            kind, WRITE_ONLY if kind == RW_SPAN else BATCH,
                                        )
                                        self.block(t, B_WB)
                                        return
                                    t = nt
                                nw += 1
                                if vm is not None:
                                    vm.write(my_id, block, word)
                            j += 1
                            if j == count:
                                break
                            if t >= deadline:
                                self._pending = (
                                    SPAN_CONT, block, base, count, stride, words, j, kind,
                                    BATCH,
                                )
                                sim.at(t, self._wake)
                                return

                    # -- scalar ops ------------------------------------------------
                    elif kind == COMPUTE:
                        c = op[1]
                        if t + c <= deadline:
                            t += c
                        else:
                            done_now = deadline - t
                            self._pending = (COMPUTE, c - done_now)
                            sim.at(deadline, self._wake)
                            return

                    elif kind == READ:
                        addr = op[1]
                        block = addr >> lsh
                        s = block & mask
                        nr += 1
                        if tags[s] == block and states[s]:
                            t += 1
                            if vm is not None:
                                vm.read_hit(my_id, block, (addr >> 3) & wmask)
                        elif wb_words is not None and block in wb_words:
                            t += 1  # read bypasses / forwards from the write buffer
                            if vm is not None:
                                vm.read_wb(my_id, block, (addr >> 3) & wmask)
                        else:
                            stats.read_misses += 1
                            word = (addr >> 3) & wmask
                            if obs is not None:
                                obs.classify_miss(my_id, block, word, t)
                            if vm is not None:
                                vm.read_miss(my_id, block, word)
                            self.block(t, B_READ)
                            prot.cpu_read_miss(node, t, block)
                            return

                    elif kind == WRITE:
                        addr = op[1]
                        block = addr >> lsh
                        s = block & mask
                        word = (addr >> 3) & wmask
                        if obs is not None:
                            obs.record_write(my_id, block, word, t)
                        if tags[s] == block and states[s] == 2 and (wt is None or block in wt):
                            if wt is not None:
                                wt[block].add(word)
                            t += 1
                        else:
                            nt = prot.cpu_write(node, t, block, word)
                            if nt < 0:
                                self._pending = op
                                self.block(t, B_WB)
                                return
                            t = nt
                        nw += 1
                        if vm is not None:
                            vm.write(my_id, block, word)

                    elif kind == ACQUIRE:
                        stats.acquires += 1
                        self.block(t, B_SYNC)
                        prot.cpu_acquire(node, t, op[1])
                        return

                    elif kind == RELEASE:
                        stats.releases += 1
                        self.block(t, B_SYNC)
                        prot.cpu_release(node, t, op[1])
                        return

                    elif kind == BARRIER:
                        stats.barriers += 1
                        self.block(t, B_SYNC)
                        prot.cpu_barrier(node, t, op[1])
                        return

                    elif kind == FENCE:
                        self.block(t, B_SYNC)
                        prot.cpu_fence(node, t)
                        return

                    elif kind == SET_FLAG:
                        stats.releases += 1
                        self.block(t, B_SYNC)
                        prot.cpu_set_flag(node, t, op[1])
                        return

                    elif kind == WAIT_FLAG:
                        stats.acquires += 1
                        self.block(t, B_SYNC)
                        prot.cpu_wait_flag(node, t, op[1])
                        return

                    else:
                        raise ValueError(f"unknown opcode {kind!r}")

                    if t >= deadline:
                        self._pending = None
                        sim.at(t, self._wake)
                        return

                else:
                    if ops is not cur:
                        continue  # the parked op is done
                    if cur is prog:
                        self._finish(t)
                        return
                    cur = prog  # the run's spans are done

        finally:
            self._cur = cur
            stats.reads += nr
            stats.writes += nw
