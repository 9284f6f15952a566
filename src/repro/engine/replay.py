"""The replay half of the record/replay engine.

A :class:`~repro.program.stream.RecordedStream` is compiled — once per
stream, cached on the stream object — into per-processor *micro-programs*:
flat Python lists in which

* scalar ops keep their legacy tuple forms (the run loop's dispatch for
  them is unchanged), and
* every run op is decomposed into **block spans**: maximal runs of
  consecutive elements that fall in one cache block, pre-tagged with the
  block number and (for write/rw spans) the tuple of word indices the
  elements touch.  Spans are cut by arithmetic on the block bounds and
  the stride, and equal word tuples are one shared object, so compiling
  costs O(spans), not O(elements).

The :class:`ReplayProcessor` drives a machine from a micro-program with
a slot-based cursor (plain integer index into the list; no generator
frames).  It retires a span's tail ``[j, count)`` as one batch — one tag
check, one bulk stats/time update, one ``set.update`` of buffer words —
whenever the tail provably needs no protocol work:

* **line present** — reads hit (state RO or RW, or a live write-buffer
  entry to forward from); writes hit (state RW, and the block's
  coalescing-buffer entry is live or the protocol has none);
* **write-buffer coalescing** — the block has a live write-buffer entry
  and its state is in the protocol's ``wb_coalesce_states`` (erc:
  INVALID and RO; lrc, lrc-ext, tardis: INVALID).  Such a write only
  adds its word to the entry: 1 cycle, no message, no stall.

Spans are *resumable*: an element that does need the protocol (a read
miss, an RO upgrade, a cold coalescing-buffer entry, a full write
buffer) runs alone through the per-element step — the exact code path
of the generator engine — and the rest of the span re-qualifies for the
batch.  A miss or stall parks the span as a continuation that resumes at
the same element.  Only a value model, which must see every element,
runs spans wholly per-element; a miss classifier takes batched writes as
``record_write_span`` records.

Bit-identity contract: no simulator event can run between the elements
of a span (the CPU loop is synchronous within a quantum), and neither
batchable case changes cache, buffer or protocol state beyond the words
it adds, so the preconditions checked at the head of a tail hold for all
of it.  The batch formulas reproduce the per-element time/stat
arithmetic exactly, including quantum-deadline splits.  The differential
suite (``tests/test_replay.py``) and the golden fixtures hold the two
engines to bit-identical :class:`RunResult`\\ s.
"""

from __future__ import annotations

from typing import List

from repro.core.processor import B_READ, B_SYNC, B_WB, Processor
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    READ_RUN,
    RELEASE,
    RW_RUN,
    SET_FLAG,
    WAIT_FLAG,
    WRITE,
    WRITE_RUN,
)

#: Micro-op opcodes for block spans (disjoint from the program opcodes).
READ_SPAN = 32
WRITE_SPAN = 33
RW_SPAN = 34
#: A span parked mid-way: ``(SPAN_CONT, block, base, count, stride, words,
#: j, kind, mode)`` resumes span ``kind`` at element ``j`` in ``mode``.
SPAN_CONT = 35

#: How a span's next element runs: ``BATCH`` lets the tail batch,
#: ``ELEMENT`` runs element ``j`` alone, ``WRITE_ONLY`` runs only element
#: ``j``'s write (an RW element whose read missed and has been served).
BATCH, ELEMENT, WRITE_ONLY = 0, 1, 2

_RUN_KINDS = (READ_RUN, WRITE_RUN, RW_RUN)


def compile_stream(stream) -> List[list]:
    """Per-proc micro-programs for ``stream``, compiled once and cached.

    Span decomposition depends only on the stream's own geometry
    (``line_size`` / ``word_size`` are part of the stream's identity), so
    the compiled form is valid for every machine the stream may replay
    on.  The work is per span: each block's element count follows from
    its bounds and the stride, and each distinct word tuple is built once
    per ``(offset in line, count, stride)`` and shared (spans only read it).
    """
    if stream._compiled is not None:
        return stream._compiled
    line_size = stream.meta["line_size"]
    lsh = line_size.bit_length() - 1
    wmask = (line_size // stream.meta["word_size"]) - 1
    word_tuples: dict = {}
    cols = (stream.op, stream.a, stream.b, stream.c)
    programs: List[list] = []
    for pid in range(stream.n_procs):
        sl = stream.proc_slice(pid)
        out: list = []
        push = out.append
        for kind, x, y, z in zip(*(col[sl].tolist() for col in cols)):
            if kind in _RUN_KINDS:
                addr, count, stride = x, y, z
                while count > 0:
                    block = addr >> lsh
                    off = addr - (block << lsh)
                    if stride > 0:
                        k = min(count, (line_size - 1 - off) // stride + 1)
                    else:
                        k = min(count, off // -stride + 1) if stride else count
                    if kind == READ_RUN:
                        push((READ_SPAN, block, addr, k, stride))
                    else:
                        words = word_tuples.get((off, k, stride))
                        if words is None:
                            words = word_tuples[off, k, stride] = tuple(
                                ((off + m * stride) >> 3) & wmask for m in range(k)
                            )
                        push((
                            WRITE_SPAN if kind == WRITE_RUN else RW_SPAN,
                            block, addr, k, stride, words,
                        ))
                    addr += k * stride
                    count -= k
            elif kind == FENCE:
                push((FENCE,))
            else:
                push((kind, x))
        programs.append(out)
    stream._compiled = programs
    return programs


class ReplayProcessor(Processor):
    """Drives one node from a compiled micro-program.

    The cursor is a plain index (``_i``) into the micro-program list —
    slot-based and allocation-free.  Scalar ops block with their legacy
    pending-tuple forms; a blocked or split span parks as a
    :data:`SPAN_CONT` continuation.
    """

    __slots__ = ("_mops", "_i", "_n")

    def __init__(self, node, machine) -> None:
        super().__init__(node, machine)
        self._mops: list = []
        self._i = 0
        self._n = 0

    def set_micro_program(self, mops: list) -> None:
        self._mops = mops
        self._i = 0
        self._n = len(mops)
        if self.node.cbuf is not None:
            self._wt_words = self.node.cbuf.words

    def set_program(self, gen) -> None:  # pragma: no cover - guard
        raise RuntimeError(
            "ReplayProcessor consumes micro-programs; use set_micro_program()"
        )

    def complete_pending_write(self) -> None:
        op = self._pending
        if op[0] != SPAN_CONT:
            return super().complete_pending_write()
        _, block, base, count, stride, words, j, kind, _mode = op
        self._pending = (
            (SPAN_CONT, block, base, count, stride, words, j + 1, kind, BATCH)
            if j + 1 < count else None
        )
        self.stats.writes += 1
        vm = self.machine.valmodel
        if vm is not None:
            vm.write(self.id, block, words[j])

    # The dispatch loop mirrors Processor.run_quantum, with two changes:
    # ops come from the micro-program cursor instead of a generator, and
    # run ops arrive as block spans whose tails retire in batches.
    def run_quantum(self) -> None:
        sim = self.sim
        t = sim.now
        deadline = t + self._quantum
        node = self.node
        cache = node.cache
        tags = cache.tags
        states = cache.states
        mask = cache.set_mask
        lsh = self._line_shift
        wmask = self._word_mask
        stats = self.stats
        prot = self.protocol
        wb = node.wb
        wb_words = wb.words if wb is not None else None
        wt = self._wt_words
        coalesce = prot.wb_coalesce_states
        obs = self.machine.classifier
        vm = self.machine.valmodel
        my_id = self.id
        mops = self._mops
        i = self._i
        n = self._n
        # A value model must see every element, so it runs spans
        # per-element; a classifier takes batched writes as span records.
        fresh = BATCH if vm is None else ELEMENT

        pend = self._pending
        self._pending = None

        # Reads and writes count in locals and reach ``stats`` when the
        # quantum ends; nothing reads the counters while a CPU runs.
        nr = nw = 0
        try:
            while True:
                if pend is not None:
                    op = pend
                    pend = None
                elif i < n:
                    op = mops[i]
                    i += 1
                else:
                    self._finish(t)
                    return
                kind = op[0]

                # -- block spans ------------------------------------------------
                if kind >= READ_SPAN:
                    if kind == READ_SPAN:
                        _, block, base, count, stride = op
                        words = None
                        j = 0
                        mode = fresh
                    elif kind != SPAN_CONT:
                        _, block, base, count, stride, words = op
                        j = 0
                        mode = fresh
                    else:
                        _, block, base, count, stride, words, j, kind, mode = op
                        mode = mode or fresh
                    s = block & mask
                    while True:
                        if not mode:
                            # The one batched-tail block: fresh spans, tails
                            # after a per-element step, resumed continuations.
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
                                        SPAN_CONT, block, base, count, stride, words, j, kind,
                                        BATCH,
                                    )
                                    sim.at(t, self.run_quantum)
                                    return
                                break
                        # Element j alone, exactly as the generator engine runs it.
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
                                        SPAN_CONT, block, base, count, stride, words, j, kind,
                                        WRITE_ONLY,
                                    )
                                elif j + 1 < count:
                                    self._pending = (
                                        SPAN_CONT, block, base, count, stride, words, j + 1, kind,
                                        BATCH,
                                    )
                                self.block(t, B_READ)
                                prot.cpu_read_miss(node, t, block)
                                return
                        mode = fresh
                        if kind != READ_SPAN:
                            if obs is not None:
                                obs.record_write(my_id, block, word, t)
                            if tags[s] == block and states[s] == 2 and (wt is None or block in wt):
                                if wt is not None:
                                    wt[block].add(word)
                                t += 1
                            else:
                                nt = prot.cpu_write(node, t, block, word)
                                if nt < 0:
                                    self._pending = (
                                        SPAN_CONT, block, base, count, stride, words, j, kind,
                                        WRITE_ONLY if kind == RW_SPAN else BATCH,
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
                                SPAN_CONT, block, base, count, stride, words, j, kind, BATCH,
                            )
                            sim.at(t, self.run_quantum)
                            return

                # -- scalar ops (the same steps as Processor.run_quantum) --------
                elif kind == COMPUTE:
                    c = op[1]
                    if t + c <= deadline:
                        t += c
                    else:
                        done_now = deadline - t
                        self._pending = (COMPUTE, c - done_now)
                        sim.at(deadline, self.run_quantum)
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
                    sim.at(t, self.run_quantum)
                    return

        finally:
            self._i = i
            stats.reads += nr
            stats.writes += nw

def install_replay(machine, stream) -> None:
    """Swap every node's CPU for a :class:`ReplayProcessor` fed from
    ``stream`` and start them at cycle 0."""
    programs = compile_stream(stream)
    for node, mops in zip(machine.nodes, programs):
        proc = ReplayProcessor(node, machine)
        node.proc = proc
        proc.set_micro_program(mops)
        proc.start()
    # (tracer/checker hold node references, not processor ones, so the
    # swap is invisible to observability — asserted by the checked ==
    # unchecked replay sweeps.)
