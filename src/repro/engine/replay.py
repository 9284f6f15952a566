"""Compiling recorded streams into the CPU's micro-programs.

A :class:`~repro.program.stream.RecordedStream` is compiled — once per
stream, cached on the stream object — into per-processor *micro-programs*:
flat Python lists in which

* scalar ops keep their tuple forms, and
* every run op is decomposed into **block spans**: maximal runs of
  consecutive elements that fall in one cache block, pre-tagged with the
  block number and (for write/rw spans) the tuple of word indices the
  elements touch.  Spans are cut by arithmetic on the block bounds and
  the stride, and equal word tuples are one shared object, so compiling
  costs O(spans), not O(elements).

The :class:`~repro.core.processor.Processor` walks a micro-program with
an integer cursor.  It retires a span's tail ``[j, count)`` as one batch
— one tag check, one bulk stats/time update, one ``set.update`` of
buffer words — whenever the tail provably needs no protocol work:

* **line present** — reads hit (state RO or RW, or a live write-buffer
  entry to forward from); writes hit (state RW, and the block's
  coalescing-buffer entry is live or the protocol has none);
* **write-buffer coalescing** — the block has a live write-buffer entry
  and its state is in the protocol's ``wb_coalesce_states`` (erc:
  INVALID and RO; lrc, lrc-ext, tardis: INVALID).  Such a write only
  adds its word to the entry: 1 cycle, no message, no stall.

Spans are *resumable*: an element that does need the protocol (a read
miss, an RO upgrade, a cold coalescing-buffer entry, a full write
buffer) runs alone through the per-element step, and the rest of the
span re-qualifies for the batch.  A miss or stall parks the span as a
continuation that resumes at the same element.  Only a value model,
which must see every element, runs spans wholly per-element; a miss
classifier takes batched writes as ``record_write_span`` records.

Bit-identity contract: no simulator event can run between the elements
of a span (the CPU loop is synchronous within a quantum), and neither
batchable case changes cache, buffer or protocol state beyond the words
it adds, so the preconditions checked at the head of a tail hold for all
of it.  The batch formulas reproduce the per-element time/stat
arithmetic exactly, including quantum-deadline splits.  The differential
suite (``tests/test_replay.py``) holds batched runs and value-checked
per-element runs to bit-identical :class:`RunResult`\\ s, and the golden
fixtures pin both.
"""

from __future__ import annotations

from typing import List

from repro.program.ops import FENCE, READ_RUN, RW_RUN, WRITE_RUN

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
