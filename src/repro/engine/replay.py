"""Compiling recorded streams into the CPU's micro-programs.

A :class:`~repro.program.stream.RecordedStream` is compiled — once per
stream, cached on the stream object — into per-processor *micro-programs*:
flat Python lists in which

* scalar ops keep their tuple forms;
* every run op is decomposed into **block spans**: maximal runs of
  consecutive elements that fall in one cache block, pre-tagged with the
  block number and (for write/rw spans) the tuple of word indices the
  elements touch.  Spans are cut by arithmetic on the block bounds and
  the stride, and equal word tuples are one shared object, so compiling
  costs O(spans), not O(elements);
* a read or read-write run that touches more than one block becomes one
  **run micro-op**, ``(READ_SPANS | RW_SPANS, spans, count)``, carrying
  its spans in order and its element count.  Runs are interned: equal
  recorded runs ``(kind, addr, count, stride)`` compile to one shared
  object, so a repeated run (gauss reads each pivot row once per row it
  eliminates) costs one dict lookup and no memory.  Single-block runs and
  write runs stay plain spans.

The :class:`~repro.core.processor.Processor` walks a micro-program with
a persistent iterator.  With no value model attached, a fresh span or a
whole run micro-op retires in one step — one tag check per block, one
bulk stats/time update, one ``set.update`` of buffer words per span —
when it fits before the quantum deadline and every block it touches
needs no protocol work:

* **line present** — reads hit (state RO or RW, or a live write-buffer
  entry to forward from); writes hit (state RW, and the block's
  coalescing-buffer entry is live or the protocol has none);
* **write-buffer coalescing** — the block has a live write-buffer entry
  and its state is in the protocol's ``wb_coalesce_states`` (erc:
  INVALID and RO; lrc, lrc-ext, tardis: INVALID).  Such a write only
  adds its word to the entry: 1 cycle, no message, no stall;
* **entry opening** — the protocol has a coalescing buffer, the line is
  present (RO, which the first write upgrades, or RW with no buffer
  entry), and no value model or miss classifier is attached.  Only the
  first write needs the protocol, to open the entry; the rest hit it.
  The span's words go to the protocol in one ``cpu_write_words`` call
  at the first write's time.  On the per-span path the same call
  retires a span's elements up to the deadline, including the write
  that resumes a read-write element after its read miss.

Anything else takes the per-span path.  A run that does not fit hands
all its spans to the processor as a second iterator; a run with a block
that fails the rule retires the spans before that block and hands over
the rest, the failing span first.  There a span's tail
``[j, count)`` retires as one batch under the same rule, with the
exact quantum-deadline split, and spans are *resumable*: an element that
does need the protocol (a read miss, a write miss, a full write buffer,
or an entry-opening write under a value model or classifier) runs alone
through the per-element step, and the rest of the span re-qualifies for
the batch.
A miss or stall parks the span as a continuation that resumes at the
same element.  Only a value model, which must see every element, runs
spans wholly per-element; a miss classifier takes batched writes as
``record_write_span`` records, one per span, on either path.

Bit-identity contract: no simulator event can run between the elements
of a span or the spans of a run (the CPU loop is synchronous within a
quantum), and the first two batchable cases change no cache, buffer or
protocol state beyond the words they add, so the preconditions checked
at the head of a tail hold for all of it.  An entry-opening call changes
state once, at the opening write's time, as the per-element step does,
and opens the buffer's newest entry, which the background drain never
takes: the span's later writes hit it.  A run that fits before the deadline
crosses it, if at all, only with its last element, so retiring its
spans back to back is what the per-span path does.  The batch formulas
reproduce the per-element time/stat arithmetic exactly, including
quantum-deadline splits.  The differential suite
(``tests/test_replay.py``) holds batched runs and value-checked
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
#: Run micro-ops: ``(READ_SPANS | RW_SPANS, spans, count)`` is a read or
#: read-write run of ``count`` elements over more than one block, as its
#: ``READ_SPAN`` / ``RW_SPAN`` tuples in order.
READ_SPANS = 36
RW_SPANS = 37

#: How a span's next element runs: ``BATCH`` lets the tail batch,
#: ``ELEMENT`` runs element ``j`` alone, ``WRITE_ONLY`` runs only element
#: ``j``'s write (an RW element whose read missed and has been served).
BATCH, ELEMENT, WRITE_ONLY = 0, 1, 2

#: Program run opcode -> the opcode of its spans.
_SPAN_OF = {READ_RUN: READ_SPAN, WRITE_RUN: WRITE_SPAN, RW_RUN: RW_SPAN}


def compile_stream(stream) -> List[list]:
    """Per-proc micro-programs for ``stream``, compiled once and cached.

    Span decomposition depends only on the stream's own geometry
    (``line_size`` / ``word_size`` are part of the stream's identity), so
    the compiled form is valid for every machine the stream may replay
    on.  The work is per span: each block's element count follows from
    its bounds and the stride, and each distinct word tuple is built once
    per ``(offset in line, count, stride)`` and shared (spans only read
    it).  A multi-block read or read-write run is cut once per distinct
    ``(kind, addr, count, stride)`` and its run micro-op shared.
    """
    if stream._compiled is not None:
        return stream._compiled
    line_size = stream.meta["line_size"]
    lsh = line_size.bit_length() - 1
    wmask = (line_size // stream.meta["word_size"]) - 1
    word_tuples: dict = {}
    runs: dict = {}

    def new_words(off, k, stride) -> tuple:
        """The word tuple of a ``k``-element span at ``off`` in its line."""
        words = word_tuples[off, k, stride] = tuple(
            ((off + m * stride) >> 3) & wmask for m in range(k)
        )
        return words

    def cut(kind, addr, count, stride, push) -> None:
        """``push`` each block span of one run, in element order."""
        span = _SPAN_OF[kind]
        while count > 0:
            block = addr >> lsh
            off = addr - (block << lsh)
            if stride > 0:
                k = (line_size - 1 - off) // stride + 1
            else:
                k = off // -stride + 1 if stride else count
            if k > count:
                k = count
            if span == READ_SPAN:
                push((READ_SPAN, block, addr, k, stride))
            else:
                push((
                    span, block, addr, k, stride,
                    word_tuples.get((off, k, stride)) or new_words(off, k, stride),
                ))
            addr += k * stride
            count -= k

    cols = (stream.op, stream.a, stream.b, stream.c)
    programs: List[list] = []
    for pid in range(stream.n_procs):
        sl = stream.proc_slice(pid)
        out: list = []
        push = out.append
        for kind, x, y, z in zip(*(col[sl].tolist() for col in cols)):
            if kind in _SPAN_OF:
                block = x >> lsh
                # Addresses move monotonically, so a run whose first and
                # last elements share a block is one span.
                if (x + (y - 1) * z) >> lsh == block and y > 0:
                    if kind == READ_RUN:
                        push((READ_SPAN, block, x, y, z))
                    else:
                        off = x - (block << lsh)
                        push((
                            _SPAN_OF[kind], block, x, y, z,
                            word_tuples.get((off, y, z)) or new_words(off, y, z),
                        ))
                elif kind == WRITE_RUN or y < 2:
                    cut(kind, x, y, z, push)  # write runs stay spans; no element, no op
                else:
                    key = (kind, x, y, z)
                    op = runs.get(key)
                    if op is None:
                        spans: list = []
                        cut(kind, x, y, z, spans.append)
                        op = runs[key] = (
                            READ_SPANS if kind == READ_RUN else RW_SPANS, tuple(spans), y,
                        )
                    push(op)
            elif kind == FENCE:
                push((FENCE,))
            else:
                push((kind, x))
        programs.append(out)
    stream._compiled = programs
    return programs
