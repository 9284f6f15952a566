"""Record/replay engine tests (DESIGN.md §11).

Four layers:

* **compile** — ``compile_stream`` produces exactly the spans of a
  per-element reference compiler, on all ten non-fuzz apps and on
  arbitrary single-run streams (hypothesis), once its run micro-ops are
  expanded back into their spans; equal runs share one micro-op;
* **differential** — batched span retirement must be unobservable: a
  run must give the same ``RunResult.to_dict()`` as the same stream run
  with a value model attached, which makes the processor retire every
  span element by element and checks every read's value, across all
  five protocols × all ten apps with the miss classifier, and with the
  invariant checker on the service apps;
* **stream cache** — a protocol sweep records each app exactly once
  (in-process memo), and a second sweep against the same on-disk store
  performs zero record phases; streams round-trip through their
  serialized form and corrupt blobs degrade to cache misses;
* **API** — the App→Stream surface: ``AppContext`` construction,
  ``ExperimentSpec.run`` against ``simulate`` and ``MachineConfig``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig
from repro.apps import APPS, AppContext, Gauss
from repro.conformance.shadow import ValueModel
from repro.core import Machine, MachineConfig, simulate
from repro.engine.replay import (
    READ_SPAN,
    READ_SPANS,
    RW_SPAN,
    RW_SPANS,
    WRITE_SPAN,
    compile_stream,
)
from repro.harness.spec import ExperimentSpec
from repro.network.messages import MsgType
from repro.program.ops import (
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    READ_RUN,
    RW_RUN,
    WRITE,
    WRITE_RUN,
)
from repro.program import stream as stream_mod
from repro.program.stream import RecordedStream, clear_stream_cache
from repro.results.store import ResultStore

PROTOCOLS = ("sc", "erc", "lrc", "lrc-ext", "tardis")
SEED_APPS = ("gauss", "fft", "blu", "barnes", "cholesky", "locusroute", "mp3d")
SERVICE_APPS = ("kvstore", "taskqueue", "pubsub")


def cfg(n=4, **kw):
    kw.setdefault("cache_size", 4096)
    return SystemConfig.scaled(n_procs=n, **kw)


def small_spec(app, proto, **kw):
    return ExperimentSpec(app, proto, n_procs=4, small=True, **kw)


class PermissiveValueModel(ValueModel):
    """A value model that lets read-value mismatches pass.

    The SPLASH and service apps race by design, which release
    consistency permits, so only the fuzz workload's data-race-free
    programs make a mismatch a bug.  Here the model is attached for its
    other effect: with any value model the CPU retires every span
    element alone.
    """

    __slots__ = ()

    def _fail(self, *args) -> None:
        pass


def references(stream):
    """Per-processor ``(reads, writes)`` of the stream's programs.  Each
    element retires exactly once, so this is an oracle that shares no
    code with the CPU."""
    out = []
    for pid in range(stream.n_procs):
        sl = stream.proc_slice(pid)
        op, count = stream.op[sl], stream.b[sl]
        reads = (op == READ).sum() + count[np.isin(op, (READ_RUN, RW_RUN))].sum()
        writes = (op == WRITE).sum() + count[np.isin(op, (WRITE_RUN, RW_RUN))].sum()
        out.append((int(reads), int(writes)))
    return out


def per_element(mc, stream):
    """``stream`` replayed with a value model attached, so every span
    element retires alone and every read's value is observed."""
    machine = mc.build()
    vm = machine.valmodel = PermissiveValueModel(machine)
    result = machine.replay(stream)
    assert vm.checked_reads > 0
    # No read retired in a batch or one-step run, out of the model's sight.
    assert vm.checked_reads + vm.unchecked_reads == sum(p.reads for p in result.stats.procs)
    return result


def batched_and_per_element(spec):
    """``spec``'s result dicts, batched and per-element, after checking
    the batched run's reference counts against the stream."""
    stream = spec.recorded_stream()
    batched = spec.run()
    assert [(p.reads, p.writes) for p in batched.stats.procs] == references(stream)
    return batched.to_dict(), per_element(spec.machine_config(), stream).to_dict()


class TestDifferential:
    @pytest.mark.parametrize("app", SEED_APPS)
    def test_engines_bit_identical_across_protocols(self, app):
        for proto in PROTOCOLS:
            batched, element = batched_and_per_element(
                small_spec(app, proto, classify=True)
            )
            assert batched == element, f"{app}/{proto} diverged"

    @pytest.mark.parametrize("app", SERVICE_APPS)
    def test_service_apps_engines_bit_identical_checked(self, app, monkeypatch):
        # The service workloads ride the same differential guarantee as
        # the SPLASH seven, with the invariant checker observing both
        # runs.
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        for proto in PROTOCOLS:
            batched, element = batched_and_per_element(
                small_spec(app, proto, classify=True)
            )
            assert batched == element, f"{app}/{proto} diverged"

    def test_engines_bit_identical_on_warm_bench_config(self):
        # The hit-dominated splash-warm shape: wide lines and a long
        # quantum exercise the span deadline-split arithmetic hardest.
        over = (("cache_size", 1 << 20), ("line_size", 512), ("quantum", 8000))
        for proto in ("sc", "lrc"):
            batched, element = batched_and_per_element(
                small_spec("gauss", proto, overrides=over)
            )
            assert batched == element

    def test_engines_bit_identical_with_classifier(self):
        # Batched writes reach the classifier as span records; per-element
        # runs log each write alone.  The counts must agree.
        batched, element = batched_and_per_element(
            small_spec("gauss", "lrc", classify=True)
        )
        assert batched == element
        assert sum(batched["classifier"].values()) > 0

    def test_checked_replay_equals_unchecked(self, monkeypatch):
        spec = small_spec("gauss", "lrc")
        plain = spec.run().to_dict()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        checked = spec.run().to_dict()
        assert checked == plain

    # Resumed spans: a tail re-promoted after a miss, an upgrade, a cold
    # buffer entry or a write-buffer stall must hit the quantum-deadline
    # split on both parities.  An odd small quantum makes it do so often;
    # the two line sizes are the warm and write-through-bound bench shapes.
    # "classify" runs both sides with the miss classifier, "value-check"
    # without it (the per-element side is value-checked either way).
    @pytest.mark.parametrize("line_size", (512, 256))
    @pytest.mark.parametrize("app", ("gauss", "fft"))
    @pytest.mark.parametrize("mode", ("classify", "value-check"))
    def test_resumed_spans_bit_identical(self, app, line_size, mode):
        over = (("cache_size", 1 << 20), ("line_size", line_size), ("quantum", 37))
        for proto in PROTOCOLS:
            spec = small_spec(app, proto, overrides=over, classify=mode == "classify")
            batched, element = batched_and_per_element(spec)
            assert batched == element, f"{app}/{proto} diverged"

    def test_simulate_engines_agree(self):
        a = simulate(Gauss, cfg(), "lrc", n=24)
        stream = RecordedStream.record(Gauss(AppContext(cfg()), n=24))
        b = per_element(MachineConfig(config=cfg(), protocol="lrc"), stream)
        assert a.to_dict() == b.to_dict()


class TestStreamCache:
    def test_sweep_records_once_and_store_survives_memo_loss(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        clear_stream_cache()
        start = stream_mod.RECORDINGS
        for proto in PROTOCOLS:
            small_spec("gauss", proto).run()
        assert stream_mod.RECORDINGS == start + 1
        # Drop the in-process memo: the second sweep must come from the
        # on-disk stream tier, not a new record phase.
        clear_stream_cache()
        for proto in PROTOCOLS:
            small_spec("gauss", proto).run()
        assert stream_mod.RECORDINGS == start + 1

    def test_memo_eviction_respects_hit_recency(self, monkeypatch):
        # A memo hit must refresh LRU position: with cap 2, hitting A
        # makes B the eviction victim when C arrives — not A.
        from repro.program.stream import recorded_stream

        monkeypatch.setattr(stream_mod, "_MEMO_CAP", 2)
        clear_stream_cache()
        c = cfg(2)
        recorded_stream("gauss", {"n": 8}, c)   # A
        recorded_stream("gauss", {"n": 9}, c)   # B
        for _ in range(3):
            recorded_stream("gauss", {"n": 8}, c)  # hit A: now MRU
        recorded_stream("gauss", {"n": 10}, c)  # C evicts B, the LRU
        before = stream_mod.RECORDINGS
        recorded_stream("gauss", {"n": 8}, c)   # A: still memoized
        assert stream_mod.RECORDINGS == before
        recorded_stream("gauss", {"n": 9}, c)   # B: evicted, re-records
        assert stream_mod.RECORDINGS == before + 1
        clear_stream_cache()

    def test_stream_roundtrip(self):
        app = Gauss(AppContext(cfg()), n=24)
        s = RecordedStream.record(app)
        s2 = RecordedStream.from_bytes(s.to_bytes())
        assert s2.fingerprint() == s.fingerprint()
        assert s2.meta == s.meta
        for col in ("op", "a", "b", "c", "starts"):
            assert np.array_equal(getattr(s2, col), getattr(s, col))

    def test_fingerprint_stable_across_records(self):
        a = RecordedStream.record(Gauss(AppContext(cfg()), n=24))
        b = RecordedStream.record(Gauss(AppContext(cfg()), n=24))
        assert a.fingerprint() == b.fingerprint()

    def test_corrupt_blob_is_a_cache_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        s = RecordedStream.record(Gauss(AppContext(cfg()), n=24))
        path = store.save_stream("k", s)
        assert store.load_stream("k") is not None
        path.write_bytes(b"not a stream")
        assert store.load_stream("k") is None

    def test_timeout_while_loading_is_not_a_cache_miss(self, tmp_path, monkeypatch):
        # A ``--timeout`` alarm that fires inside the load must reach the
        # runner; only a bad blob reads as a miss.
        store = ResultStore(tmp_path)
        s = RecordedStream.record(Gauss(AppContext(cfg()), n=24))
        path = store.save_stream("k", s)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load_stream("k") is None

        def alarm(blob):
            raise TimeoutError("timed out after 0.01s")

        monkeypatch.setattr(RecordedStream, "from_bytes", staticmethod(alarm))
        store.save_stream("k", s)
        with pytest.raises(TimeoutError):
            store.load_stream("k")


def reference_compile(stream):
    """The per-element span compiler: walks every element of a run to
    find its block boundaries and builds each word tuple element by
    element.  ``compile_stream`` must produce exactly its output."""
    lsh = stream.meta["line_size"].bit_length() - 1
    wmask = (stream.meta["line_size"] // stream.meta["word_size"]) - 1
    programs = []
    for pid in range(stream.n_procs):
        sl = stream.proc_slice(pid)
        out = []
        for kind, x, y, z in zip(
            stream.op[sl].tolist(), stream.a[sl].tolist(),
            stream.b[sl].tolist(), stream.c[sl].tolist(),
        ):
            if kind in (READ_RUN, WRITE_RUN, RW_RUN):
                j, addr, count, stride = 0, x, y, z
                while j < count:
                    block = addr >> lsh
                    k = 1
                    nxt = addr + stride
                    while j + k < count and (nxt >> lsh) == block:
                        k += 1
                        nxt += stride
                    if kind == READ_RUN:
                        out.append((READ_SPAN, block, addr, k, stride))
                    else:
                        words = tuple(
                            ((addr + m * stride) >> 3) & wmask for m in range(k)
                        )
                        span = WRITE_SPAN if kind == WRITE_RUN else RW_SPAN
                        out.append((span, block, addr, k, stride, words))
                    j += k
                    addr = nxt
            elif kind == FENCE:
                out.append((FENCE,))
            else:
                out.append((kind, x))
        programs.append(out)
    return programs


def expand(programs):
    """``programs`` with every run micro-op replaced by its spans, after
    checking that it holds more than one span of its own kind and that
    its count is theirs."""
    out = []
    for program in programs:
        flat = []
        for op in program:
            if op[0] in (READ_SPANS, RW_SPANS):
                _, spans, count = op
                span = READ_SPAN if op[0] == READ_SPANS else RW_SPAN
                assert len(spans) > 1
                assert all(sp[0] == span for sp in spans)
                assert sum(sp[3] for sp in spans) == count
                flat.extend(spans)
            else:
                flat.append(op)
        out.append(flat)
    return out


def run_stream(kind, base, count, stride, line_size):
    """A one-processor stream holding the single run op given."""
    meta = {"line_size": line_size, "word_size": 8}
    return RecordedStream([kind], [base], [count], [stride], [0, 1], [], meta)


class TestCompile:
    @pytest.mark.parametrize("line_size", (128, 512))
    @pytest.mark.parametrize("app", SEED_APPS + SERVICE_APPS)
    def test_matches_reference_compiler(self, app, line_size):
        spec = small_spec(app, "sc", overrides=(("line_size", line_size),))
        c = spec.config()
        s = RecordedStream.record(APPS[app](AppContext(c), **spec.app_params()))
        assert expand(compile_stream(s)) == reference_compile(s)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from((READ_RUN, WRITE_RUN, RW_RUN)),
        base=st.integers(1 << 20, 1 << 22),
        count=st.integers(1, 300),
        stride=st.one_of(
            st.integers(-2048, -1),
            st.just(0),
            st.integers(1, 128).map(lambda w: 8 * w),
            st.integers(1, 2048).filter(lambda b: b % 8),
        ),
        lsh=st.integers(5, 10),
    )
    def test_single_run_matches_reference(self, kind, base, count, stride, lsh):
        s = run_stream(kind, base, count, stride, 1 << lsh)
        (program,) = compile_stream(s)
        (ref,) = reference_compile(s)
        assert expand([program]) == [ref]
        # Only a read or read-write run over more than one block is one
        # run micro-op; everything else stays spans.
        if kind != WRITE_RUN and len(ref) > 1:
            assert [op[0] for op in program] == [READ_SPANS if kind == READ_RUN else RW_SPANS]
        else:
            assert program == ref

    def test_equal_runs_are_one_object(self):
        # The same read and read-write runs on two processors: each pair
        # compiles to one shared run micro-op.
        meta = {"line_size": 128, "word_size": 8}
        s = RecordedStream(
            [READ_RUN, RW_RUN, READ_RUN, RW_RUN], [4104, 8192, 4104, 8192],
            [20, 20, 20, 20], [8, 8, 8, 8], [0, 2, 4], [], meta,
        )
        (read0, rw0), (read1, rw1) = compile_stream(s)
        assert (read0[0], rw0[0]) == (READ_SPANS, RW_SPANS)
        assert read0 is read1
        assert rw0 is rw1

    def test_equal_word_tuples_are_shared(self):
        # Two write runs at the same line offset in different blocks:
        # their spans carry one tuple object, not two equal ones.
        s = RecordedStream(
            [WRITE_RUN, WRITE_RUN], [4096 + 8, 8192 + 8], [4, 4], [16, 16],
            [0, 2], [], {"line_size": 128, "word_size": 8},
        )
        first, second = compile_stream(s)[0]
        assert first[5] == (1, 3, 5, 7)
        assert first[5] is second[5]


#: Geometry of the hand-written run programs: 128-byte lines, so a run of
#: 40 words from ``base + 8`` covers three blocks (15, 16 and 9 words).
LINE = 128
QUANTUM = 200


def hand_run(programs, proto, per_element=False, classify=False, spy=None):
    """``programs(base)`` on a fresh two-processor machine, with a
    4 KB segment at ``base``; with ``per_element`` a value model is
    attached, so every span element retires alone.  ``spy(machine)``
    runs before the programs do.  Returns ``(machine, result dict)``."""
    config = SystemConfig.scaled(
        n_procs=2, cache_size=1 << 16, line_size=LINE, quantum=QUANTUM
    )
    machine = Machine(config, protocol=proto, classify=classify)
    base = machine.space.alloc(4096, "a").base
    vm = machine.valmodel = PermissiveValueModel(machine) if per_element else None
    if spy is not None:
        spy(machine)
    result = machine.run(programs(base))
    if vm is not None:
        reads = sum(p.reads for p in result.stats.procs)
        assert vm.checked_reads + vm.unchecked_reads == reads
    return machine, result.to_dict()


def assert_hand_differential(programs, proto, **kw):
    """The batched and per-element runs of ``programs`` agree bit for bit;
    returns the batched run's machine and result."""
    machine, batched = hand_run(programs, proto, **kw)
    _, element = hand_run(programs, proto, per_element=True, **kw)
    assert batched == element, f"{proto} diverged"
    return machine, batched


def quantum_starts(machine, pid):
    """Record the cycle at which each of ``pid``'s quanta begins."""
    proc = machine.nodes[pid].proc
    run_quantum = proc._wake
    starts = []

    def wake():
        starts.append(machine.sim.now)
        run_quantum()

    proc._wake = wake
    return starts


def bystander(*writes):
    """Processor 1's program: two barriers, with ``writes`` (addresses)
    between them, which take those lines away from processor 0."""
    yield (BARRIER, 0)
    for addr in writes:
        yield (WRITE, addr)
    yield (BARRIER, 1)


def write_words_spy():
    """``(spy, runs)``: ``spy(machine)`` logs processor 0's
    ``cpu_write_words`` calls as ``(t, block, number of words)`` into a
    fresh list per machine, appended to ``runs``."""
    runs = []

    def spy(machine):
        calls = []
        runs.append(calls)
        prot = machine.protocol
        hook = prot.cpu_write_words

        def logged(node, t, block, words):
            if node.id == 0:
                calls.append((t, block, len(words)))
            return hook(node, t, block, words)

        prot.cpu_write_words = logged

    return spy, runs


class TestRunMicroOps:
    """Edge cases of the run micro-op on hand-written programs, each held
    to the differential oracle: the batched run equals the value-checked
    per-element run."""

    @pytest.mark.parametrize("tail", (0, 1, 2))
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_run_ending_exactly_at_the_deadline(self, proto, tail):
        # After each barrier a quantum starts afresh, so the compute gap
        # places a warm run's last element ``tail`` cycles past the
        # deadline.  A read run fits only at 0, a read-write run at 0 and
        # 1 (its last read retires on the deadline); past that the run
        # splits at the deadline.
        def programs(base):
            def p0():
                yield (READ_RUN, base + 8, 40, 8)
                yield (RW_RUN, base + 1024 + 8, 40, 8)
                yield (BARRIER, 0)
                yield (COMPUTE, QUANTUM - 40 + tail)
                yield (READ_RUN, base + 8, 40, 8)
                yield (BARRIER, 1)
                yield (COMPUTE, QUANTUM - 80 + tail)
                yield (RW_RUN, base + 1024 + 8, 40, 8)
                yield (READ, base)

            return [p0(), bystander()]

        runs = []
        assert_hand_differential(
            programs, proto, spy=lambda m: runs.append(quantum_starts(m, 0))
        )
        starts, element_starts = runs
        assert starts == element_starts
        if proto != "tardis":  # there the read leases expire: the rerun misses
            assert any(b - a == QUANTUM for a, b in zip(starts, starts[1:]))

    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_run_whose_middle_block_misses(self, proto):
        # Processor 1 writes the middle block of each run between the
        # barriers; the reruns then hit, miss, and hit again.
        def programs(base):
            def p0():
                yield (READ_RUN, base + 8, 40, 8)
                yield (RW_RUN, base + 1024 + 8, 40, 8)
                yield (BARRIER, 0)
                yield (BARRIER, 1)
                yield (READ_RUN, base + 8, 40, 8)
                yield (RW_RUN, base + 1024 + 8, 40, 8)

            return [p0(), bystander(base + LINE + 8, base + 1024 + LINE + 8)]

        _, batched = assert_hand_differential(programs, proto)
        if proto != "tardis":  # there every rerun block misses: leases expire
            assert batched["stats"]["procs"][0]["read_misses"] == 6 + 2

    @pytest.mark.parametrize(
        "start, count, stride",
        [
            (3 * LINE - 8, 40, -8),   # backwards over three blocks
            (8, 5, 2 * LINE),         # one element in each of five blocks
            (4 * LINE + 16, 4, -LINE - 8),  # backwards, a block per element
        ],
    )
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_negative_and_wide_strides(self, proto, start, count, stride):
        # Warm runs retire in one step; after processor 1 writes the
        # block of the middle element, the rerun breaks there, which
        # locates that span's first element by
        # ``(base - run base) // stride``.
        def programs(base):
            def p0():
                yield (READ_RUN, base + start, count, stride)
                yield (RW_RUN, base + 2048 + start, count, stride)
                yield (READ_RUN, base + start, count, stride)
                yield (RW_RUN, base + 2048 + start, count, stride)
                yield (BARRIER, 0)
                yield (BARRIER, 1)
                yield (READ_RUN, base + start, count, stride)
                yield (RW_RUN, base + 2048 + start, count, stride)

            middle = start + count // 2 * stride
            return [p0(), bystander(base + middle, base + 2048 + middle)]

        assert_hand_differential(programs, proto)

    @pytest.mark.parametrize("proto", ("lrc", "lrc-ext"))
    def test_rw_run_whose_second_block_has_no_buffer_entry(self, proto):
        # The barrier drains the coalescing buffer; the scalar write then
        # starts an entry for block 0 only.  The rerun batches block 0,
        # and block 1, a read-write line with no entry, opens its entry
        # for all 16 of its words in one protocol call; block 2, also
        # without one, opens its own for its 9 words.
        def programs(base):
            def p0():
                yield (RW_RUN, base + 8, 40, 8)
                yield (BARRIER, 0)
                yield (WRITE, base + 8)
                yield (RW_RUN, base + 8, 40, 8)
                yield (BARRIER, 1)

            return [p0(), bystander()]

        spy, runs = write_words_spy()
        machine, _ = assert_hand_differential(programs, proto, spy=spy)
        batched, element = runs
        b0 = machine.space.segments[0].base // LINE
        # Phase 1 opens each block's entry once, after its read miss;
        # phase 2 starts with the scalar write.
        assert [c[1:] for c in batched[3:]] == [(b0, 1), (b0 + 1, 16), (b0 + 2, 9)]
        # The value-checked run writes word by word.
        assert {c[2] for c in element} == {1}

    @pytest.mark.parametrize("proto, warm", [("erc", [15, 16, 9]), ("lrc", [15, 15, 8])])
    def test_classified_run_records_the_same_writes(self, proto, warm):
        # The batched run logs a run's writes as one span record per
        # block, the per-element run one record per element; expanded,
        # the two write logs are identical.  Before the warm run the
        # scalar write makes block 0's coalescing-buffer entry the newest
        # (lrc keeps only that one), so erc batches all three blocks and
        # lrc block 0 whole, then the rest of each block after its first
        # element, which starts the block's entry.
        def programs(base):
            def p0():
                yield (WRITE, base + 8)
                yield (RW_RUN, base + 8, 40, 8)
                yield (WRITE, base + 8)
                yield (RW_RUN, base + 8, 40, 8)
                yield (BARRIER, 0)
                yield (BARRIER, 1)
                yield (RW_RUN, base + 8, 40, 8)

            return [p0(), bystander(base + LINE + 8)]

        def logged(per_element):
            writes, spans = [], []

            def spy(machine):
                obs = machine.classifier
                record_write, record_write_span = obs.record_write, obs.record_write_span

                def write(proc, block, word, t=0):
                    writes.append((proc, t, block, word))
                    record_write(proc, block, word, t)

                def write_span(proc, t, block, words, step):
                    spans.append(len(words))
                    writes.extend(
                        (proc, t + step * j, block, w) for j, w in enumerate(words)
                    )
                    record_write_span(proc, t, block, words, step)

                obs.record_write = write
                obs.record_write_span = write_span

            _, result = hand_run(
                programs, proto, per_element=per_element, classify=True, spy=spy
            )
            return result, writes, spans

        batched, batched_writes, spans = logged(False)
        element, element_writes, no_spans = logged(True)
        assert batched == element
        assert batched_writes == element_writes
        assert no_spans == []
        assert any(spans[i : i + 3] == warm for i in range(len(spans)))


def message_log(machine, log):
    """Log every message ``machine`` sends as ``(type, src, dst, t)``."""
    send = machine.fabric.send

    def logged(src, dst, mtype, t, handler, *args, size=-1):
        log.append((int(mtype), src, dst, t))
        return send(src, dst, mtype, t, handler, *args, size=size)

    machine.fabric.send = logged


class TestOpenEntryInOneStep:
    """A write or read-write span whose first write opens its line's
    coalescing-buffer entry (an RO upgrade, an RW line with no entry, the
    write after a read miss) retires in one ``cpu_write_words`` call.
    Each case is held to the differential oracle, and the batched and
    value-checked per-element runs must send the same messages at the
    same times."""

    @staticmethod
    def run_both(programs, proto, **kw):
        """The differential check plus message logs; returns the
        machine, the batched run's ``cpu_write_words`` calls, and its
        message log."""
        spy_words, calls = write_words_spy()
        logs = []

        def spy(machine):
            spy_words(machine)
            logs.append([])
            message_log(machine, logs[-1])

        machine, _ = assert_hand_differential(programs, proto, spy=spy, **kw)
        assert logs[0] == logs[1]
        return machine, calls[0], logs[0]

    @pytest.mark.parametrize("proto", ("lrc", "lrc-ext", "tardis"))
    def test_ro_upgrade_span(self, proto):
        # Block 0 is read, so cached RO; the write span then upgrades it
        # and opens its entry for all 10 words.  Block 1 is read whole,
        # and the read-write span over it does the same.
        def programs(base):
            def p0():
                yield (READ, base + 8)
                yield (READ, base + LINE + 8)
                yield (COMPUTE, 10)
                yield (WRITE_RUN, base + 16, 10, 8)
                yield (RW_RUN, base + LINE + 8, 12, 8)
                yield (BARRIER, 0)
                yield (BARRIER, 1)

            return [p0(), bystander()]

        machine, calls, log = self.run_both(programs, proto)
        b0 = machine.space.segments[0].base // LINE
        assert [c[1:] for c in calls] == [(b0, 10), (b0 + 1, 12)]
        (t0, _, _), (t1, _, _) = calls
        assert t1 == t0 + 10 + 1  # the read-write span's first write
        home = machine.home_of
        notices = [
            (t, h) for kind, src, h, t in log
            if kind == MsgType.WRITE_REQ and src == 0
        ]
        if proto == "lrc":
            # The notice leaves at the upgrading write.
            assert notices == [(t0, home(b0)), (t1, home(b0 + 1))]
        elif proto == "lrc-ext":
            # Deferred: both leave at the barrier, after the spans.
            assert len(notices) == 2 and min(t for t, _ in notices) > t1
        else:
            assert notices == []

    def test_tardis_rw_span_resumes_write_only_after_miss(self):
        # The read-write span's first read misses; once the fill lands,
        # its first write opens the entry for all 15 words in one call.
        def programs(base):
            def p0():
                yield (RW_RUN, base + 8, 15, 8)
                yield (BARRIER, 0)
                yield (BARRIER, 1)

            return [p0(), bystander()]

        machine, calls, log = self.run_both(programs, "tardis")
        b0 = machine.space.segments[0].base // LINE
        fill = [t for kind, src, dst, t in log if kind == MsgType.DATA_REPLY and dst == 0]
        assert [c[1:] for c in calls] == [(b0, 15)]
        assert calls[0][0] > fill[0]

    @pytest.mark.parametrize("tail", (0, 1, 2))
    @pytest.mark.parametrize("kind", (WRITE_RUN, RW_RUN))
    @pytest.mark.parametrize("line", ("ro", "rw"))
    @pytest.mark.parametrize("proto", ("lrc", "lrc-ext"))
    def test_opening_span_ending_past_the_deadline(self, proto, line, kind, tail):
        # Before the barrier the line is read (RO) or written (RW, and the
        # barrier's release drains its entry).  After it, the compute gap
        # places the span's last cycle ``tail`` cycles past the deadline:
        # a write span fits at 0, a read-write span at 0 and 1; past that
        # the opening call takes what fits and the rest waits for the
        # next quantum.
        k = 12
        cycles = k if kind == WRITE_RUN else 2 * k

        def programs(base):
            def p0():
                yield (READ if line == "ro" else WRITE, base + 8)
                yield (BARRIER, 0)
                yield (COMPUTE, QUANTUM - cycles + tail)
                yield (kind, base + 8, k, 8)
                yield (BARRIER, 1)

            return [p0(), bystander()]

        machine, calls, _ = self.run_both(programs, proto)
        b0 = machine.space.segments[0].base // LINE
        fits = tail <= (0 if kind == WRITE_RUN else 1)
        first = k if fits else k - (tail if kind == WRITE_RUN else 1)
        assert calls[-1][1:] == (b0, first)

    def test_classified_run_writes_word_by_word(self):
        # With a miss classifier every write is logged alone, so an
        # opening write goes through ``cpu_write`` one word at a time.
        def programs(base):
            def p0():
                yield (READ, base + 8)
                yield (WRITE_RUN, base + 16, 10, 8)
                yield (RW_RUN, base + LINE + 8, 40, 8)
                yield (BARRIER, 0)
                yield (BARRIER, 1)

            return [p0(), bystander()]

        _, calls, _ = self.run_both(programs, "lrc", classify=True)
        assert len(calls) > 3
        assert {n for _, _, n in calls} == {1}


class TestMachineReplay:
    def test_rejects_stream_for_different_machine(self):
        s = RecordedStream.record(Gauss(AppContext(cfg(4)), n=24))
        machine = MachineConfig(config=cfg(2)).build()
        with pytest.raises(ValueError, match="does not fit"):
            machine.replay(s)

    def test_requires_pristine_address_space(self):
        c = cfg()
        s = RecordedStream.record(Gauss(AppContext(c), n=24))
        machine = MachineConfig(config=c).build()
        machine.space.alloc(4096, "x")  # dirties the space
        with pytest.raises(RuntimeError, match="pristine"):
            machine.replay(s)


class TestAppApi:
    def test_app_needs_a_context(self):
        machine = MachineConfig(config=cfg()).build()
        with pytest.raises(TypeError, match="AppContext"):
            Gauss(machine, n=24)

    def test_spec_run_agrees_with_simulate(self):
        # The two entry points, on the same config and app params.
        spec = small_spec("gauss", "sc")
        via_ctx = simulate(Gauss, spec.config(), "sc", **spec.app_params())
        assert spec.run().to_dict() == via_ctx.to_dict()

    def test_context_app_has_no_machine(self):
        app = Gauss(AppContext(cfg()), n=24)
        assert not hasattr(app, "machine")
        assert not hasattr(app.ctx, "machine")

    def test_machine_config_consolidates_machine_kwargs(self):
        mc = MachineConfig(config=cfg(), protocol="erc", classify=True)
        machine = mc.build()
        assert machine.protocol_name == "erc"
        assert machine.classifier is not None
        mc2 = dataclasses.replace(mc, protocol="sc", classify=False)
        assert (mc2.protocol, mc2.classify) == ("sc", False)
        assert mc2.config is mc.config
