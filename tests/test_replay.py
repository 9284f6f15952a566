"""Record/replay engine tests (DESIGN.md §11).

Four layers:

* **compile** — ``compile_stream`` produces exactly the micro-programs of
  a per-element reference compiler, on all ten non-fuzz apps and on
  arbitrary single-run streams (hypothesis);
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
* **API** — the App→Stream surface: ``AppContext`` construction, the
  two ``run_app`` shapes and ``MachineConfig``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig
from repro.apps import APPS, AppContext, Gauss
from repro.conformance.shadow import ValueModel
from repro.core import MachineConfig, run_app, simulate
from repro.engine.replay import READ_SPAN, RW_SPAN, WRITE_SPAN, compile_stream
from repro.harness.spec import ExperimentSpec
from repro.program.ops import FENCE, READ, READ_RUN, RW_RUN, WRITE, WRITE_RUN
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
    machine.valmodel = PermissiveValueModel(machine)
    result = machine.replay(stream)
    assert machine.valmodel.checked_reads > 0
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
        assert compile_stream(s) == reference_compile(s)

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
        assert compile_stream(s) == reference_compile(s)

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

    def test_run_app_shapes_agree(self):
        spec = small_spec("gauss", "sc")
        by_name = run_app("gauss", protocol="sc", n_procs=4, small=True)
        c = spec.machine_config().config
        via_ctx = run_app(Gauss(AppContext(c), **spec.app_params()), protocol="sc")
        assert by_name.to_dict() == via_ctx.to_dict()

    def test_spec_fields_only_apply_to_names(self):
        app = Gauss(AppContext(cfg()), n=24)
        with pytest.raises(TypeError):
            run_app(app, n_procs=8)

    def test_context_app_has_no_machine(self):
        app = Gauss(AppContext(cfg()), n=24)
        assert not hasattr(app, "machine")
        assert not hasattr(app.ctx, "machine")

    def test_machine_config_consolidates_machine_kwargs(self):
        mc = MachineConfig(config=cfg(), protocol="erc", classify=True)
        machine = mc.build()
        assert machine.protocol_name == "erc"
        assert machine.classifier is not None
        mc2 = mc.with_(protocol="sc", classify=False)
        assert (mc2.protocol, mc2.classify) == ("sc", False)
        assert mc2.config is mc.config
