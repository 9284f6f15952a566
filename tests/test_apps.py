"""Application-level tests: structure, determinism, and completion."""

import pytest

from repro import Machine, SystemConfig
from repro.apps import (
    APPS, SERVICE_APPS, AppContext, BarnesHut, BlockedLU, Cholesky, FFT,
    Gauss, KVStore, LocusRoute, MP3D, PubSub, TaskQueue,
)
from repro.apps.barnes import _Quadtree
from repro.apps.mp3d_quality import quality_divergence, run_quality_model
from repro.harness.spec import ExperimentSpec
from repro.program.stream import RecordedStream

import numpy as np

TINY = {
    "gauss": dict(n=24),
    "fft": dict(m=256),
    "blu": dict(n=24, block=8),
    "barnes": dict(bodies=48, steps=1),
    "cholesky": dict(ncols=40),
    "locusroute": dict(width=32, height=8, wires=24, passes=1),
    "mp3d": dict(particles=128, steps=2, cells=64),
}


def machine(n=4, proto="lrc", **kw):
    kw.setdefault("cache_size", 4096)
    return Machine(SystemConfig.scaled(n_procs=n, **kw), protocol=proto, max_cycles=10**9)


def ctx(n=4, **kw):
    """A machine-free app context (structure-only tests)."""
    kw.setdefault("cache_size", 4096)
    return AppContext(SystemConfig.scaled(n_procs=n, **kw))


def run_app(name, n=4, proto="lrc", **params):
    m = machine(n, proto)
    p = dict(TINY[name]); p.update(params)
    app = APPS[name](AppContext(m.config), **p)
    return m.replay(RecordedStream.record(app)), m


class TestRegistry:
    def test_all_apps_registered(self):
        assert set(APPS) == {
            "gauss", "fft", "blu", "barnes", "cholesky", "locusroute", "mp3d",
            "fuzz",  # conformance workload (DESIGN.md §9)
            "kvstore", "taskqueue", "pubsub",  # service workloads (§13)
        }

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_apps_complete_on_all_protocols(self, name):
        for proto in ("sc", "erc", "lrc", "lrc-ext"):
            r, _ = run_app(name, proto=proto)
            assert r.exec_time > 0
            assert r.stats.references > 0

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_apps_deterministic(self, name):
        a, _ = run_app(name)
        b, _ = run_app(name)
        assert a.exec_time == b.exec_time
        assert a.stats.references == b.stats.references
        assert a.traffic.total_messages == b.traffic.total_messages

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_reference_count_protocol_independent(self, name):
        """The front end emits the same workload to every protocol."""
        counts = set()
        for proto in ("sc", "erc", "lrc"):
            r, _ = run_app(name, proto=proto)
            counts.add(r.stats.references)
        assert len(counts) == 1


class TestGauss:
    def test_reference_volume_scales_as_n_cubed(self):
        small, _ = run_app("gauss", n=2, proto="lrc")
        big_m = machine(2)
        app = Gauss(AppContext(big_m.config), n=48)
        big = big_m.replay(RecordedStream.record(app))
        ratio = big.stats.references / small.stats.references
        assert 6 < ratio < 11  # (48/24)^3 = 8

    def test_rows_are_line_aligned(self):
        m = ctx(2)
        app = Gauss(m, n=24)
        assert app.row_bytes % m.config.line_size == 0

    def test_every_row_flag_set_exactly_once(self):
        m = ctx(4)
        app = Gauss(m, n=24)
        from repro.program.ops import SET_FLAG
        sets = []
        for pid in range(4):
            sets += [op[1] for op in app.program(pid) if op[0] == SET_FLAG]
        assert sorted(sets) == list(range(app.row_flag, app.row_flag + 23))


class TestFFT:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FFT(ctx(2), m=100)

    def test_butterfly_coverage(self):
        """Across all processors, every element is rewritten each phase."""
        m = ctx(4)
        app = FFT(m, m=256)
        from repro.program.ops import RW_RUN, BARRIER
        writes_per_phase = [0]
        for pid in range(4):
            phase = 0
            for op in app.program(pid):
                if op[0] == RW_RUN:
                    while len(writes_per_phase) <= phase:
                        writes_per_phase.append(0)
                    if phase < app.log_m:
                        writes_per_phase[phase] += op[2] // 2  # complex elems
                elif op[0] == BARRIER:
                    phase += 1
        for count in writes_per_phase[: app.log_m]:
            assert count == 256


class TestBlockedLU:
    def test_block_must_divide_n(self):
        with pytest.raises(ValueError):
            BlockedLU(ctx(2), n=25, block=8)

    def test_block_misalignment_creates_false_sharing_potential(self):
        m = ctx(4)
        app = BlockedLU(m, n=24, block=12)
        # 12 doubles = 96 bytes: not a multiple of the 128-byte line.
        assert (app.b * 8) % m.config.line_size != 0

    def test_ownership_covers_all_blocks(self):
        m = ctx(4)
        app = BlockedLU(m, n=24, block=8)
        owners = {app.owner(i, j) for i in range(3) for j in range(3)}
        assert owners <= set(range(4))
        assert len(owners) > 1


class TestBarnes:
    def test_quadtree_contains_all_bodies(self):
        rng = np.random.default_rng(1)
        pos = rng.random((64, 2))
        tree = _Quadtree(pos)
        found = []
        stack = [tree.root]
        while stack:
            c = stack.pop()
            found += c.bodies
            stack += [ch for ch in c.children if ch is not None]
        assert sorted(found) == list(range(64))

    def test_insertion_paths_end_at_leaf(self):
        rng = np.random.default_rng(2)
        tree = _Quadtree(rng.random((32, 2)))
        for b, path in enumerate(tree.paths):
            leaf = tree.cells[path[-1]]
            # path cells are connected root-to-leaf
            assert path[0] == tree.root.idx

    def test_traversal_visits_root_and_excludes_self(self):
        rng = np.random.default_rng(3)
        tree = _Quadtree(rng.random((32, 2)))
        cells, bodies = tree.traversal(5)
        assert tree.root.idx in cells
        assert 5 not in bodies

    def test_trees_differ_across_steps(self):
        m = ctx(2)
        app = BarnesHut(m, bodies=48, steps=2)
        assert len(app.trees) == 2
        # positions drifted: traversals differ for some body
        t0 = app.trees[0].traversal(0)
        t1 = app.trees[1].traversal(0)
        assert t0 != t1 or len(app.trees[0].cells) != len(app.trees[1].cells)


class TestCholesky:
    def test_dependencies_point_backward(self):
        m = ctx(4)
        app = Cholesky(m, ncols=40)
        for j, deps in enumerate(app.deps):
            assert all(d < j for d in deps)

    def test_columns_line_aligned(self):
        m = ctx(4)
        app = Cholesky(m, ncols=40)
        for off in app.col_off:
            assert off % m.config.line_size == 0

    def test_first_column_has_no_deps(self):
        m = ctx(4)
        app = Cholesky(m, ncols=40)
        assert app.deps[0] == []


class TestLocusRoute:
    def test_segments_stay_on_grid(self):
        m = ctx(4)
        app = LocusRoute(m, **TINY["locusroute"])
        for wire in app.wire_list:
            for cand in range(app.n_cand):
                for kind, fixed, a, b in app._route_segments(wire, cand):
                    assert a <= b
                    if kind == "h":
                        assert 0 <= fixed < app.h and 0 <= a and b < app.w
                    else:
                        assert 0 <= fixed < app.w and 0 <= a and b < app.h

    def test_route_connects_endpoints(self):
        m = ctx(4)
        app = LocusRoute(m, **TINY["locusroute"])
        for wire in app.wire_list[:10]:
            x1, y1, x2, y2 = wire
            for cand in range(app.n_cand):
                cells = set()
                for kind, fixed, a, b in app._route_segments(wire, cand):
                    for v in range(a, b + 1):
                        cells.add((v, fixed) if kind == "h" else (fixed, v))
                assert (x1, y1) in cells and (x2, y2) in cells


class TestMP3D:
    def test_trajectories_stay_in_cells(self):
        m = ctx(4)
        app = MP3D(m, **TINY["mp3d"])
        assert app.traj.min() >= 0
        assert app.traj.max() < app.n_cells

    def test_partners_share_cell(self):
        m = ctx(4)
        app = MP3D(m, **TINY["mp3d"])
        s, ps = np.nonzero(app.partner >= 0)
        for step, p in zip(s[:50], ps[:50]):
            mate = app.partner[step, p]
            assert app.traj[step, p] == app.traj[step, mate]


class TestMP3DQuality:
    def test_model_deterministic(self):
        a = run_quality_model(particles=128, steps=3, mode="sc")
        b = run_quality_model(particles=128, steps=3, mode="sc")
        assert np.allclose(a, b)

    def test_modes_diverge(self):
        a = run_quality_model(particles=256, steps=5, mode="sc")
        b = run_quality_model(particles=256, steps=5, mode="lazy")
        assert not np.allclose(a, b)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            run_quality_model(mode="tso")

    def test_divergence_shape(self):
        div = quality_divergence(particles=512, steps=5)
        assert set(div) == {"X", "Y", "Z"}
        assert div["X"] > max(div["Y"], div["Z"])


class TestServiceAppDeterminism:
    """Identical seeds give identical zipfian request tapes, recorded
    streams and RunResult numbers (what the golden fixtures and the
    replay cache both stand on)."""

    @staticmethod
    def cfg(**kw):
        return SystemConfig.scaled(n_procs=4, cache_size=4096, **kw)

    def test_identical_seeds_identical_request_tapes(self):
        a = KVStore(AppContext(self.cfg()), n_keys=64, shards=4, ops=32)
        b = KVStore(AppContext(self.cfg()), n_keys=64, shards=4, ops=32)
        assert [list(map(tuple, r)) for r in a.requests] == \
               [list(map(tuple, r)) for r in b.requests]
        assert list(a.key_of_rank) == list(b.key_of_rank)

    def test_different_seed_different_tape(self):
        a = KVStore(AppContext(self.cfg(seed=1)), n_keys=64, shards=4, ops=32)
        b = KVStore(AppContext(self.cfg(seed=2)), n_keys=64, shards=4, ops=32)
        assert [list(map(tuple, r)) for r in a.requests] != \
               [list(map(tuple, r)) for r in b.requests]

    @pytest.mark.parametrize("cls,params", [
        (KVStore, dict(n_keys=64, shards=4, ops=32)),
        (TaskQueue, dict(tasks=48, work=16)),
        (PubSub, dict(topics=4, messages=3)),
    ])
    def test_stream_fingerprints_stable_across_records(self, cls, params):
        a = RecordedStream.record(cls(AppContext(self.cfg()), **params))
        b = RecordedStream.record(cls(AppContext(self.cfg()), **params))
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("app", SERVICE_APPS)
    def test_run_results_bit_identical(self, app):
        spec = ExperimentSpec(app, "lrc", n_procs=4, small=True)
        assert spec.run().to_dict() == spec.run().to_dict()
