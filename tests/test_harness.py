"""Tests for the experiment harness (presets, caching, rendering)."""

import pytest

from repro.harness import (
    APP_PRESETS,
    ExperimentSpec,
    bench_config,
    clear_cache,
    future_config,
    run_spec,
    sensitivity_sweep,
    table1,
)
from repro.harness import experiments
from repro.harness.presets import APP_LABELS, APP_ORDER, APP_PRESETS_SMALL
from repro.stats.report import breakdown_bar, format_table


class TestPresets:
    def test_presets_cover_all_apps(self):
        # APP_ORDER lists the paper's benchmark suite; the fuzz
        # conformance workload and the service apps (DESIGN.md §13)
        # have presets but no figure slot.
        from repro.apps import SERVICE_APPS

        assert (
            set(APP_PRESETS)
            == set(APP_PRESETS_SMALL)
            == set(APP_ORDER) | {"fuzz"} | set(SERVICE_APPS)
        )
        assert set(APP_LABELS) == set(APP_ORDER)

    def test_bench_config_defaults(self):
        c = bench_config()
        assert c.n_procs == 64
        assert c.cache_size == 8 * 1024
        assert c.line_size == 128  # Table 1 parameters preserved

    def test_future_config(self):
        c = future_config()
        assert c.mem_setup == 40
        assert c.line_size == 256
        assert c.net_bw == 4.0

    def test_config_overrides(self):
        c = bench_config(n_procs=8, line_size=64)
        assert c.n_procs == 8 and c.line_size == 64


def mp3d(protocol="lrc", **fields):
    return ExperimentSpec("mp3d", protocol, n_procs=4, small=True, **fields)


class TestRunExperiment:
    def test_small_experiment_runs(self):
        r = run_spec(mp3d())
        assert r.exec_time > 0
        assert r.protocol == "lrc"

    def test_cache_returns_same_object(self):
        a = run_spec(mp3d())
        b = run_spec(mp3d())
        assert a is b

    def test_cache_distinguishes_overrides(self):
        a = run_spec(mp3d())
        b = run_spec(mp3d(overrides={"line_size": 64}))
        assert a is not b
        assert b.config.line_size == 64

    def test_clear_cache(self):
        a = run_spec(mp3d())
        clear_cache()
        b = run_spec(mp3d())
        assert a is not b
        # Determinism: same numbers even from distinct runs.
        assert a.exec_time == b.exec_time

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            mp3d(kind="quantum")

    def test_classifier_attached_when_requested(self):
        r = run_spec(mp3d("erc", classify=True))
        assert r.classifier is not None
        assert r.classifier.total > 0


class TestRendering:
    def test_table1_contains_all_parameters(self):
        text = table1()
        for needle in ("128 bytes", "128 Kbytes", "20 cycles", "25 cycles", "272"):
            assert needle in text

    def test_format_table(self):
        out = format_table(["app", "ratio"], [["gauss", 0.918]], title="T")
        assert "gauss" in out and "0.918" in out and out.startswith("T")

    def test_breakdown_bar_width(self):
        bar = breakdown_bar({"cpu": 1, "read": 1, "write": 1, "sync": 1}, width=40)
        assert 36 <= len(bar) <= 44

    def test_sensitivity_sweep_small(self):
        rows, text = sensitivity_sweep(app="mp3d", n_procs=4, small=True)
        assert len(rows) == 5
        assert "baseline" in text


class TestArtifactContract:
    """Each artifact renders from exactly the cells ``artifact_specs``
    lists for it, so prefetching those cells covers the rendering."""

    @pytest.mark.parametrize("key", experiments.ARTIFACT_KEYS)
    def test_render_requests_exactly_the_artifact_specs(self, key, monkeypatch):
        canned = ExperimentSpec(
            "gauss", "erc", n_procs=2, small=True, classify=True
        ).run()
        requested = set()

        def fake_run_spec(spec, store=None):
            requested.add(spec)
            return canned

        monkeypatch.setattr(experiments, "run_spec", fake_run_spec)
        assert experiments.render_artifact(key, 8, True)
        assert requested == set(experiments.artifact_specs(key, 8, True))
