"""Tests for the public convenience API (build_machine / run_app / simulate):
``protocol`` and ``classify`` configure the machine a context-built app
runs on."""

from repro import SystemConfig, build_machine, run_app, simulate
from repro.apps import AppContext, Gauss


def cfg(n=2):
    return SystemConfig.scaled(n_procs=n, cache_size=8 * 128)


class TestBuildMachine:
    def test_protocol_and_classifier_wiring(self):
        m = build_machine(cfg(), protocol="erc", classify=True)
        assert m.protocol_name == "erc"
        assert m.classifier is not None
        assert build_machine(cfg()).classifier is None


class TestRunApp:
    def test_runs_on_the_apps_machine(self):
        # A context-built app runs on a fresh machine of its own config,
        # lrc and unclassified unless told otherwise.
        r = run_app(Gauss(AppContext(cfg()), n=8))
        assert r.exec_time > 0 and r.protocol == "lrc"
        assert r.config == cfg() and r.classifier is None

    def test_protocol_assertion_matches(self):
        app = Gauss(AppContext(cfg()), n=8)
        assert run_app(app, protocol="erc").protocol == "erc"

    def test_classify_assertion_propagates(self):
        r = run_app(Gauss(AppContext(cfg()), n=8), classify=True)
        assert r.classifier is not None
        assert r.classifier.total > 0


class TestSimulate:
    def test_classify_reaches_the_result(self):
        r = simulate(Gauss, cfg(), "erc", classify=True, n=8)
        assert r.classifier is not None and r.classifier.total > 0

    def test_default_has_no_classifier(self):
        r = simulate(Gauss, cfg(), "erc", n=8)
        assert r.classifier is None
