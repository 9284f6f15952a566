"""Tests for the public entry points: a preset app runs by name through
``ExperimentSpec`` + ``run_spec``, a context-built app through
``simulate``; ``protocol`` and ``classify`` configure the machine either
way."""

from repro import ExperimentSpec, SystemConfig, run_spec, simulate
from repro.apps import Gauss
from repro.core import MachineConfig


def cfg(n=2):
    return SystemConfig.scaled(n_procs=n, cache_size=8 * 128)


def spec(protocol="lrc", classify=False):
    return ExperimentSpec(
        "gauss", protocol, n_procs=2, small=True, classify=classify
    )


class TestBuildMachine:
    def test_protocol_and_classifier_wiring(self):
        m = MachineConfig(cfg(), protocol="erc", classify=True).build()
        assert m.protocol_name == "erc"
        assert m.classifier is not None
        assert MachineConfig(cfg()).build().classifier is None


class TestRunApp:
    def test_runs_on_the_apps_machine(self):
        # A preset app runs on the machine its spec describes, unclassified
        # unless told otherwise.
        s = spec()
        r = run_spec(s)
        assert r.exec_time > 0 and r.protocol == "lrc"
        assert r.config == s.config() and r.classifier is None

    def test_protocol_assertion_matches(self):
        assert run_spec(spec("erc")).protocol == "erc"

    def test_classify_assertion_propagates(self):
        r = run_spec(spec(classify=True))
        assert r.classifier is not None
        assert r.classifier.total > 0


class TestSimulate:
    def test_classify_reaches_the_result(self):
        r = simulate(Gauss, cfg(), "erc", classify=True, n=8)
        assert r.classifier is not None and r.classifier.total > 0

    def test_default_has_no_classifier(self):
        r = simulate(Gauss, cfg(), "erc", n=8)
        assert r.classifier is None
