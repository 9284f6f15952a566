"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gauss" in out and "lrc-ext" in out


def test_run_small(capsys):
    assert main(["run", "mp3d", "--protocol", "lrc", "--procs", "4", "--small"]) == 0
    out = capsys.readouterr().out
    assert "miss_rate" in out and "exec_time" in out


def test_compare_small(capsys):
    assert main(["compare", "mp3d", "--procs", "4", "--small"]) == 0
    out = capsys.readouterr().out
    for proto in ("sc", "erc", "lrc", "lrc-ext"):
        assert proto in out


def test_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "linpack"])


def test_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["run", "gauss", "--protocol", "mesi"])


def test_figures_subset_with_store(tmp_path, capsys):
    from repro.harness.experiments import clear_cache

    store_dir = str(tmp_path / "results")
    argv = [
        "figures", "--only", "t1", "t3", "--procs", "4", "--small",
        "--jobs", "2", "--store-dir", store_dir,
    ]
    clear_cache()
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "Table 1" in cold and "Table 3" in cold
    assert "Miss rates" in cold
    # t3 needs erc/lrc/lrc-ext/tardis for 7 apps = 28 stored results.
    assert len(list((tmp_path / "results").glob("*.json"))) == 28

    # Warm rerun: served from the store, bit-identical output.
    clear_cache()
    assert main(argv) == 0
    assert capsys.readouterr().out == cold


def test_figures_no_store(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["figures", "--only", "f4", "--procs", "4", "--small",
                 "--no-store"]) == 0
    assert "Figure 4" in capsys.readouterr().out
    assert not (tmp_path / ".repro-results").exists()


def test_figures_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        main(["figures", "--only", "f13"])


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_clean_run(capsys):
    assert main(["trace", "gauss", "--protocol", "lrc", "--procs", "2",
                 "--small"]) == 0
    out = capsys.readouterr().out
    assert "invariants ok" in out
    assert "msg" in out  # event-kind histogram rendered


def test_trace_jsonl_export(tmp_path, capsys):
    import json

    out_file = tmp_path / "events.jsonl"
    assert main(["trace", "gauss", "--protocol", "sc", "--procs", "2",
                 "--small", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines
    for line in lines[:20]:
        ev = json.loads(line)
        assert {"seq", "t", "kind", "node"} <= set(ev)
    # seq strictly increasing across the buffer.
    seqs = [json.loads(l)["seq"] for l in lines]
    assert seqs == sorted(seqs)


def test_trace_violation_prints_window(tmp_path, capsys, monkeypatch):
    from repro.protocols import REGISTRY
    from tests.test_trace import BrokenReleaseLRC

    monkeypatch.setitem(REGISTRY, BrokenReleaseLRC.name, BrokenReleaseLRC)
    assert main(["trace", "gauss", "--protocol", BrokenReleaseLRC.name,
                 "--procs", "2", "--small", "--window", "5"]) == 1
    err = capsys.readouterr().err
    assert "INVARIANT VIOLATION" in err
    assert "event window" in err
    assert "violation" in err  # the anchored event itself is rendered


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def test_fuzz_clean_exit_zero(capsys):
    assert main(["fuzz", "--seed", "0", "--iters", "2", "--procs", "4",
                 "--n-ops", "30"]) == 0
    assert "all clean" in capsys.readouterr().out


def test_fuzz_single_protocol(capsys):
    assert main(["fuzz", "--seed", "3", "--iters", "1", "--procs", "2",
                 "--n-ops", "30", "--protocols", "lrc"]) == 0
    out = capsys.readouterr().out
    assert "1 protocols (lrc)" in out


def test_fuzz_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["fuzz", "--protocols", "mesi"])


def test_fuzz_broken_protocol_report_and_replay(tmp_path, capsys, monkeypatch):
    import json

    from repro.conformance import ProgramSpec
    from repro.protocols import REGISTRY
    from tests.test_trace import BrokenReleaseLRC

    monkeypatch.setitem(REGISTRY, BrokenReleaseLRC.name, BrokenReleaseLRC)
    out_file = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seed", "0", "--iters", "1", "--procs", "4",
                 "--n-ops", "40", "--protocols", BrokenReleaseLRC.name,
                 "--out", str(out_file)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "release fired" in out
    assert "violation" in out  # trace window printed under the failure

    report = json.loads(out_file.read_text())
    assert len(report["failures"]) == 1
    mini = ProgramSpec.from_dict(report["failures"][0]["minimized"])
    assert mini.op_count() <= 30

    # Replay path re-runs the reproducer and still fails.
    assert main(["fuzz", "--replay", str(out_file)]) == 1
    assert "STILL FAILS" in capsys.readouterr().err


def test_fuzz_replay_reuses_the_campaigns_jitter(tmp_path, capsys, monkeypatch):
    """A failure found under --jitter must replay under jitter, not
    report clean on the plain fabric."""
    import json

    from repro.network.jitter import JitterFabric
    from repro.protocols import REGISTRY, LRCProtocol

    class BrokenUnderJitterLRC(LRCProtocol):
        """Fires release continuations early, only on the jitter fabric."""

        name = "broken-under-jitter"

        def _pre_release(self, node, t, cont):
            if isinstance(self.fabric, JitterFabric):
                cont(t)
            else:
                super()._pre_release(node, t, cont)

    monkeypatch.setitem(REGISTRY, BrokenUnderJitterLRC.name, BrokenUnderJitterLRC)
    argv = ["fuzz", "--seed", "0", "--iters", "1", "--procs", "4",
            "--n-ops", "40", "--protocols", BrokenUnderJitterLRC.name,
            "--store-dir", str(tmp_path / "rs")]
    assert main(argv) == 0  # clean on the plain fabric
    out_file = tmp_path / "fuzz.json"
    assert main(argv + ["--jitter", "--out", str(out_file)]) == 1
    capsys.readouterr()
    assert json.loads(out_file.read_text())["jitter"] is True
    assert main(["fuzz", "--replay", str(out_file)]) == 1
    assert "STILL FAILS" in capsys.readouterr().err


def test_fuzz_no_minimize_skips_minimization(tmp_path, capsys, monkeypatch):
    import json

    from repro.protocols import REGISTRY
    from tests.test_trace import BrokenReleaseLRC

    monkeypatch.setitem(REGISTRY, BrokenReleaseLRC.name, BrokenReleaseLRC)
    out_file = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seed", "0", "--iters", "1", "--procs", "4",
                 "--n-ops", "40", "--protocols", BrokenReleaseLRC.name,
                 "--no-minimize", "--out", str(out_file)]) == 1
    capsys.readouterr()
    report = json.loads(out_file.read_text())
    assert report["failures"][0]["minimized"] is None


def test_fuzz_resume_skips_journaled_iterations(tmp_path, capsys):
    store = str(tmp_path / "rs")
    base = ["fuzz", "--seed", "0", "--iters", "3", "--procs", "4",
            "--n-ops", "30", "--protocols", "lrc", "--store-dir", store]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert "all clean" in first
    assert main(base + ["--resume"]) == 0
    resumed = capsys.readouterr()
    assert "3/3 iterations journaled" in resumed.err
    assert "all clean" in resumed.out


def test_figures_resume_finishes_an_interrupted_campaign(
    tmp_path, capsys, monkeypatch
):
    """A campaign killed mid-sweep, rerun with --resume, runs only the
    cells it had not finished and prints byte-identical artifacts."""
    from repro.harness.experiments import clear_cache
    from repro.harness.spec import ExperimentSpec

    def figures(store, *extra):
        clear_cache()
        return main(["figures", "--only", "t3", "--procs", "4", "--small",
                     "--store-dir", str(tmp_path / store), *extra])

    assert figures("ref") == 0
    reference = capsys.readouterr().out

    real_run = ExperimentSpec.run
    calls = []

    def run_then_die(spec):
        if len(calls) == 4:
            raise KeyboardInterrupt  # the campaign dies mid-sweep
        calls.append(spec)
        return real_run(spec)

    monkeypatch.setattr(ExperimentSpec, "run", run_then_die)
    with pytest.raises(KeyboardInterrupt):
        figures("crash")
    capsys.readouterr()

    def counting_run(spec):
        calls.append(spec)
        return real_run(spec)

    calls.clear()
    monkeypatch.setattr(ExperimentSpec, "run", counting_run)
    assert figures("crash", "--resume") == 0
    assert capsys.readouterr().out == reference
    # t3 is 28 cells (4 protocols x 7 apps); 4 finished before the crash.
    assert len(calls) == 24


def _stall_on(target, real_run, calls):
    """An ExperimentSpec.run that stalls ``target`` and logs every call."""
    from repro.engine.watchdog import SimulationStall

    def run(spec):
        calls.append(spec)
        if spec == target:
            raise SimulationStall("no progress", kind="watchdog", cycle=1)
        return real_run(spec)

    return run


def test_figures_resume_rereports_stored_failures(tmp_path, capsys, monkeypatch):
    """--resume skips a cell the store holds a failure record for and
    re-reports it; without --resume the failed cell runs again."""
    from repro.harness.experiments import clear_cache
    from repro.harness.spec import ExperimentSpec

    target = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
    real_run = ExperimentSpec.run
    calls = []

    def figures(*extra):
        clear_cache()
        calls.clear()
        return main(["figures", "--only", "f4", "--procs", "4", "--small",
                     "--store-dir", str(tmp_path / "rs"), *extra])

    monkeypatch.setattr(ExperimentSpec, "run", _stall_on(target, real_run, calls))
    assert figures() == 1
    assert target in calls
    assert f"{target.label()}: stall: no progress" in capsys.readouterr().err

    assert figures("--resume") == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "resume: 1 of 21 cells recorded as failed" in err
    assert f"{target.label()}: stall: no progress" in err

    monkeypatch.setattr(ExperimentSpec, "run", _stall_on(None, real_run, calls))
    assert figures() == 0
    assert calls == [target]
    assert "Figure 4" in capsys.readouterr().out


def test_figures_resume_reruns_failures_of_checked_runs(
    tmp_path, capsys, monkeypatch
):
    """A failure recorded by a --check-invariants run does not stand for
    the unchecked spec: an unchecked --resume runs that cell again."""
    from repro.harness.experiments import clear_cache
    from repro.harness.spec import ExperimentSpec

    target = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
    real_run = ExperimentSpec.run
    calls = []

    def figures(*extra):
        clear_cache()
        calls.clear()
        return main(["figures", "--only", "f4", "--procs", "4", "--small",
                     "--store-dir", str(tmp_path / "rs"), *extra])

    monkeypatch.setattr(ExperimentSpec, "run", _stall_on(target, real_run, calls))
    assert figures("--check-invariants") == 1
    capsys.readouterr()

    monkeypatch.setattr(ExperimentSpec, "run", _stall_on(None, real_run, calls))
    assert figures("--resume") == 0
    assert calls == [target]
    assert "Figure 4" in capsys.readouterr().out
