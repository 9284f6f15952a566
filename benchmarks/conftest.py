"""Shared benchmark configuration.

``REPRO_BENCH_PROCS`` scales the simulated machine (default 64, the
paper's size); ``REPRO_BENCH_SMALL=1`` switches to the small presets for
quick smoke runs of the harness.

Simulation results are memoized inside :mod:`repro.harness.experiments`,
so artifacts that share underlying runs (Figure 4 and Figure 5, say)
trigger each simulation once per pytest session.  Two further knobs use
the experiment engine:

* ``REPRO_BENCH_JOBS=N`` (N > 1) prefetches every table/figure
  simulation through the parallel runner at session start, fanning the
  (app, protocol, machine) matrix out over N worker processes;
* ``REPRO_RESULTS_DIR=path`` persists results in an on-disk store, so
  repeated benchmark sessions skip simulations entirely (parallel,
  serial and stored results are bit-identical — DESIGN.md §7).
"""

import os
import time

import pytest

N_PROCS = int(os.environ.get("REPRO_BENCH_PROCS", "64"))
SMALL = os.environ.get("REPRO_BENCH_SMALL", "0") == "1"
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def pytest_sessionstart(session):
    if JOBS > 1:
        from repro.harness.experiments import all_artifact_specs, prefetch

        prefetch(
            all_artifact_specs(n_procs=N_PROCS, small=SMALL), jobs=JOBS
        )


@pytest.fixture(scope="session")
def bench_procs():
    return N_PROCS


@pytest.fixture(scope="session")
def bench_small():
    return SMALL


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def timed(fn, reps=3):
    """Run ``fn`` ``reps`` times; return ``(last_result, timing)``.

    ``timing`` reports wall-time variance — ``{"reps", "min_s",
    "median_s"}`` — so a BENCH cell carries both the best case (the
    conventional headline, least scheduler noise) and the median (the
    stability check: a median far off the min flags a noisy host).
    The throughput trajectory file (``BENCH_scaling.json``) reports
    through this one helper.
    """
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return out, {
        "reps": reps,
        "min_s": round(times[0], 4),
        "median_s": round(times[reps // 2], 4),
    }


#: Reproduced tables/figures, emitted after the run (pytest captures
#: per-test stdout of passing tests; the summary hook below does not).
ARTIFACTS = []


def record(text: str) -> None:
    ARTIFACTS.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ARTIFACTS:
        return
    terminalreporter.write_sep(
        "=", f"reproduced paper artifacts ({N_PROCS} processors"
        + (", small presets)" if SMALL else ")")
    )
    for text in ARTIFACTS:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")
