"""The repo benchmark: host speed of the simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload service-256 --seed 0 --seconds 20 --trace 0

Each workload (``workloads.py``) is a fixed matrix of cells, run through the
public API from one process with the result store off::

    stream = spec.recorded_stream(); compile_stream(stream)     # set-up
    spec.machine_config(shards=1).build().replay(stream)       # one cell

After one untimed warm-up pass, passes over the cells repeat for
``--seconds``.  ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json``:

* ``wall_s`` -- host seconds for one pass over the cells, streams recorded
  and compiled beforehand: each cell's lower-quartile time over the
  passes, summed (see :func:`lower_quartile`);
* ``sim_cycles_per_s`` / ``refs_per_s`` -- simulated ``exec_time`` and
  replayed references summed over the cells, divided by ``wall_s``;
* ``setup_s`` -- record plus compile of every cell in a fresh child
  process with an empty stream memo (median of several children);
* ``peak_rss_mb`` -- peak resident memory of this process.

``--trace 1`` reports the ``per_layer`` metrics.  The timed passes run as
above, untraced; then one more pass under ``cProfile`` gives each layer's self
time, share and calls from other layers (see ``layers.py``), and
``trace.overhead`` is its wall time over ``wall_s``.  Set-up is profiled
the same way, split into record (``program``) and compile
(``engine.replay``).  The modelled counters every run returns (messages,
misses, stall cycles, ...) are summed over the cells.  Those counts are
exact: a host-only change must leave them unchanged.

Every pass is checked.  Each cell's result is digested (sha256 of its
canonical ``RunResult.to_dict()`` JSON); with the default seed the
digests and ``exec_time`` must equal ``expected.json``, with any seed
every pass must reproduce the first.  A cell that raises or mismatches
counts in ``failed``.  Per-cell timings and the host description go to
stdout as a ``detail`` JSON line; the last line is the result object.

``--update-expected`` re-records ``expected.json`` for the default seed;
run it only after a change that is meant to move simulated numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, OTHER, Attribution
from workloads import WORKLOADS, build_cells

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

DEFAULT_SEED = 0
#: Fresh child processes timed per run: at least ``SETUP_SAMPLES``, and
#: up to ``MAX_SETUP_SAMPLES`` while they take under ``SETUP_BUDGET_S``
#: in all.  ``setup_s`` is their median.
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9
SETUP_BUDGET_S = 4.0
#: Timed passes made even when one pass outlasts ``--seconds``.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

#: Variables that would change what is simulated, how, or where results
#: are stored; cleared so an ambient shell cannot change what is timed.
CLEARED_ENV = (
    "REPRO_SHARDS",
    "REPRO_SHARD_BACKEND",
    "REPRO_ENGINE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_VALUE_CHECK",
    "REPRO_RESULTS_DIR",
    "REPRO_STALL_CYCLES",
)


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path, so the simulator is
    never imported from anywhere else; exit if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))


# -- running cells --------------------------------------------------------------


def setup(cells):
    """Record and compile every cell's stream, cold."""
    from repro.engine.replay import compile_stream
    from repro.program.stream import clear_stream_cache

    clear_stream_cache()
    streams = []
    for _name, spec in cells:
        stream = spec.recorded_stream()
        compile_stream(stream)
        streams.append(stream)
    return streams


def run_pass(cells, streams):
    """One pass over the cells: ``[(seconds, result, events, error)]``."""
    out = []
    for (_name, spec), stream in zip(cells, streams):
        # A finished machine is cyclic garbage; collecting it here keeps
        # both the next cell's timing and the peak RSS free of it.
        gc.collect()
        t0 = time.perf_counter()
        try:
            machine = spec.machine_config(shards=1).build()
            result = machine.replay(stream)
        except Exception as exc:  # a failing cell is counted, not fatal
            out.append((time.perf_counter() - t0, None, 0, f"{type(exc).__name__}: {exc}"))
            continue
        out.append((time.perf_counter() - t0, result, machine.sim.events_processed, None))
    return out


def digest(result) -> str:
    canon = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def counters(result, events: int) -> dict:
    """The modelled counts one cell contributes to the per-layer metrics."""
    s, traffic = result.stats, result.traffic
    bd = s.breakdown()
    return {
        "engine.events.events": events,
        "network.messages": traffic.total_messages,
        "network.bytes": traffic.total_bytes,
        "network.hops": traffic.total_hops,
        "cache.references": s.references,
        "cache.misses": s.misses,
        "protocols.write_throughs": s.write_throughs,
        "protocols.notices_sent": s.notices_sent,
        "protocols.acquire_invalidations": s.acquire_invalidations,
        "directory.three_hop_reads": s.three_hop_reads,
        "engine.replay.read_stall_cycles": bd["read"],
        "engine.replay.write_stall_cycles": bd["write"],
        "engine.replay.sync_stall_cycles": bd["sync"],
    }


class Checker:
    """Holds every cell to one digest across passes and, for the default
    seed, to the digest and ``exec_time`` in ``expected.json``."""

    def __init__(self, names, expected):
        self.names = names
        self.expected = expected  # {name: {"digest", "exec_time"}} or None
        self.digests = {}
        self.errors = {}

    def check(self, records) -> None:
        for name, (_t, result, _events, error) in zip(self.names, records):
            if name in self.errors:
                continue
            if error is not None:
                self.errors[name] = error
                continue
            d = digest(result)
            first = self.digests.setdefault(name, d)
            want = (self.expected or {}).get(name)
            if d != first:
                self.errors[name] = "result differs between passes"
            elif self.expected is not None and (
                want is None
                or want["digest"] != d
                or want["exec_time"] != result.exec_time
            ):
                self.errors[name] = f"result differs from expected ({want})"

    @property
    def failed(self) -> int:
        return len(self.errors)


def timed_passes(cells, streams, seconds: float, checker: Checker):
    """Passes for ``seconds`` (at least :data:`MIN_PASSES`), each checked;
    returns each cell's times, one per pass.  Results are dropped once
    checked, so memory does not grow with the number of passes."""
    times = [[] for _ in cells]
    start = time.perf_counter()
    while len(times[0]) < MIN_PASSES or time.perf_counter() - start < seconds:
        records = run_pass(cells, streams)
        checker.check(records)
        for cell_times, record in zip(times, records):
            cell_times.append(record[0])
    return times


def lower_quartile(times: list) -> float:
    """A cell's time over the passes.  Interference from other tenants of
    a shared host only ever adds time, in bursts; the lower quartile
    ignores them where the median still follows them."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4)[0]


def setup_child_samples(workload: str, seed: int) -> list:
    """``setup_s`` measured in fresh processes: at least
    :data:`SETUP_SAMPLES`, more while they stay cheap."""
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_SAMPLES or (
        len(samples) < MAX_SETUP_SAMPLES
        and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up child exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- profiling --------------------------------------------------------------------


def profiled(fn, *args):
    """``(fn(*args), Attribution)`` with ``fn`` run under cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        value = fn(*args)
    finally:
        prof.disable()
    prof.create_stats()
    return value, Attribution(prof.stats, SRC / "repro")


def layer_metrics(attr) -> dict:
    """Self time, share and calls in of every layer, from a traced pass."""
    self_s, total = attr.self_time()
    calls = attr.calls_in()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total
        out[f"{layer}.calls_in"] = calls[layer]
    out[f"{OTHER}.self_s"] = self_s[OTHER]
    out[f"{OTHER}.share"] = self_s[OTHER] / total
    out["trace.profiled_s"] = total
    return out


# -- main -------------------------------------------------------------------------


def load_expected(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_JSON.read_text())[workload]


def update_expected() -> None:
    """Re-record ``expected.json``: one pass of every workload at the
    default seed."""
    table = {}
    for workload in WORKLOADS:
        cells = build_cells(workload, DEFAULT_SEED)
        records = run_pass(cells, setup(cells))
        table[workload] = {}
        for (name, _spec), (_t, result, _events, error) in zip(cells, records):
            if error is not None:
                sys.exit(f"perfbench: {workload} {name}: {error}")
            table[workload][name] = {
                "digest": digest(result),
                "exec_time": result.exec_time,
            }
    EXPECTED_JSON.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    contract = json.loads(BENCHMARK_JSON.read_text())
    import_repro()

    if args.update_expected:
        update_expected()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    cells = build_cells(args.workload, args.seed)
    names = [name for name, _spec in cells]

    if args.setup_child:
        t0 = time.perf_counter()
        setup(cells)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    setup_samples = []
    if args.trace:
        streams, setup_attr = profiled(setup, cells)
    else:
        setup_samples = setup_child_samples(args.workload, args.seed)
        streams = setup(cells)

    checker = Checker(names, load_expected(args.workload, args.seed))
    warm = run_pass(cells, streams)  # lazy imports and first-call costs
    checker.check(warm)
    times = timed_passes(cells, streams, args.seconds, checker)
    cell_walls = [lower_quartile(cell_times) for cell_times in times]
    wall_s = sum(cell_walls)

    ok = [rec for rec in warm if rec[1] is not None]
    if not ok:
        sys.exit(f"perfbench: every cell failed: {checker.errors}")
    cycles = sum(rec[1].exec_time for rec in ok)
    refs = sum(rec[1].stats.references for rec in ok)

    if args.trace:
        records, attr = profiled(run_pass, cells, streams)
        checker.check(records)
        traced_wall = sum(rec[0] for rec in records)
        metrics = {}
        for _t, result, events, _error in ok:
            for key, value in counters(result, events).items():
                metrics[key] = metrics.get(key, 0) + value
        metrics.update(layer_metrics(attr))
        # Set-up splits into record (program) and compile (engine.replay).
        setup_self, _total = setup_attr.self_time()
        metrics["setup.program.self_s"] = setup_self["program"]
        metrics["setup.engine.replay.self_s"] = setup_self["engine.replay"]
        metrics["engine.events.host_ns_per_event"] = (
            wall_s / metrics["engine.events.events"] * 1e9
        )
        metrics["trace.overhead"] = traced_wall / wall_s
        section = "per_layer"
    else:
        metrics = {
            "wall_s": wall_s,
            "sim_cycles_per_s": cycles / wall_s,
            "refs_per_s": refs / wall_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in contract[section]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json {section}: "
            f"{sorted(set(units) ^ set(metrics))}"
        )

    cell_detail = []
    for name, cell_wall, cell_times, (_t, result, events, _e) in zip(
        names, cell_walls, times, warm
    ):
        cell_detail.append({
            "cell": name,
            "wall_s": cell_wall,
            "pass_wall_s": cell_times,
            "sim_cycles_per_s": result.exec_time / cell_wall if result else None,
            "exec_time": result.exec_time if result else None,
            "references": result.stats.references if result else None,
            "events": events,
            "digest": checker.digests.get(name),
            "error": checker.errors.get(name),
        })
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "passes": len(times[0]),
        "setup_samples_s": setup_samples,
        "cells": cell_detail,
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": len(cells),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
