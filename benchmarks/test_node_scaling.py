"""Serial node scaling: kvstore at 64/256/1024 nodes.

Writes ``BENCH_scaling.json`` at the repo root.  Each cell replays one
recorded kvstore stream (small preset) under lrc and tardis ``REPS``
times on a fresh machine and reports the min and median wall time, plus
simulated cycles and events per wall-clock second at the min.  Every
rep of a cell must produce the same result, which is the determinism
check that rides along.

The CI smoke overrides ``REPRO_SCALING_NODES`` (e.g. ``16,32``) to keep
the matrix small.
"""

import json
import os
from pathlib import Path

from benchmarks.conftest import record, timed
from repro.harness.spec import ExperimentSpec

OUT = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

NODES = tuple(
    int(n)
    for n in os.environ.get("REPRO_SCALING_NODES", "64,256,1024").split(",")
)
PROTOCOLS = ("lrc", "tardis")
APP = "kvstore"
REPS = 3


def test_node_scaling():
    cells = []
    for n in NODES:
        for proto in PROTOCOLS:
            spec = ExperimentSpec(APP, proto, n_procs=n, small=True)
            stream = spec.recorded_stream()  # record once, replay per rep
            runs = []

            def replay():
                m = spec.machine_config().build()
                r = m.replay(stream)
                runs.append((json.dumps(r.to_dict(), sort_keys=True),
                             m.sim.events_processed))
                return r

            result, t = timed(replay, REPS)
            assert len(set(runs)) == 1, f"{APP}/{proto} n={n} not deterministic"
            cycles = result.exec_time
            events = runs[0][1]
            cells.append({
                "app": APP,
                "protocol": proto,
                "n_procs": n,
                "cycles": cycles,
                "events": events,
                **t,
                "cycles_per_sec": round(cycles / t["min_s"]),
                "events_per_sec": round(events / t["min_s"]),
            })
    OUT.write_text(json.dumps({
        "benchmark": "node_scaling",
        "app": APP,
        "nodes": list(NODES),
        "reps": REPS,
        "cells": cells,
    }, indent=2) + "\n")
    lines = [f"Serial node scaling ({APP}, small preset) -> {OUT.name}"]
    for c in cells:
        lines.append(
            f"  {c['protocol']:>6} @ {c['n_procs']:>4} nodes: "
            f"min {c['min_s']:.2f} s, median {c['median_s']:.2f} s, "
            f"{c['cycles_per_sec'] / 1e6:.2f}M cycles/s, "
            f"{c['events_per_sec'] / 1e3:.0f}k events/s"
        )
    text = "\n".join(lines)
    print("\n" + text)
    record(text)
