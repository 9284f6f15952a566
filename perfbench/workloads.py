"""The benchmark's workloads: fixed cell matrices over the public spec API.

A *cell* is one ``ExperimentSpec``; a *workload* is a closed batch of
cells run back to back from one process.  The workload seed reaches the
simulator only as the app ``seed`` parameter, so one seed always gives
the same reference streams.  Apps whose inputs are not random (gauss,
fft) record identical streams for every seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Hit-dominated machine: 1 MB caches, 512 B lines, long quantum.
WARM = (("cache_size", 1 << 20), ("line_size", 512), ("quantum", 8000))
#: Same machine with 256 B lines: lazy protocols' write-through traffic
#: bounds the run.
WT_BOUND = (("cache_size", 1 << 20), ("line_size", 256), ("quantum", 8000))

#: name -> (why, [(app, protocol, spec kwargs)]).
WORKLOADS: Dict[str, Tuple[str, List[Tuple[str, str, dict]]]] = {
    "splash-warm": (
        "4-proc gauss/fft on 1 MB caches: almost all read hits, so "
        "span-batched replay does the work and the fabric is idle",
        [
            (app, proto, dict(n_procs=4, overrides=WARM, params=params))
            for app, params in (("gauss", dict(n=256)), ("fft", dict(m=16384)))
            for proto in ("sc", "erc")
        ],
    ),
    "splash-wt": (
        "the same apps with 256 B lines under lrc, lrc-ext and tardis: "
        "every write flows through the coalescing buffer as write-through",
        [
            (app, proto, dict(n_procs=4, overrides=WT_BOUND))
            for app in ("gauss", "fft")
            for proto in ("lrc", "lrc-ext", "tardis")
        ],
    ),
    "service-256": (
        "kvstore and taskqueue at 256 nodes: over 150k messages per "
        "kvstore cell, so the fabric, NICs and event queue dominate",
        [
            # One lock per key: with the preset's 4 shard locks, exec_time
            # is set by which shard the seeded permutation hands the
            # hottest keys and moves +-20% with the seed; per-key locks
            # keep the traffic and tie exec_time to the zipf mass alone.
            ("kvstore", proto, dict(n_procs=256, small=True, params=dict(shards=96)))
            for proto in ("lrc", "tardis")
        ] + [("taskqueue", "lrc", dict(n_procs=256))],
    ),
    "paper-64": (
        "paper-scale 64-proc cells on 8 KB caches, mostly misses; the "
        "only workload that runs the miss classifier",
        [
            (app, proto, dict(n_procs=64, classify=classify))
            for app in ("fft", "cholesky")
            for proto, classify in (("erc", True), ("lrc", False))
        ],
    ),
}


def cell_name(app: str, protocol: str, kwargs: dict) -> str:
    """Seed-independent name of a cell, unique within its workload."""
    return f"{app}/{protocol}" + ("+classify" if kwargs.get("classify") else "")


def build_cells(workload: str, seed: int):
    """``[(name, ExperimentSpec)]`` for ``workload`` at ``seed``."""
    from repro.harness.spec import ExperimentSpec

    _why, matrix = WORKLOADS[workload]
    cells = []
    for app, proto, kwargs in matrix:
        kw = dict(kwargs)
        kw["params"] = {**kw.get("params", {}), "seed": seed}
        cells.append((cell_name(app, proto, kwargs), ExperimentSpec(app, proto, **kw)))
    return cells
