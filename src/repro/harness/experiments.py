"""One entry point per table/figure of the paper.

Every function returns both the raw numbers and a formatted text block
that mirrors the paper's presentation; :func:`render_artifact` returns
the text of any artifact by key.  Each artifact's cells are listed once,
by :func:`artifact_specs`, as :class:`repro.harness.spec.ExperimentSpec`
values, and every table and figure reads its cells through one memoized
executor, :func:`run_spec`:

* results are memoized in-process per spec, so the benchmark suite —
  which regenerates several artifacts from the same underlying runs
  (e.g. Figure 4 and Figure 5) — performs each simulation exactly once;
* when a persistent :class:`repro.results.store.ResultStore` is active
  (``REPRO_RESULTS_DIR``, or the ``python -m repro figures`` CLI),
  results are also served from / saved to disk, keyed by
  ``spec.fingerprint()``, making warm re-runs near-instant across
  processes and sessions;
* :func:`prefetch` runs a list of specs through the experiment runner
  (:mod:`repro.harness.runner`), over worker processes when asked, and
  warms the memo, so the artifact functions below then render from
  memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.machine import RunResult
from repro.harness.presets import APP_LABELS, APP_ORDER
from repro.harness.spec import ExperimentSpec
from repro.results.store import default_store

#: In-process memo: spec -> result.
_MEMO: Dict[ExperimentSpec, RunResult] = {}

_UNSET = object()


def clear_cache() -> None:
    """Drop the in-process memo (the on-disk store is untouched)."""
    _MEMO.clear()


def run_spec(spec: ExperimentSpec, store=_UNSET) -> RunResult:
    """Run (or fetch from memo / store) one experiment spec.

    ``store`` defaults to the process-wide store (active only when
    ``REPRO_RESULTS_DIR`` is set); pass ``None`` to force disk off or a
    :class:`ResultStore` to use a specific directory.
    """
    hit = _MEMO.get(spec)
    if hit is not None:
        return hit
    if store is _UNSET:
        store = default_store()
    result = store.load(spec) if store is not None else None
    if result is None:
        result = spec.run()
        if store is not None:
            store.save(spec, result)
    _MEMO[spec] = result
    return result


def prefetch(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    store=_UNSET,
    timeout: Optional[float] = None,
) -> Dict[ExperimentSpec, RunResult]:
    """Warm the memo for ``specs``, in parallel when ``jobs > 1``.

    After this returns, the table/figure functions below render the
    covered artifacts without running any simulation.  Every cell runs
    even when others fail: each success warms the memo (and the store),
    each failure is persisted as a
    :class:`~repro.results.store.RunFailure`, and if any cell failed
    :class:`~repro.harness.runner.ExperimentError` is raised at the
    end, carrying the failures.
    """
    from repro.harness import runner

    if store is _UNSET:
        store = default_store()
    missing = [s for s in dict.fromkeys(specs) if s not in _MEMO]
    failures = {}
    for spec, outcome in runner.run_specs(missing, jobs, store, timeout).items():
        if isinstance(outcome, RunResult):
            _MEMO[spec] = outcome
        else:
            failures[spec] = outcome
    if failures:
        raise runner.ExperimentError(
            f"{len(failures)} of {len(missing)} experiments failed: "
            + "; ".join(
                f"{spec.label()}: {f.kind}: {f.message}"
                for spec, f in failures.items()
            ),
            failures,
        )
    return {s: _MEMO[s] for s in specs}


# ---------------------------------------------------------------------------
# Artifact -> spec enumeration: the one list of each artifact's cells
# ---------------------------------------------------------------------------

#: Artifacts the spec enumeration (and ``python -m repro figures``) covers.
ARTIFACT_KEYS = ("t1", "t2", "t3", "f4", "f5", "f6", "f7", "f8", "f9", "sweep")

#: Figures 4-9: machine kind and the protocols in the order the figure
#: shows them.  "sc", the normalization baseline, is always simulated.
_FIGURES = {
    "f4": ("default", ("erc", "lrc")),
    "f5": ("default", ("lrc", "erc", "sc")),
    "f6": ("default", ("lrc", "lrc-ext", "tardis")),
    "f7": ("default", ("lrc", "lrc-ext", "tardis", "sc")),
    "f8": ("future", ("erc", "lrc", "lrc-ext", "tardis")),
    "f9": ("future", ("lrc", "lrc-ext", "tardis", "erc", "sc")),
}

#: Section 4.3 sweep variants: (label, SystemConfig overrides).
SWEEP_VARIANTS = [
    ("baseline", {}),
    ("2x memory latency", {"mem_setup": 40}),
    ("2x bandwidth", {"mem_bw": 4.0, "net_bw": 4.0, "bus_bw": 4.0}),
    ("64-byte lines", {"line_size": 64}),
    ("256-byte lines", {"line_size": 256}),
]

#: The "sweep" artifact runs mp3d on at most this many processors.
_SWEEP_APP = "mp3d"
_SWEEP_MAX_PROCS = 16


def _sweep_specs(app: str, n_procs: int, small: bool) -> List[ExperimentSpec]:
    """An erc and an lrc spec per sweep variant, in variant order."""
    return [
        ExperimentSpec(app, proto, n_procs=n_procs, small=small, overrides=over)
        for _label, over in SWEEP_VARIANTS
        for proto in ("erc", "lrc")
    ]


def artifact_specs(
    artifact: str, n_procs: int = 64, small: bool = False
) -> List[ExperimentSpec]:
    """The simulation specs needed to render one artifact."""
    if artifact not in ARTIFACT_KEYS:
        raise ValueError(f"unknown artifact {artifact!r} (expected {ARTIFACT_KEYS})")
    if artifact == "t1":
        return []
    if artifact == "t2":
        return [
            ExperimentSpec(app, "erc", n_procs=n_procs, classify=True, small=small)
            for app in APP_ORDER
        ]
    if artifact == "t3":
        return [
            ExperimentSpec(app, proto, n_procs=n_procs, small=small)
            for app in APP_ORDER
            for proto in ("erc", "lrc", "lrc-ext", "tardis")
        ]
    if artifact == "sweep":
        return _sweep_specs(_SWEEP_APP, min(n_procs, _SWEEP_MAX_PROCS), small)
    from repro.protocols import all_names

    kind, shown = _FIGURES[artifact]
    return [
        ExperimentSpec(app, proto, kind=kind, n_procs=n_procs, small=small)
        for app in APP_ORDER
        for proto in all_names()
        if proto == "sc" or proto in shown
    ]


def all_artifact_specs(
    artifacts: Optional[Iterable[str]] = None,
    n_procs: int = 64,
    small: bool = False,
) -> List[ExperimentSpec]:
    """Deduplicated union of the specs behind the given artifacts."""
    out: Dict[ExperimentSpec, None] = {}
    for artifact in artifacts if artifacts is not None else ARTIFACT_KEYS:
        for spec in artifact_specs(artifact, n_procs=n_procs, small=small):
            out[spec] = None
    return list(out)


def _cells(
    artifact: str, n_procs: int, small: bool
) -> Dict[Tuple[str, str], RunResult]:
    """An artifact's results, keyed by (app, protocol)."""
    return {
        (s.app, s.protocol): run_spec(s)
        for s in artifact_specs(artifact, n_procs=n_procs, small=small)
    }


# ---------------------------------------------------------------------------
# Table 1 — system parameters
# ---------------------------------------------------------------------------

def table1() -> str:
    """Render Table 1 and the Section 3 worked example."""
    c = SystemConfig.paper()
    rows = [
        ("Cache line size", f"{c.line_size} bytes"),
        ("Cache size", f"{c.cache_size // 1024} Kbytes direct-mapped"),
        ("Memory setup time", f"{c.mem_setup} cycles"),
        ("Memory bandwidth", f"{c.mem_bw:g} bytes/cycle"),
        ("Bus bandwidth", f"{c.bus_bw:g} bytes/cycle"),
        ("Network bandwidth", f"{c.net_bw:g} bytes/cycle (bidirectional)"),
        ("Switch node latency", f"{c.switch_latency} cycles"),
        ("Wire latency", f"{c.wire_latency} cycle"),
        ("Write Notice Processing", f"{c.notice_cost} cycles"),
        ("LRC Directory access cost", f"{c.lrc_dir_cost} cycles"),
        ("ERC Directory access cost", f"{c.erc_dir_cost} cycles"),
    ]
    width = max(len(r[0]) for r in rows) + 2
    lines = ["Table 1: Default values for system parameters", "-" * 60]
    lines += [f"{k:<{width}}{v}" for k, v in rows]
    # The worked example: 10-hop fill = 272 cycles.
    src, dst = 0, 5 * 8 + 5
    lines.append("-" * 60)
    lines.append(
        f"10-hop uncontended cache fill: {c.transit(src, dst, 0)} + "
        f"{c.memory_time(c.line_size)} + {c.transit(dst, src, c.line_size)} + "
        f"{c.bus_time(c.line_size)} = {c.line_fill_cost(src, dst)} cycles"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2 — miss classification under eager release consistency
# ---------------------------------------------------------------------------

def table2_miss_classification(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data = {
        app: r.classifier.percentages()
        for (app, _proto), r in _cells("t2", n_procs, small).items()
    }
    lines = [
        "Table 2: Classification of misses under eager release consistency",
        f"{'Application':<12} {'Cold':>7} {'True':>7} {'False':>7} {'Evict':>7} {'Write':>7}",
    ]
    for app in APP_ORDER:
        p = data[app]
        lines.append(
            f"{APP_LABELS[app]:<12} "
            f"{p['cold']:>6.1f}% {p['true']:>6.1f}% {p['false']:>6.1f}% "
            f"{p['eviction']:>6.1f}% {p['write']:>6.1f}%"
        )
    return data, "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3 — miss rates under eager / lazy / lazy-ext
# ---------------------------------------------------------------------------

def table3_miss_rates(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data: Dict[str, Dict[str, float]] = {}
    for (app, proto), r in _cells("t3", n_procs, small).items():
        data.setdefault(app, {})[proto] = r.miss_rate
    lines = [
        "Table 3: Miss rates for the implementations of release consistency",
        f"{'Application':<12} {'Eager':>8} {'Lazy':>8} {'Lazy-ext':>9} {'Tardis':>8}",
    ]
    for app in APP_ORDER:
        d = data[app]
        lines.append(
            f"{APP_LABELS[app]:<12} {d['erc']*100:>7.2f}% {d['lrc']*100:>7.2f}% "
            f"{d['lrc-ext']*100:>8.2f}% {d['tardis']*100:>7.2f}%"
        )
    return data, "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures 4/6/8 — normalized execution time
# ---------------------------------------------------------------------------

def _normalized_times(
    artifact: str, n_procs: int, small: bool
) -> Tuple[Dict[str, Dict[str, float]], Tuple[str, ...]]:
    cells = _cells(artifact, n_procs, small)
    protocols = _FIGURES[artifact][1]
    data: Dict[str, Dict[str, float]] = {}
    for app in APP_ORDER:
        base = cells[app, "sc"].exec_time
        data[app] = {"sc": 1.0}
        for proto in protocols:
            data[app][proto] = cells[app, proto].exec_time / base
    return data, protocols


def _render_times(title: str, data: Dict, protocols: Sequence[str]) -> str:
    lines = [title, f"{'Application':<12}" + "".join(f"{p:>10}" for p in protocols)]
    for app in APP_ORDER:
        lines.append(
            f"{APP_LABELS[app]:<12}"
            + "".join(f"{data[app][p]:>10.3f}" for p in protocols)
        )
    lines.append("(execution time normalized to the sequentially consistent protocol)")
    return "\n".join(lines)


def figure4_normalized_time(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _normalized_times("f4", n_procs, small)
    return data, _render_times(
        f"Figure 4: Normalized execution time, lazy vs eager RC ({n_procs} processors)",
        data,
        protos,
    )


def figure6_lazier(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _normalized_times("f6", n_procs, small)
    return data, _render_times(
        f"Figure 6: Normalized execution time, lazy vs lazy-extended vs tardis "
        f"({n_procs} processors)",
        data,
        protos,
    )


def figure8_future(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _normalized_times("f8", n_procs, small)
    return data, _render_times(
        "Figure 8: Performance trends on the future machine "
        "(40-cycle setup, 4 B/cycle, 256-byte lines)",
        data,
        protos,
    )


# ---------------------------------------------------------------------------
# Figures 5/7/9 — overhead breakdowns
# ---------------------------------------------------------------------------

def _breakdowns(
    artifact: str, n_procs: int, small: bool
) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], Tuple[str, ...]]:
    cells = _cells(artifact, n_procs, small)
    protocols = _FIGURES[artifact][1]
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app in APP_ORDER:
        base = cells[app, "sc"].stats.total_cycles
        data[app] = {
            proto: cells[app, proto].stats.breakdown_normalized(base)
            for proto in protocols
        }
    return data, protocols


def _render_breakdown(title: str, data: Dict, protocols: Sequence[str]) -> str:
    lines = [
        title,
        f"{'Application':<12}{'proto':>9}{'cpu':>8}{'read':>8}{'write':>8}{'sync':>8}{'total':>8}",
    ]
    for app in APP_ORDER:
        for proto in protocols:
            b = data[app][proto]
            total = sum(b.values())
            lines.append(
                f"{APP_LABELS[app]:<12}{proto:>9}"
                f"{b['cpu']:>8.3f}{b['read']:>8.3f}{b['write']:>8.3f}{b['sync']:>8.3f}{total:>8.3f}"
            )
    lines.append("(aggregate cycles per bucket as a fraction of the SC protocol's total)")
    return "\n".join(lines)


def figure5_breakdown(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _breakdowns("f5", n_procs, small)
    return data, _render_breakdown(
        f"Figure 5: Overhead analysis, lazy / eager / SC ({n_procs} processors)",
        data,
        protos,
    )


def figure7_lazier_breakdown(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _breakdowns("f7", n_procs, small)
    return data, _render_breakdown(
        f"Figure 7: Overhead analysis, lazy / lazy-extended / SC ({n_procs} processors)",
        data,
        protos,
    )


def figure9_future_breakdown(n_procs: int = 64, small: bool = False) -> Tuple[Dict, str]:
    data, protos = _breakdowns("f9", n_procs, small)
    return data, _render_breakdown(
        "Figure 9: Overhead analysis on the future machine "
        "(lazy / lazier / eager / SC)",
        data,
        protos,
    )


# ---------------------------------------------------------------------------
# Section 4.3 text — latency / bandwidth / line-size sensitivity
# ---------------------------------------------------------------------------

def sensitivity_sweep(
    app: str = _SWEEP_APP,
    n_procs: int = _SWEEP_MAX_PROCS,
    small: bool = False,
) -> Tuple[List[Dict], str]:
    """The text's parameter sweeps: vary memory latency, bandwidth and
    cache line size; report the lazy/eager execution-time ratio."""
    results = [run_spec(s) for s in _sweep_specs(app, n_procs, small)]
    rows = [
        {
            "variant": label,
            "ratio": lrc.exec_time / erc.exec_time,
            "erc": erc.exec_time,
            "lrc": lrc.exec_time,
        }
        for (label, _over), erc, lrc in zip(
            SWEEP_VARIANTS, results[0::2], results[1::2]
        )
    ]
    lines = [
        f"Sensitivity sweep ({APP_LABELS[app]}, {n_procs} processors): lazy/eager time ratio",
        f"{'variant':<20}{'lazy/eager':>12}",
    ]
    for r in rows:
        lines.append(f"{r['variant']:<20}{r['ratio']:>12.3f}")
    return rows, "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendering any artifact by key
# ---------------------------------------------------------------------------

_ARTIFACT_FUNCS = {
    "t2": table2_miss_classification,
    "t3": table3_miss_rates,
    "f4": figure4_normalized_time,
    "f5": figure5_breakdown,
    "f6": figure6_lazier,
    "f7": figure7_lazier_breakdown,
    "f8": figure8_future,
    "f9": figure9_future_breakdown,
}


def render_artifact(artifact: str, n_procs: int = 64, small: bool = False) -> str:
    """The text block of one artifact in :data:`ARTIFACT_KEYS`, computed
    from exactly the cells :func:`artifact_specs` lists for it."""
    if artifact == "t1":
        return table1()
    if artifact == "sweep":
        return sensitivity_sweep(
            _SWEEP_APP, min(n_procs, _SWEEP_MAX_PROCS), small
        )[1]
    return _ARTIFACT_FUNCS[artifact](n_procs, small)[1]
