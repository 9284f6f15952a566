"""Command-line interface: ``python -m repro``.

    python -m repro list
    python -m repro run gauss --protocol lrc --procs 16 --small
    python -m repro compare mp3d --procs 16
    python -m repro figures --jobs 4 --procs 16 --small
    python -m repro figures --only t3 f4 --jobs 4
    python -m repro trace locusroute --protocol sc --procs 4 --small
    python -m repro fuzz --seed 0 --iters 50 --procs 8
    python -m repro fuzz --iters 50 --jitter
    python -m repro fuzz --iters 30 --mode service

``figures`` regenerates the paper's tables and figures, fanning the
underlying simulations out over ``--jobs`` worker processes and caching
every result in an on-disk store (``.repro-results/`` by default), so a
repeated invocation renders from disk without simulating anything.
Failed experiments are persisted as structured failure records and
summarized at the end instead of aborting the sweep.

``fuzz --jitter`` runs the differential conformance campaign with
seeded, per-channel-FIFO-preserving delivery jitter (DESIGN.md §10):
delivery stays lossless and in order, so the oracle comparison is
unchanged while message timing varies; the delayed-message count is
reported.

``trace`` runs one simulation with the protocol event tracer and the
coherence-invariant checker enabled; on a violation it prints the event
window around the failure.  ``run``/``compare``/``figures`` accept
``--check-invariants`` (or ``REPRO_CHECK_INVARIANTS=1``) to validate
every simulation they perform — checking is pure observation, so cycle
counts and result-store fingerprints are unchanged.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro.apps import APPS
from repro.harness.experiments import (
    ARTIFACT_KEYS,
    all_artifact_specs,
    prefetch,
    render_artifact,
    run_spec,
)
from repro.harness.presets import APP_PRESETS, APP_PRESETS_SMALL
from repro.harness.spec import ExperimentSpec
from repro.protocols import REGISTRY, all_names
from repro.results.store import DEFAULT_ROOT, ResultStore
from repro.stats.report import format_table
from repro.trace import LEVELS, Tracer


def _campaign_journal(store_root, kind: str, params: dict, resume: bool):
    """The write-ahead journal for one CLI campaign.

    Campaigns always journal (so any run can be resumed after a crash);
    ``--resume`` decides whether existing outcomes are honored.  Without
    it the journal is truncated first — a fresh run, not a continuation.
    """
    from repro.results.journal import CampaignJournal

    if not resume:
        CampaignJournal.for_campaign(store_root, kind, params).clear()
    return CampaignJournal.for_campaign(store_root, kind, params)


def _cmd_list(_args) -> int:
    print("applications:")
    for name in sorted(APPS):
        print(f"  {name:12s} presets: {APP_PRESETS[name]}")
    print("protocols:", ", ".join(all_names()))
    return 0


def _cmd_run(args) -> int:
    spec = ExperimentSpec(
        args.app,
        args.protocol,
        n_procs=args.procs,
        small=args.small,
        check_invariants=args.check_invariants,
    )
    r = run_spec(spec)
    s = r.summary()
    rows = [[k, v if not isinstance(v, float) else f"{v:.4f}"] for k, v in s.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app} / {args.protocol} / {args.procs} procs"))
    return 0


def _cmd_compare(args) -> int:
    rows = []
    base = None
    for proto in all_names():
        spec = ExperimentSpec(
            args.app,
            proto,
            n_procs=args.procs,
            small=args.small,
            check_invariants=args.check_invariants,
        )
        r = run_spec(spec)
        if base is None:
            base = r.exec_time
        b = r.breakdown()
        rows.append(
            [
                proto,
                r.exec_time,
                f"{r.exec_time / base:.3f}",
                f"{r.miss_rate * 100:.2f}%",
                b["read"],
                b["write"],
                b["sync"],
            ]
        )
    print(
        format_table(
            ["protocol", "cycles", "norm", "miss", "read", "write", "sync"],
            rows,
            title=f"{args.app}, {args.procs} processors",
        )
    )
    return 0


def _cmd_figures(args) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(message)s", stream=sys.stderr
    )
    n, small = args.procs, args.small
    wanted = args.only or list(ARTIFACT_KEYS)
    store = None if args.no_store else ResultStore(args.store_dir)

    t0 = time.monotonic()
    specs = all_artifact_specs(wanted, n_procs=n, small=small)
    if args.check_invariants:
        specs = [s.with_(check_invariants=True) for s in specs]

    # Campaign journal (cells are spec fingerprints): a crashed sweep
    # resumed with --resume re-reports journaled failures without
    # re-running them, and journaled successes load straight from the
    # store.  Cells that were in flight when the sweep died re-run.
    journal = None
    failures = {}
    todo = specs
    if store is not None:
        from repro.results.store import RunFailure

        journal = _campaign_journal(
            store.root, "figures",
            {"artifacts": list(wanted), "procs": n, "small": small,
             "check_invariants": bool(args.check_invariants)},
            args.resume,
        )
        completed = journal.completed()
        todo = []
        for spec in specs:
            entry = completed.get(spec.fingerprint())
            if entry is not None and entry["op"] == "fail":
                failures[spec] = RunFailure(
                    kind=entry["data"]["kind"],
                    message=entry["data"]["message"],
                    traceback="",
                    fingerprint=spec.fingerprint(),
                    spec=spec.to_dict(),
                )
            else:
                todo.append(spec)
        if len(todo) < len(specs):
            print(
                f"repro figures: resume: {len(specs) - len(todo)} of "
                f"{len(specs)} cells journaled as failed, skipping them",
                file=sys.stderr,
            )
        for spec in todo:
            if completed.get(spec.fingerprint()) is None:
                journal.start(spec.fingerprint())

    new_failures = {}
    prefetch(
        todo, jobs=args.jobs, store=store, timeout=args.timeout,
        on_failure="record", failures_out=new_failures,
    )
    if journal is not None:
        for spec in todo:
            fp = spec.fingerprint()
            entry = completed.get(fp)
            if spec in new_failures:
                f = new_failures[spec]
                journal.fail(fp, f.kind, f.message)
            elif entry is None or entry["op"] != "done":
                journal.done(fp)
    failures.update(new_failures)
    sim_elapsed = time.monotonic() - t0
    if failures:
        print(
            f"repro figures: {len(failures)} of {len(specs)} experiments failed"
            + (" (records persisted to the store):" if store else ":"),
            file=sys.stderr,
        )
        for spec, failure in failures.items():
            print(f"  {spec.label()}: {failure.kind}: {failure.message}",
                  file=sys.stderr)
        return 1

    for key in wanted:
        print(render_artifact(key, n, small))
        print("=" * 72)
    print(
        f"{len(specs)} experiments ready in {sim_elapsed:.1f}s "
        f"({args.jobs} jobs"
        + (f", store: {store.root})" if store else ", store off)"),
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args) -> int:
    from collections import Counter

    from repro.core.machine import Machine
    from repro.harness.presets import bench_config
    from repro.trace import InvariantViolation

    cfg = bench_config(n_procs=args.procs)
    machine = Machine(
        cfg,
        protocol=args.protocol,
        trace=True,
        check_invariants=not args.no_check,
        trace_capacity=args.capacity,
        check_level=args.check_level,
    )
    from repro.program.stream import recorded_stream

    params = (APP_PRESETS_SMALL if args.small else APP_PRESETS)[args.app]
    stream = recorded_stream(args.app, params, cfg)
    tracer = machine.tracer
    try:
        result = machine.replay(stream)
    except InvariantViolation as e:
        print(f"INVARIANT VIOLATION: {e}", file=sys.stderr)
        if e.seq is not None:
            print(
                f"\nevent window (+/- {args.window} around seq {e.seq}):",
                file=sys.stderr,
            )
            for ev in tracer.window(e.seq, before=args.window, after=args.window):
                print(Tracer.format_event(ev), file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                n = tracer.to_jsonl(f)
            print(f"\n{n} buffered events written to {args.out}", file=sys.stderr)
        return 1
    counts = Counter(ev[2] for ev in tracer.buf)
    rows = [[k, counts[k]] for k in sorted(counts)]
    rows.append(["(buffered/emitted)", f"{len(tracer)}/{tracer.emitted}"])
    print(
        format_table(
            ["event kind", "count"],
            rows,
            title=(
                f"{args.app} / {args.protocol} / {args.procs} procs: "
                f"{result.exec_time} cycles, invariants "
                + ("not checked" if args.no_check else "ok")
            ),
        )
    )
    if args.out:
        with open(args.out, "w") as f:
            n = tracer.to_jsonl(f)
        print(f"{n} events written to {args.out}")
    return 0


def _format_traffic(traffic: dict) -> str:
    return ", ".join(f"{k}={traffic.get(k, 0)}" for k in sorted(traffic))


def _cmd_fuzz(args) -> int:
    from repro.conformance import fuzz_run, write_reproducers
    from repro.conformance.fuzz import replay_reproducer

    say = lambda s: print(s, file=sys.stderr)
    if args.replay:
        return replay_reproducer(args.replay, window=args.window, log=say)
    protocols = tuple(args.protocols)
    journal = _campaign_journal(
        args.store_dir, "fuzz",
        {"seed": args.seed, "iters": args.iters, "procs": args.procs,
         "n_ops": args.n_ops, "protocols": list(protocols),
         "mode": args.mode, "jitter": args.jitter},
        args.resume,
    )
    summary = fuzz_run(
        seed=args.seed,
        iters=args.iters,
        n_procs=args.procs,
        n_ops=args.n_ops,
        protocols=protocols,
        mode=args.mode,
        do_minimize=args.minimize,
        jobs=args.jobs,
        window=args.window,
        jitter=args.jitter,
        log=say,
        journal=journal,
    )
    failures = summary["failures"]
    if args.jitter:
        say("jitter: " + _format_traffic(summary.get("traffic", {})))
    if not failures:
        print(
            f"fuzz: {args.iters} programs x {len(protocols)} protocols "
            f"({', '.join(protocols)}), {args.procs} procs: all clean"
            + (" under jitter" if args.jitter else "")
        )
        return 0
    if args.out:
        write_reproducers(summary, args.out)
        say(f"reproducers written to {args.out}")
    for f in failures:
        print(f"FAIL seed={f['seed']} {f['protocol']} {f['reason']}: {f['message']}")
        for line in f.get("trace_window") or []:
            print(f"    {line}")
    print(f"fuzz: {len(failures)} failure(s) in {args.iters} iterations")
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list applications and protocols")

    check_help = (
        "run the coherence-invariant checker during every simulation "
        "(pure observation: cycle counts and fingerprints are unchanged; "
        "cached results are served without re-checking)"
    )
    p_run = sub.add_parser("run", help="run one app under one protocol")
    p_run.add_argument("app", choices=sorted(APPS))
    p_run.add_argument("--protocol", default="lrc", choices=sorted(REGISTRY))
    p_run.add_argument("--procs", type=int, default=16)
    p_run.add_argument("--small", action="store_true")
    p_run.add_argument("--check-invariants", action="store_true", help=check_help)

    p_cmp = sub.add_parser("compare", help="run one app under all protocols")
    p_cmp.add_argument("app", choices=sorted(APPS))
    p_cmp.add_argument("--procs", type=int, default=16)
    p_cmp.add_argument("--small", action="store_true")
    p_cmp.add_argument("--check-invariants", action="store_true", help=check_help)

    p_fig = sub.add_parser(
        "figures",
        help="regenerate paper tables/figures (parallel, with a result store)",
    )
    p_fig.add_argument(
        "--only", nargs="*", choices=ARTIFACT_KEYS, metavar="ARTIFACT",
        help=f"subset of artifacts ({', '.join(ARTIFACT_KEYS)})",
    )
    p_fig.add_argument("--procs", type=int, default=16)
    p_fig.add_argument("--small", action="store_true")
    p_fig.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the simulation fan-out (default 1)",
    )
    p_fig.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help=f"result-store directory (default {DEFAULT_ROOT})",
    )
    p_fig.add_argument(
        "--no-store", action="store_true",
        help="do not read or write the on-disk result store",
    )
    p_fig.add_argument(
        "--timeout", type=float, default=None,
        help="per-experiment timeout in seconds (one retry on expiry)",
    )
    p_fig.add_argument("--check-invariants", action="store_true", help=check_help)
    resume_help = (
        "continue an interrupted campaign from its write-ahead journal: "
        "cells with a journaled outcome are skipped (their data reused "
        "verbatim — artifacts come out bit-identical), cells that were "
        "in flight re-run; without this flag the journal is truncated "
        "and the campaign starts fresh"
    )
    p_fig.add_argument("--resume", action="store_true", help=resume_help)

    p_tr = sub.add_parser(
        "trace",
        help="run one simulation with event tracing + invariant checking; "
        "on a violation, print the event window around it",
    )
    p_tr.add_argument("app", choices=sorted(APPS))
    p_tr.add_argument("--protocol", default="lrc", choices=sorted(REGISTRY))
    p_tr.add_argument("--procs", type=int, default=4)
    p_tr.add_argument("--small", action="store_true")
    p_tr.add_argument(
        "--check-level", default="sync", choices=LEVELS,
        help="invariant checkpoint density (default sync)",
    )
    p_tr.add_argument(
        "--no-check", action="store_true",
        help="trace only, without the invariant checker",
    )
    p_tr.add_argument(
        "--window", type=int, default=25,
        help="events to print on each side of a violation (default 25)",
    )
    p_tr.add_argument(
        "--capacity", type=int, default=1 << 16,
        help="event ring-buffer size (default 65536)",
    )
    p_tr.add_argument(
        "--out", default=None, metavar="FILE",
        help="also export the buffered events as JSON Lines",
    )

    p_fz = sub.add_parser(
        "fuzz",
        help="randomized-program conformance fuzzing: generated DRF "
        "programs under every protocol, checked against a sequential "
        "oracle; failures are minimized to small reproducers",
    )
    p_fz.add_argument("--seed", type=int, default=0)
    p_fz.add_argument("--iters", type=int, default=50)
    p_fz.add_argument("--procs", type=int, default=8)
    p_fz.add_argument("--n-ops", type=int, default=120,
                      help="target ops per processor (default 120)")
    p_fz.add_argument(
        "--protocols", nargs="*", default=list(all_names()),
        choices=sorted(REGISTRY), metavar="PROTO",
    )
    from repro.conformance.generator import MODES as FUZZ_MODES

    p_fz.add_argument(
        "--mode", default="auto", choices=FUZZ_MODES,
        help="program-generator mode (default auto; 'service' favors "
        "pub/sub fan-out and zipf-skewed hot-lock episodes)",
    )
    p_fz.add_argument(
        "--minimize", action=argparse.BooleanOptionalAction, default=True,
        help="delta-debug failing programs to minimal reproducers",
    )
    p_fz.add_argument(
        "--jobs", type=int, default=1,
        help="run iterations on this many worker processes (default 1); "
        "the report does not depend on it",
    )
    p_fz.add_argument(
        "--window", type=int, default=12,
        help="trace events to print around a violation (default 12)",
    )
    p_fz.add_argument(
        "--out", default=None, metavar="FILE",
        help="write failing programs + minimized reproducers as JSON",
    )
    p_fz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run the reproducers in a fuzz JSON report instead of fuzzing",
    )
    p_fz.add_argument(
        "--jitter", action="store_true",
        help="delay messages by seeded, per-channel-FIFO-preserving "
        "amounts (seeded by each program's own seed)",
    )
    p_fz.add_argument(
        "--store-dir", default=DEFAULT_ROOT,
        help="directory holding the campaign journal "
        f"(default {DEFAULT_ROOT})",
    )
    p_fz.add_argument("--resume", action="store_true", help=resume_help)

    args = ap.parse_args(argv)
    if args.cmd == "list":
        return _cmd_list(args)
    if args.cmd == "run":
        return _cmd_run(args)
    if args.cmd == "figures":
        return _cmd_figures(args)
    if args.cmd == "trace":
        return _cmd_trace(args)
    if args.cmd == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
