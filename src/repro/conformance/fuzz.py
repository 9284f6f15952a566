"""Differential conformance fuzzing across the four protocols.

One *iteration* generates a DRF program (pure function of the seed),
runs the sequential oracle, then executes the program under each
protocol on a small-cache machine with the invariant checker and the
value model enabled.  A protocol run fails if:

* the value model observes an impossible read (:class:`ConformanceViolation`),
* the invariant checker fires, the machine deadlocks, or the run
  exceeds the cycle ceiling,
* the final memory image disagrees with the oracle (RC == SC for DRF
  programs, so *every* protocol must produce the oracle's image),
* the per-processor operation counts disagree with the oracle (an op
  was lost or double-counted), or
* protocol-structural counters are impossible for the protocol family
  (a write-back under write-through LRC, an acquire-time invalidation
  under eager RC, ...).

On failure the harness re-runs the failing protocol with the tracer
attached to render a violation-anchored event window, delta-debugs the
program to a minimal reproducer (:mod:`repro.conformance.minimize`),
and serializes everything as JSON.

A campaign (:func:`fuzz_run`) maps :func:`fuzz_iteration` over its
seeds, in-process or over a pool of worker processes (``jobs > 1``);
each iteration is a pure function of its seed, so checking, diagnosis
and minimization run in the worker and the campaign's summary does not
depend on ``jobs``.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.conformance.generator import generate
from repro.conformance.minimize import minimize
from repro.conformance.oracle import COUNT_KEYS, OracleResult, interpret, token_str
from repro.conformance.program import ProgramSpec
from repro.conformance.shadow import ConformanceViolation
from repro.harness.runner import ExperimentError, WorkerDied, process_map
from repro.protocols import all_names

PROTOCOLS_UNDER_TEST = all_names()

#: Cache size for fuzz machines: small enough that conformance programs
#: see real capacity/conflict evictions, still a power-of-two set count.
FUZZ_CACHE = 2048

#: Per-run cycle ceiling — a protocol bug that livelocks (lost wakeup,
#: re-fetch loop) fails the run instead of hanging the fuzzer.
FUZZ_MAX_CYCLES = 50_000_000


@dataclass
class FuzzFailure:
    """One protocol's failure on one generated program."""

    iteration: int
    seed: int
    protocol: str
    reason: str           # violation | invariant | stall | deadlock | oracle | structural
    message: str
    program: dict
    minimized: Optional[dict] = None
    trace_window: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "seed": self.seed,
            "protocol": self.protocol,
            "reason": self.reason,
            "message": self.message,
            "program": self.program,
            "minimized": self.minimized,
            "trace_window": self.trace_window,
        }


def fuzz_config(n_procs: int, seed: int):
    from repro.harness.presets import bench_config

    return bench_config(n_procs=n_procs, cache_size=FUZZ_CACHE, seed=seed)


def build_machine(
    spec: ProgramSpec, protocol: str, trace: bool = False, jitter: bool = False
):
    """A fresh fuzz machine + context-built app for one program under one
    protocol.

    ``jitter`` delays messages on a schedule seeded by the program's own
    seed (:mod:`repro.network.jitter`), so a failure found under jitter
    replays identically.  The app is built against its own recording
    context (not the machine): the machine replays the app's recorded
    stream, whose allocation log rebuilds the app's address space, and
    :func:`verify_run` reads the app's segment and program spec."""
    from repro.apps import APPS
    from repro.apps.common import AppContext
    from repro.core.machine import Machine

    cfg = fuzz_config(spec.n_procs, spec.seed)
    machine = Machine(
        cfg,
        protocol=protocol,
        max_cycles=FUZZ_MAX_CYCLES,
        trace=trace,
        check_invariants=True,
        value_model=True,
        jitter_seed=spec.seed if jitter else None,
    )
    app = APPS["fuzz"](AppContext(cfg), program=spec)
    return machine, app


#: MessageStats counters summed into a fuzz campaign's traffic summary
#: (nonzero delays prove the jitter actually fired).
TRAFFIC_KEYS = ("delays_injected",)


def _accumulate_traffic(traffic_out, stats) -> None:
    for key in TRAFFIC_KEYS:
        traffic_out[key] = traffic_out.get(key, 0) + getattr(stats, key)


def structural_errors(machine) -> List[str]:
    """Counter values impossible for the machine's protocol family."""
    s = machine.stats
    name = machine.protocol_name
    errs = []
    if machine.protocol.timestamp_coherence:
        # Tardis has no sharer lists: notices, eager invalidations,
        # writebacks and deferral are all structurally impossible.
        if s.writebacks:
            errs.append(f"{name} performed {s.writebacks} dirty writebacks")
        if s.eager_invalidations:
            errs.append(f"{name} sent {s.eager_invalidations} eager invalidations")
        if s.notices_sent:
            errs.append(f"{name} sent {s.notices_sent} write notices")
        if s.deferred_notices:
            errs.append(f"{name} deferred {s.deferred_notices} write notices")
        if s.acquire_invalidations != s.lease_expirations:
            errs.append(
                f"{name} acquire invalidations ({s.acquire_invalidations}) "
                f"!= lease expirations ({s.lease_expirations})"
            )
        return errs
    if s.ts_bumps:
        errs.append(f"{name} bumped {s.ts_bumps} write timestamps")
    if s.lease_expirations:
        errs.append(f"{name} expired {s.lease_expirations} read leases")
    if machine.protocol.write_through:
        if s.writebacks:
            errs.append(f"{name} performed {s.writebacks} dirty writebacks")
        if s.eager_invalidations:
            errs.append(f"{name} sent {s.eager_invalidations} eager invalidations")
        if name != "lrc-ext" and s.deferred_notices:
            errs.append(f"{name} deferred {s.deferred_notices} write notices")
    else:
        if s.write_throughs:
            errs.append(f"{name} issued {s.write_throughs} write-throughs")
        if s.acquire_invalidations:
            errs.append(
                f"{name} invalidated {s.acquire_invalidations} lines at acquires"
            )
        if s.deferred_notices:
            errs.append(f"{name} deferred {s.deferred_notices} write notices")
    return errs


def verify_run(machine, app, oracle: Optional[OracleResult] = None) -> None:
    """End-of-run oracle comparison; raises :class:`ConformanceViolation`.

    Called after a clean ``machine.run`` (the final global barrier has
    drained every buffer).  Checks final memory, the call-order shadow,
    per-processor op counts, and the structural counters.
    """
    spec = app.spec
    if oracle is None:
        oracle = interpret(spec)
    if not oracle.ok:
        raise RuntimeError(
            f"oracle rejected the program (generator/minimizer bug): "
            f"races={oracle.races[:3]} error={oracle.error}"
        )
    vm = machine.valmodel
    base_word = app.seg.base // 8
    errs: List[str] = []

    mem = vm.final_memory()
    for w in sorted(oracle.final):
        got = mem.get(base_word + w)
        want = oracle.final[w]
        if got != want:
            errs.append(
                f"final memory word {w}: machine {token_str(got)}, "
                f"oracle {token_str(want)}"
            )
            if len(errs) >= 8:
                break
    if not errs:
        # The call-order shadow must also match: a divergence here means
        # the simulator realized an hb-inconsistent schedule.
        for w in sorted(oracle.final):
            got = vm.shadow.get(base_word + w)
            want = oracle.final[w]
            if got != want:
                errs.append(
                    f"shadow word {w}: {token_str(got)} != oracle "
                    f"{token_str(want)} (schedule divergence)"
                )
                if len(errs) >= 8:
                    break

    for p, want in enumerate(oracle.counts):
        st = machine.stats.procs[p]
        got = {k: getattr(st, k) for k in COUNT_KEYS}
        if got != want:
            errs.append(f"p{p} op counts {got} != oracle {want}")

    errs.extend(structural_errors(machine))
    if errs:
        raise ConformanceViolation("; ".join(errs[:8]))


def run_one(
    spec: ProgramSpec,
    protocol: str,
    oracle: Optional[OracleResult] = None,
    trace: bool = False,
    jitter: bool = False,
    traffic_out: Optional[Dict[str, int]] = None,
):
    """Run one program under one protocol (optionally under jitter).

    Returns ``(reason, message, machine)`` on failure, or ``None`` on a
    clean, oracle-agreeing run.  The oracle comparison is unchanged
    under jitter: delivery stays exactly-once and per-channel FIFO, so
    committed ops, final memory, and the structural counters must all
    still match — only timing (and the delay count accumulated into
    ``traffic_out``) differs.
    """
    from repro.engine.simulator import DeadlockError
    from repro.engine.watchdog import SimulationStall
    from repro.program.stream import recorded_stream
    from repro.trace.invariants import InvariantViolation

    machine, app = build_machine(spec, protocol, trace=trace, jitter=jitter)
    try:
        try:
            # Streams are memoized by program content, so the protocol
            # runs of one iteration share a single record phase.
            machine.replay(recorded_stream("fuzz", {"program": spec}, machine.config))
        except ConformanceViolation as e:
            return ("violation", str(e), machine)
        except InvariantViolation as e:
            return ("invariant", str(e), machine)
        except SimulationStall as e:
            return ("stall", str(e), machine)
        except DeadlockError as e:
            return ("deadlock", str(e), machine)
        except RuntimeError as e:
            return ("deadlock", f"cycle ceiling: {e}", machine)
        try:
            verify_run(machine, app, oracle)
        except ConformanceViolation as e:
            return ("oracle", str(e), machine)
        return None
    finally:
        if traffic_out is not None:
            _accumulate_traffic(traffic_out, machine.fabric.stats)


def _trace_window(
    spec: ProgramSpec, protocol: str, window: int, jitter: bool = False
) -> List[str]:
    """Re-run a failing combination with the tracer for context lines."""
    failure = run_one(spec, protocol, trace=True, jitter=jitter)
    if failure is None:
        return []
    machine = failure[2]
    tracer = machine.tracer
    if tracer is None:
        return []
    violations = tracer.events(kind="violation")
    if violations:
        anchor = violations[0][0]
        lines = [
            tracer.format_event(e)
            for e in tracer.window(anchor, before=window, after=window)
        ]
    else:
        lines = [tracer.format_event(e) for e in tracer.tail(window)]
    return lines


def make_fail_predicate(
    protocol: str, jitter: bool = False
) -> Callable[[ProgramSpec], bool]:
    """The minimizer's test: does the protocol still fail this program?"""

    def fails(candidate: ProgramSpec) -> bool:
        return run_one(candidate, protocol, jitter=jitter) is not None

    return fails


def fuzz_iteration(
    iteration: int,
    seed: int,
    n_procs: int,
    n_ops: int,
    protocols: Sequence[str],
    mode: str = "auto",
    do_minimize: bool = True,
    window: int = 12,
    jitter: bool = False,
    traffic_out: Optional[Dict[str, int]] = None,
) -> List[FuzzFailure]:
    """Generate one program and run it under every protocol."""
    spec = generate(seed, n_procs, n_ops=n_ops, mode=mode)
    oracle = interpret(spec)
    if not oracle.ok:
        raise RuntimeError(
            f"seed {seed}: generator produced an invalid program: "
            f"races={oracle.races[:3]} error={oracle.error}"
        )
    failures = []
    for protocol in protocols:
        failure = run_one(
            spec, protocol, oracle, jitter=jitter, traffic_out=traffic_out
        )
        if failure is None:
            continue
        reason, message, _machine = failure
        f = FuzzFailure(
            iteration=iteration,
            seed=seed,
            protocol=protocol,
            reason=reason,
            message=message,
            program=spec.to_dict(),
            trace_window=_trace_window(spec, protocol, window, jitter=jitter),
        )
        if do_minimize:
            small = minimize(spec, make_fail_predicate(protocol, jitter=jitter))
            f.minimized = small.to_dict()
        failures.append(f)
    return failures


def _add_traffic(total: Dict[str, int], delta: Optional[Dict[str, int]]) -> None:
    # Older journals hold ``None`` for iterations cleared without jitter,
    # where every traffic counter is zero.
    for key in TRAFFIC_KEYS:
        total[key] = total.get(key, 0) + (delta or {}).get(key, 0)


def _iteration_outcome(job, **kwargs) -> Tuple[List[dict], Dict[str, int]]:
    """One campaign iteration as picklable data: ``(failures, traffic)``.

    ``job`` is ``(iteration, seed)``; the same function runs in-process
    and in pool workers, so the outcome cannot depend on ``jobs``."""
    iteration, seed = job
    traffic: Dict[str, int] = {k: 0 for k in TRAFFIC_KEYS}
    fs = fuzz_iteration(iteration, seed, traffic_out=traffic, **kwargs)
    return [f.to_dict() for f in fs], traffic


def fuzz_run(
    seed: int = 0,
    iters: int = 50,
    n_procs: int = 8,
    n_ops: int = 120,
    protocols: Sequence[str] = PROTOCOLS_UNDER_TEST,
    mode: str = "auto",
    do_minimize: bool = True,
    jobs: int = 1,
    window: int = 12,
    jitter: bool = False,
    log: Optional[Callable[[str], None]] = None,
    journal=None,
) -> Dict:
    """The ``repro fuzz`` campaign: ``iters`` programs, each under every
    protocol.  Returns a summary dict; ``summary["failures"]`` is empty
    iff every run agreed with the oracle.

    Every iteration runs through :func:`fuzz_iteration`, mapped in seed
    order by :func:`repro.harness.runner.process_map`: in-process for
    ``jobs == 1``, otherwise over ``jobs`` worker processes.  The parent
    journals, logs and sums the outcomes as they arrive in seed order,
    so the summary and the log lines do not depend on ``jobs``.  If a
    worker process dies, every other outcome is still journaled, and
    :class:`~repro.harness.runner.ExperimentError` then names the seeds
    left without one.

    ``jitter`` runs every program on the jitter fabric, seeded by the
    program's own seed; the oracle comparison is unchanged,
    ``summary["traffic"]`` counts the delayed messages, and
    ``summary["jitter"]`` records the mode so ``--replay`` reuses it.

    ``journal`` (a :class:`~repro.results.journal.CampaignJournal`)
    makes the campaign resumable: every iteration's outcome is written
    ahead under cell ``iter-<seed>``, and iterations already journaled
    ``done`` are skipped on a later invocation with their failures and
    traffic reused verbatim — the summary is bit-identical to an
    uninterrupted run, because each iteration is a pure function of its
    seed.
    """
    say = log or (lambda s: None)
    traffic: Dict[str, int] = {k: 0 for k in TRAFFIC_KEYS}
    seeds = [seed + i for i in range(iters)]
    failures: List[dict] = []

    prior: Dict[int, dict] = {}
    if journal is not None:
        for cell, entry in journal.completed().items():
            if cell.startswith("iter-"):
                prior[int(cell[len("iter-"):])] = entry["data"]
        prior = {s: d for s, d in prior.items() if s in set(seeds)}
        if prior:
            say(f"resume: {len(prior)}/{iters} iterations journaled; "
                f"running the remaining {iters - len(prior)}")
    remaining = [(i, s) for i, s in enumerate(seeds) if s not in prior]

    run = functools.partial(
        _iteration_outcome, n_procs=n_procs, n_ops=n_ops,
        protocols=protocols, mode=mode, do_minimize=do_minimize,
        window=window, jitter=jitter,
    )
    lost: List[int] = []
    with contextlib.closing(process_map(run, remaining, jobs)) as outcomes:
        for i, it_seed in enumerate(seeds):
            if it_seed in prior:
                data = prior[it_seed]
                failures.extend(data["failures"])
                _add_traffic(traffic, data.get("traffic"))
                continue
            cell = f"iter-{it_seed}"
            if journal is not None:
                journal.start(cell)
            outcome = next(outcomes)
            if isinstance(outcome, WorkerDied):
                lost.append(it_seed)
                continue
            fs, it_traffic = outcome
            _add_traffic(traffic, it_traffic)
            if journal is not None:
                journal.done(cell, {"failures": fs, "traffic": it_traffic})
            failures.extend(fs)
            for f in fs:
                mini = f["minimized"]
                say(
                    f"iteration {i} (seed {it_seed}) {f['protocol']}: "
                    f"{f['reason']}: {f['message']}"
                    + (
                        f" [minimized to "
                        f"{ProgramSpec.from_dict(mini).op_count()} ops]"
                        if mini else ""
                    )
                )
            if not fs and (i + 1) % 10 == 0:
                say(f"{i + 1}/{iters} iterations clean")
    if lost:
        raise ExperimentError(
            "a worker process died; no outcome for seed(s) "
            + ", ".join(map(str, lost))
        )
    return {
        "iters": iters,
        "protocols": list(protocols),
        "n_procs": n_procs,
        "jitter": jitter,
        "failures": failures,
        "traffic": traffic,
    }


def write_reproducers(summary: Dict, path: str) -> None:
    """Serialize a failing campaign's reproducers as JSON."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def replay_reproducer(
    path: str,
    window: int = 12,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Re-run every reproducer in a fuzz JSON report.

    Prefers the minimized program when present, and replays under the
    campaign's own delivery mode (``summary["jitter"]``).  Returns a
    process exit code: 1 if any reproducer still fails, 0 if all run
    clean (the bug was fixed since the report was written).
    """
    say = log or (lambda s: None)
    with open(path) as fh:
        summary = json.load(fh)
    failures = summary.get("failures", [])
    if not failures:
        say(f"{path}: no reproducers recorded")
        return 0
    jitter = bool(summary.get("jitter"))
    if jitter:
        say("replaying under jitter")
    still_failing = 0
    for i, f in enumerate(failures):
        spec = ProgramSpec.from_dict(f.get("minimized") or f["program"])
        oracle = interpret(spec)
        if not oracle.ok:
            say(f"reproducer {i}: oracle rejects the program: {oracle.error}")
            still_failing += 1
            continue
        outcome = run_one(spec, f["protocol"], oracle, jitter=jitter)
        if outcome is None:
            say(f"reproducer {i} ({f['protocol']}, {spec.op_count()} ops): clean")
            continue
        still_failing += 1
        reason, message, _machine = outcome
        say(f"reproducer {i} ({f['protocol']}, {spec.op_count()} ops) "
            f"STILL FAILS: {reason}: {message}")
        for line in _trace_window(spec, f["protocol"], window, jitter=jitter):
            say(f"    {line}")
    say(f"{still_failing}/{len(failures)} reproducers still failing")
    return 1 if still_failing else 0
