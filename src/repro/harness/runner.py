"""Parallel experiment engine.

Fans a list of :class:`ExperimentSpec` out across a pool of worker
*processes* (the simulator is pure Python, so threads would serialize on
the GIL).  Each worker runs one spec on a fresh machine and writes the
result into a shared on-disk :class:`ResultStore`; the parent collects
results back out of the store, which doubles as the IPC channel and
leaves every run warm for future sessions.

Fault model, per job:

* **store hit** — served without spawning a worker;
* **timeout** — the worker is *killed* (terminate, then SIGKILL if it
  lingers) and the job retried once;
* **crash** (non-zero exit, killed, or result missing from the store) —
  retried once;
* **structured failure** — the worker caught the exception itself
  (stall watchdog, retransmit cap, invariant violation, ...) and
  persisted a :class:`RunFailure` before exiting; deterministic, so it
  is *not* retried;
* a job that still has no result is persisted as a :class:`RunFailure`
  and then either raised as :class:`ExperimentError`
  (``on_failure="raise"``, the default) or logged and skipped
  (``on_failure="record"``), leaving the rest of the sweep to finish.

Workers run with the simulation stall watchdog enabled
(``REPRO_STALL_CYCLES``, default :data:`DEFAULT_STALL_CYCLES` unless the
caller pinned it), so a livelocked spec becomes a recorded failure, not
a hung pool.

Determinism: workers inherit nothing mutable — a spec is pure data and
``spec.run()`` is a pure function of it (fixed seeds, DESIGN.md §7) —
so parallel, serial and cached runs produce bit-identical cycle counts.
Progress is logged on the ``repro.runner`` logger.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing as mp
import os
import random
import signal
import tempfile
import threading
import time
import weakref
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.machine import RunResult
from repro.faults.watchdog import DEFAULT_STALL_CYCLES, ENV_STALL_CYCLES
from repro.harness.spec import ExperimentSpec
from repro.results.store import ResultStore, RunFailure

logger = logging.getLogger("repro.runner")

#: Poll interval of the supervisor loop, seconds.
_POLL = 0.02

#: Exit code a worker uses after persisting a structured RunFailure.
FAILURE_EXIT = 3

#: Grace period between terminate() and SIGKILL, seconds.
_KILL_GRACE = 5.0

#: Base delay of the jittered exponential backoff between retries of a
#: crashed/timed-out job, seconds (doubled per attempt, capped below).
RETRY_BACKOFF_BASE = 0.25

#: Ceiling on the retry backoff delay, seconds.
RETRY_BACKOFF_CAP = 5.0


def retry_delay(attempts: int, rng=random) -> float:
    """Jittered exponential backoff before retry number ``attempts``.

    A worker that crashed from a transient cause (OOM kill under
    memory pressure, a timeout on a loaded box) is *more* likely to
    crash again immediately; backing off — with jitter, so a whole
    pool's retries don't re-land in lockstep — gives the machine room.
    """
    base = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2 ** max(0, attempts - 1)))
    return base * (0.5 + rng.random())


# -- orphan reaping -----------------------------------------------------------
#
# Worker processes are daemonic, which covers a *clean* interpreter
# exit; a parent killed by SIGTERM (CI cancellation, a batch scheduler's
# preemption) would still strand CPU-burning orphans.  Every launched
# worker is registered here, and a process-wide atexit + SIGTERM hook
# reaps whatever is still alive.

_ORPHANS: "weakref.WeakSet" = weakref.WeakSet()
_REAPER_LOCK = threading.Lock()
_REAPER_INSTALLED = False


def _reap_orphans(*_args) -> None:
    for proc in list(_ORPHANS):
        try:
            _kill(proc)
        except Exception:
            pass


def _install_reaper() -> None:
    """Idempotently install the atexit/SIGTERM orphan reaper."""
    global _REAPER_INSTALLED
    with _REAPER_LOCK:
        if _REAPER_INSTALLED:
            return
        _REAPER_INSTALLED = True
    atexit.register(_reap_orphans)
    try:
        prev = signal.getsignal(signal.SIGTERM)

        def _on_term(signum, frame):
            _reap_orphans()
            if callable(prev) and prev not in (signal.SIG_IGN, signal.SIG_DFL):
                prev(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):
        # Not the main thread (or an embedded interpreter): the atexit
        # hook still covers normal termination.
        pass


class ExperimentError(RuntimeError):
    """A job failed (crash, stall, or timeout) even after its retry."""


def _pool_context():
    """Fork where available (cheap, Linux); spawn otherwise."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _worker(spec_dict: dict, store_root: str) -> None:
    """Worker entry: run one spec, persist the result (or the failure).

    The stall watchdog is enabled by default so a livelocked simulation
    raises :class:`~repro.faults.watchdog.SimulationStall` instead of
    hanging; any exception is persisted as a :class:`RunFailure` and
    signalled to the supervisor with :data:`FAILURE_EXIT`.
    """
    os.environ.setdefault(ENV_STALL_CYCLES, str(DEFAULT_STALL_CYCLES))
    spec = ExperimentSpec.from_dict(spec_dict)
    store = ResultStore(store_root)
    try:
        # Warm the recorded stream through the pool's shared store, so a
        # sweep pays each app's record phase once across all workers
        # instead of once per worker process.
        spec.recorded_stream(store=store)
        result = spec.run()
    except Exception as exc:
        store.save_failure(spec, RunFailure.from_exception(spec, exc))
        raise SystemExit(FAILURE_EXIT)
    store.save(spec, result)


def _kill(proc) -> None:
    """Make sure a worker process is dead: terminate, then SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(_KILL_GRACE)
        if proc.is_alive():
            proc.kill()
    proc.join()


def _dedupe(specs: Iterable[ExperimentSpec]) -> List[ExperimentSpec]:
    return list(dict.fromkeys(specs))


def default_jobs() -> int:
    return os.cpu_count() or 1


def _handle_failure(
    spec: ExperimentSpec,
    failure: RunFailure,
    store: Optional[ResultStore],
    on_failure: str,
    failures_out: Optional[Dict[ExperimentSpec, RunFailure]],
    attempts: int,
) -> None:
    """Persist + record a terminal job failure; raise in "raise" mode."""
    if store is not None and store.load_failure(spec) is None:
        store.save_failure(spec, failure)
    if failures_out is not None:
        failures_out[spec] = failure
    if on_failure == "raise":
        raise ExperimentError(
            f"{spec.label()}: {failure.kind}: {failure.message} "
            f"after {attempts} attempt(s)"
        )
    logger.warning(
        "%s: %s: %s (failure recorded; continuing)",
        spec.label(), failure.kind, failure.message,
    )


def run_serial(
    specs: Sequence[ExperimentSpec],
    store: Optional[ResultStore] = None,
    on_failure: str = "raise",
    failures_out: Optional[Dict[ExperimentSpec, RunFailure]] = None,
) -> Dict[ExperimentSpec, RunResult]:
    """In-process baseline: same store protocol, no pool.

    ``on_failure="raise"`` re-raises the run's exception; ``"record"``
    persists a :class:`RunFailure` and moves on (the failed spec is then
    absent from the returned dict).
    """
    specs = _dedupe(specs)
    results: Dict[ExperimentSpec, RunResult] = {}
    for i, spec in enumerate(specs, 1):
        hit = store.load(spec) if store is not None else None
        if hit is not None:
            results[spec] = hit
            logger.info("[%d/%d] %s (store hit)", i, len(specs), spec.label())
            continue
        t0 = time.monotonic()
        try:
            result = spec.run()
        except Exception as exc:
            failure = RunFailure.from_exception(spec, exc)
            if store is not None:
                store.save_failure(spec, failure)
            if failures_out is not None:
                failures_out[spec] = failure
            if on_failure == "raise":
                raise
            logger.warning(
                "[%d/%d] %s: %s: %s (failure recorded; continuing)",
                i, len(specs), spec.label(), failure.kind, failure.message,
            )
            continue
        if store is not None:
            store.save(spec, result)
        results[spec] = result
        logger.info(
            "[%d/%d] %s %.1fs", i, len(specs), spec.label(), time.monotonic() - t0
        )
    return results


def run_parallel(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    on_failure: str = "raise",
    failures_out: Optional[Dict[ExperimentSpec, RunFailure]] = None,
) -> Dict[ExperimentSpec, RunResult]:
    """Run every spec, fanned out over ``jobs`` worker processes.

    Returns ``{spec: RunResult}``.  ``timeout`` is per job, in seconds,
    and is honored even when the fan-out degrades to a single worker
    (``jobs <= 1`` or one spec): the job still runs in a supervised
    subprocess so a hang fails — with the same retry policy — instead of
    blocking the parent forever.  Only with no ``timeout`` does the
    degraded path fall back to the in-process :func:`run_serial`.

    ``on_failure`` selects what a *terminal* job failure does after its
    :class:`RunFailure` is persisted to the store: ``"raise"`` (default)
    raises :class:`ExperimentError` and tears the pool down;
    ``"record"`` logs, optionally reports via ``failures_out``, and
    keeps going — the failed spec is then simply absent from the result.
    When ``store`` is None a throwaway store in a temp directory carries
    results between workers and parent.
    """
    if on_failure not in ("raise", "record"):
        raise ValueError(f"on_failure must be 'raise' or 'record', got {on_failure!r}")
    specs = _dedupe(specs)
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 1 or len(specs) <= 1:
        if timeout is None:
            return run_serial(
                specs, store=store, on_failure=on_failure, failures_out=failures_out
            )
        # A timeout needs a killable worker: supervise with one slot
        # rather than silently dropping the timeout/retry guarantees.
        jobs = 1
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-results-") as tmp:
            return _supervise(
                specs, jobs, ResultStore(tmp), timeout, retries,
                on_failure, failures_out,
            )
    return _supervise(specs, jobs, store, timeout, retries, on_failure, failures_out)


def _supervise(
    specs: List[ExperimentSpec],
    jobs: int,
    store: ResultStore,
    timeout: Optional[float],
    retries: int,
    on_failure: str,
    failures_out: Optional[Dict[ExperimentSpec, RunFailure]],
) -> Dict[ExperimentSpec, RunResult]:
    ctx = _pool_context()
    _install_reaper()
    total = len(specs)
    results: Dict[ExperimentSpec, RunResult] = {}

    # Warm entries never cost a worker.
    pending: deque = deque()  # (spec, attempts_so_far, not_before)
    done = 0
    for spec in specs:
        hit = store.load(spec)
        if hit is not None:
            results[spec] = hit
            done += 1
            logger.info("[%d/%d] %s (store hit)", done, total, spec.label())
        else:
            pending.append((spec, 0, 0.0))

    running: Dict[mp.process.BaseProcess, tuple] = {}  # proc -> (spec, attempts, t0)

    def _launch(spec: ExperimentSpec, attempts: int) -> None:
        proc = ctx.Process(
            target=_worker, args=(spec.to_dict(), str(store.root)), daemon=True
        )
        proc.start()
        _ORPHANS.add(proc)
        running[proc] = (spec, attempts, time.monotonic())

    def _teardown() -> None:
        for proc in running:
            _kill(proc)
            _ORPHANS.discard(proc)

    try:
        while pending or running:
            # Launch every pending job whose backoff delay (retries
            # only; fresh jobs are immediately ready) has elapsed.
            while pending and len(running) < jobs:
                now = time.monotonic()
                idx = next(
                    (i for i, (_, _, nb) in enumerate(pending) if nb <= now),
                    None,
                )
                if idx is None:
                    break
                spec, attempts, _nb = pending[idx]
                del pending[idx]
                _launch(spec, attempts)
            time.sleep(_POLL)
            for proc in list(running):
                spec, attempts, t0 = running[proc]
                elapsed = time.monotonic() - t0
                failure: Optional[RunFailure] = None
                if proc.is_alive():
                    if timeout is not None and elapsed > timeout:
                        _kill(proc)
                        failure = RunFailure(
                            kind="timeout",
                            message=f"timed out after {timeout:.0f}s",
                            traceback="",
                            fingerprint=spec.fingerprint(),
                            spec=spec.to_dict(),
                        )
                    else:
                        continue
                else:
                    proc.join()
                    if proc.exitcode == 0:
                        result = store.load(spec)
                        if result is not None:
                            del running[proc]
                            _ORPHANS.discard(proc)
                            results[spec] = result
                            done += 1
                            logger.info(
                                "[%d/%d] %s %.1fs",
                                done, total, spec.label(), elapsed,
                            )
                            continue
                        failure = RunFailure(
                            kind="no-result",
                            message="worker exited cleanly but stored no result",
                            traceback="",
                            fingerprint=spec.fingerprint(),
                            spec=spec.to_dict(),
                        )
                    elif proc.exitcode == FAILURE_EXIT:
                        # The worker diagnosed the failure itself (stall,
                        # invariant, ...) and already persisted the record.
                        failure = store.load_failure(spec) or RunFailure(
                            kind="crash",
                            message=f"worker died (exit code {proc.exitcode})",
                            traceback="",
                            fingerprint=spec.fingerprint(),
                            spec=spec.to_dict(),
                        )
                    else:
                        failure = RunFailure(
                            kind="crash",
                            message=f"worker died (exit code {proc.exitcode})",
                            traceback="",
                            fingerprint=spec.fingerprint(),
                            spec=spec.to_dict(),
                        )
                del running[proc]
                _ORPHANS.discard(proc)
                # Structured failures are deterministic — the same spec
                # would stall/violate identically — so retrying only
                # burns a worker.  Crashes and timeouts get the retry.
                retryable = failure.kind in ("timeout", "crash", "no-result")
                if retryable and attempts < retries:
                    delay = retry_delay(attempts + 1)
                    logger.warning(
                        "%s: %s: %s; retrying (%d/%d) in %.2fs",
                        spec.label(), failure.kind, failure.message,
                        attempts + 1, retries, delay,
                    )
                    pending.append((spec, attempts + 1, time.monotonic() + delay))
                else:
                    done += 1
                    _handle_failure(
                        spec, failure, store, on_failure, failures_out,
                        attempts + 1,
                    )
    finally:
        _teardown()
    return results
