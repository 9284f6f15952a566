"""One ordered process map, and the experiment runner built on it.

:func:`process_map` yields ``fn(item)`` for every item, in item order:
in-process when ``jobs <= 1`` or there is a single item, otherwise over
a :class:`concurrent.futures.ProcessPoolExecutor` of ``jobs`` worker
*processes* (the simulator is pure Python, so threads would serialize
on the GIL).  Paper sweeps (:func:`run_specs`, ``repro figures``) and
fuzz campaigns (``repro fuzz``) both go through it, so both share one
fault model:

* an exception raised by ``fn`` propagates to the caller, as it would
  in-process;
* a worker process that dies (OOM kill, ``os._exit``, a signal) breaks
  the pool at once: every item left without an outcome yields a
  :class:`WorkerDied` in its place instead of hanging the map;
* pool workers exit as soon as the parent process dies, SIGKILL
  included, so an interrupted sweep leaves no CPU-burning orphans.

:func:`run_specs` runs each spec the result store does not hold as one
*cell* through :func:`process_map`.  A cell returns its
:class:`RunResult`, or the :class:`RunFailure` its exception maps to
(stall, invariant, timeout, ...); the parent is the only writer of
results and failure records.
``timeout`` arms a per-cell ``SIGALRM`` deadline that raises
:class:`TimeoutError` inside the cell, in-process and in a worker
alike.  Failures are deterministic, so nothing is retried.  Pool
workers also run with the simulation stall watchdog enabled
(``REPRO_STALL_CYCLES``, default :data:`DEFAULT_STALL_CYCLES` unless
the caller pinned it), so a livelocked spec becomes a recorded failure.

Determinism: workers inherit nothing mutable — a spec is pure data and
``spec.run()`` is a pure function of it (fixed seeds, DESIGN.md §7) —
so in-process, pooled and cached runs produce bit-identical cycle
counts.  Progress is logged on the ``repro.runner`` logger.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import multiprocessing as mp
import os
import signal
import threading
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.machine import RunResult
from repro.engine.watchdog import DEFAULT_STALL_CYCLES, ENV_STALL_CYCLES
from repro.harness.spec import ExperimentSpec
from repro.results.store import ResultStore, RunFailure

logger = logging.getLogger("repro.runner")


class ExperimentError(RuntimeError):
    """A sweep or campaign ended with cells that have no result.

    ``failures`` maps each failed :class:`ExperimentSpec` to its
    :class:`RunFailure` (empty for a fuzz campaign, whose message names
    the seeds instead)."""

    def __init__(
        self, message: str, failures: Optional[Dict[ExperimentSpec, RunFailure]] = None
    ) -> None:
        super().__init__(message)
        self.failures = dict(failures or {})


class WorkerDied(RuntimeError):
    """Yielded by :func:`process_map` in place of the outcome of an item
    whose worker process died before returning it."""


# -- the ordered process map --------------------------------------------------


def _exit_when_closed(sentinel) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _worker_init(initializer: Optional[Callable[[], None]]) -> None:
    """Pool-worker start-up: exit as soon as the parent process dies.

    The parent's sentinel becomes ready when the parent is gone, however
    it died, so a daemon thread waiting on it takes the worker down with
    it (a worker mid-task never reads its call queue again).
    """
    threading.Thread(
        target=_exit_when_closed, args=(mp.parent_process().sentinel,), daemon=True
    ).start()
    if initializer is not None:
        initializer()


def process_map(
    fn: Callable,
    items: Iterable,
    jobs: int = 1,
    initializer: Optional[Callable[[], None]] = None,
) -> Iterator:
    """Yield ``fn(item)`` for every item, in item order.

    Runs in-process when ``jobs <= 1`` or there is a single item;
    otherwise over ``min(jobs, len(items))`` worker processes, each of
    which runs ``initializer`` once at start-up.  An item whose worker
    died yields a :class:`WorkerDied` instead of an outcome.  Closing
    the generator (``contextlib.closing``) shuts the pool down, also
    when the caller stops before the last item.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # Imported here: ``repro.harness`` is on the import path of every
    # simulation, and only a pooled map needs the executor machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked where available, so workers see protocols registered and
    # functions patched at run time (as tests do); the executor forks
    # every worker before it starts its own management thread.
    methods = mp.get_all_start_methods()
    pool = ProcessPoolExecutor(
        min(jobs, len(items)),
        mp_context=mp.get_context("fork" if "fork" in methods else "spawn"),
        initializer=_worker_init,
        initargs=(initializer,),
    )
    try:
        futures = [pool.submit(fn, item) for item in items]
        for future in futures:
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                outcome = WorkerDied(str(exc))
            yield outcome
    finally:
        pool.shutdown(cancel_futures=True)


# -- the experiment runner ----------------------------------------------------


@contextlib.contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`TimeoutError` in the block after ``seconds``.

    The alarm repeats every ``seconds`` until the block ends, so code
    that swallows one (a broad ``except`` on a cache read) cannot turn
    the deadline off.
    """
    if seconds is None:
        yield
        return

    def expire(_signum, _frame):
        raise TimeoutError(f"timed out after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_cell(
    spec: ExperimentSpec,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
) -> Union[RunResult, RunFailure]:
    """Run one spec: its :class:`RunResult`, or the :class:`RunFailure`
    its exception maps to.  Persists nothing but the recorded stream."""
    try:
        with _deadline(timeout):
            if store is not None:
                # Warm the recorded stream through the shared store, so
                # a pooled sweep pays each app's record phase once
                # across all workers instead of once per worker.
                spec.recorded_stream(store=store)
            return spec.run()
    except Exception as exc:
        return RunFailure.from_exception(spec, exc)


def _enable_stall_watchdog() -> None:
    os.environ.setdefault(ENV_STALL_CYCLES, str(DEFAULT_STALL_CYCLES))


def run_specs(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
) -> Dict[ExperimentSpec, Union[RunResult, RunFailure]]:
    """Every distinct spec's outcome, in spec order.

    Store hits are served without running anything; the rest run
    through :func:`process_map`.  Results and failure records are
    saved to ``store`` as they arrive.  A cell whose worker died gets
    a ``crash`` failure that is reported but not persisted: the pool
    cannot tell which cell killed it, and a rerun resumes from the
    store.
    """
    specs = list(dict.fromkeys(specs))
    total = len(specs)
    outcomes: Dict[ExperimentSpec, Union[RunResult, RunFailure]] = {}
    todo = []
    for spec in specs:
        hit = store.load(spec) if store is not None else None
        if hit is None:
            todo.append(spec)
            continue
        outcomes[spec] = hit
        logger.info("[%d/%d] %s (store hit)", len(outcomes), total, spec.label())
    cell = functools.partial(_run_cell, store=store, timeout=timeout)
    ran = process_map(cell, todo, jobs, initializer=_enable_stall_watchdog)
    with contextlib.closing(ran):
        for spec, outcome in zip(todo, ran):
            if isinstance(outcome, WorkerDied):
                outcome = RunFailure(
                    kind="crash",
                    message=f"worker died: {outcome}",
                    traceback="",
                    fingerprint=spec.fingerprint(),
                    spec=spec.to_dict(),
                )
            elif store is not None:
                if isinstance(outcome, RunFailure):
                    store.save_failure(spec, outcome)
                else:
                    store.save(spec, outcome)
            outcomes[spec] = outcome
            if isinstance(outcome, RunFailure):
                logger.warning(
                    "[%d/%d] %s: %s: %s", len(outcomes), total, spec.label(),
                    outcome.kind, outcome.message,
                )
            else:
                logger.info("[%d/%d] %s", len(outcomes), total, spec.label())
    return {spec: outcomes[spec] for spec in specs}
