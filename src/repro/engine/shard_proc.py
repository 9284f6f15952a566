"""Forked worker-process backend for the sharded PDES scheduler.

The in-process :meth:`~repro.engine.shard.ShardedSimulator.run` loop and
this module execute the *same* epoch structure (DESIGN.md §14): drain
cross-shard arrivals, compute ``horizon = min_next + lookahead``, run
every shard's events below the horizon, repeat.  Here each shard's
window runs in its own forked worker process while the parent acts as
the epoch coordinator:

* The parent builds and seeds the machine, then forks one worker per
  shard — every process starts from an identical object graph, so a
  worker simply executes :meth:`run_window` for *its* shard and leaves
  the other shards' (identical) queues untouched.
* Per epoch the parent broadcasts ``(horizon, inbound)`` and gathers
  ``(min_next, outbound, progress)``; cross-shard arrivals are shipped
  as picklable records carrying their canonical ``(arrival, src,
  src_seq)`` keys plus the receive-NIC channel and the protocol handler
  *name*, and are rebound to the destination worker's own object graph
  on receipt.  The horizons, the per-shard event sets, and therefore the
  results are bit-identical to the in-process backend (and the serial
  engine).

Self-healing (DESIGN.md §15): the parent supervises its workers and
recovers from crashes and hangs without changing simulated results.

* **Journal** — every epoch message sent to a worker is appended to a
  per-shard in-memory journal ``(epoch, horizon, inbound, effects)``.
  Worker execution is a pure function of the seed state plus this
  message stream, so the journal is a complete recovery recipe.
* **Checkpoints** — each worker periodically (``REPRO_SHARD_CKPT_EPOCHS``
  epochs, default 64) serializes its machine to a per-shard checkpoint
  file (:mod:`repro.engine.checkpoint`) and reports the covered epoch
  count in its next reply; the parent trims the journal up to it.
* **Heartbeats / hang detection** — workers send a heartbeat when they
  begin a window; the parent polls with a deadline
  (``REPRO_SHARD_HANG_TIMEOUT`` seconds, default 120) and distinguishes
  a *crashed* worker (process dead / pipe EOF) from a *hung* one (alive
  but silent past the deadline).  Both are distinct from the stall
  watchdog, which monitors *simulated* progress.
* **Respawn** — a dead or hung worker is re-forked (bounded retries,
  jittered exponential backoff, ``REPRO_SHARD_RESPAWNS`` total budget,
  default 3): the fresh worker restores the shard checkpoint if one
  exists, silently replays the journaled epochs after it (its outbound
  is discarded — the parent already routed it), then rejoins live at
  the in-flight epoch.  Replayed execution is deterministic, so the
  recovered run is bit-identical to an undisturbed one.
* **Fallback** — when the respawn budget is exhausted the parent kills
  the workers, logs a structured warning, and re-runs the whole
  simulation on the in-process windowed loop from its own (pristine,
  never-executed) seed state: slower, never different.
* **Chaos** — a :class:`~repro.faults.plan.FaultPlan` may carry
  harness-level ``worker_kill`` events ``(epoch, shard)``; the parent
  SIGKILLs the named worker at the named epoch so CI exercises the
  recovery path deterministically.  ``machine.shard_recovery`` records
  kills, respawns, and fallbacks for assertions and post-mortems.

Scope: the plain :class:`~repro.network.fabric.Fabric` only.  The
reliable fabric, tracer, invariant checker, and value model all observe
one shared-memory machine; in process mode they would each see a
fragment, so those runs stay on the in-process backend
(:class:`UnsupportedBackend` names the offending observer, and
``Machine`` falls back to ``inproc`` with a warning rather than
silently mis-measuring).
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import random
import signal
import tempfile
import time
from collections import deque
from typing import List, Optional

from repro.engine.checkpoint import Checkpoint, CheckpointError, restore_machine, snapshot_machine
from repro.engine.simulator import DeadlockError
from repro.faults.watchdog import SimulationStall
from repro.network.fabric import Fabric
from repro.network.messages import MessageStats
from repro.stats.counters import _MACHINE_COUNTERS, ProcStats

log = logging.getLogger(__name__)

#: Worker checkpoint cadence in epochs (0 disables worker checkpoints;
#: recovery then replays the whole journal from the seed).
ENV_CKPT_EPOCHS = "REPRO_SHARD_CKPT_EPOCHS"
DEFAULT_CKPT_EPOCHS = 64

#: Seconds of worker silence (no heartbeat, no reply) before a live
#: worker is declared hung and recovered.
ENV_HANG_TIMEOUT = "REPRO_SHARD_HANG_TIMEOUT"
DEFAULT_HANG_TIMEOUT = 120.0

#: Total worker respawns allowed per run before falling back to inproc.
ENV_RESPAWNS = "REPRO_SHARD_RESPAWNS"
DEFAULT_RESPAWNS = 3

#: Respawn backoff: min(_BACKOFF_CAP, _BACKOFF_BASE * 2**attempt) scaled
#: by a uniform jitter in [0.5, 1.5) — wall-clock only, never simulated.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class UnsupportedBackend(ValueError):
    """The process shard backend cannot host this machine.

    ``observer`` names what is unsupported (``"faults"``, ``"tracer"``,
    ``"checker"``): all of them observe one shared-memory machine, which
    process mode splits into per-worker fragments.  ``Machine`` catches
    this and falls back to the in-process backend with a warning.
    """

    def __init__(self, observer: str, message: str) -> None:
        super().__init__(message)
        self.observer = observer


def _check_supported(machine) -> None:
    if type(machine.fabric) is not Fabric:
        raise UnsupportedBackend(
            "faults",
            "the process shard backend requires the plain fabric; run "
            "active fault plans on the in-process backend "
            "(REPRO_SHARD_BACKEND=inproc)",
        )
    if machine.tracer is not None or machine.checker is not None:
        observer = "tracer" if machine.tracer is not None else "checker"
        raise UnsupportedBackend(
            observer,
            f"the process shard backend does not support the {observer} "
            "(observers are process-local); use the in-process backend "
            "(REPRO_SHARD_BACKEND=inproc)",
        )
    if "fork" not in mp.get_all_start_methods():
        raise RuntimeError(
            "the process shard backend needs the fork start method "
            "(workers inherit the seeded machine); use the in-process "
            "backend on this platform"
        )


# -- wire format -------------------------------------------------------------------
#
# parent -> worker:
#   ("epoch",  eidx, horizon, inbound, effects)   live epoch
#   ("replay", eidx, horizon, inbound, effects)   recovery replay (output discarded)
#   ("stop",)                                     request the final payload
# worker -> parent:
#   ("hello", ckpt_count)                         on start; epochs covered by the
#                                                 restored checkpoint (0 = seed)
#   ("hb", eidx)                                  heartbeat at window start
#   ("ok", eidx, qnext, outbound, effects, progress, ckpt_count)
#   ("rok", eidx)                                 replay acknowledged
#   ("final", payload) | ("err", text)
#
# One cross-shard arrival:
#   (dst_shard, arrival, src, src_seq, ctl, dst, occ, handler_name, handler_args)
# The parent strips dst_shard when routing; workers rebind the receive
# NIC list (the fabric's ctl_in or data_in, indexed by dst) from ctl and
# the handler from its name on their own protocol object.  Handler args
# are plain data (ints/tuples/None) for every protocol message —
# anything else fails loudly at encode time.


def _encode_outbound(machine) -> List[tuple]:
    """Drain the boundary into picklable cross-shard arrival records."""
    fab = machine.fabric
    arrive = Fabric._arrive
    boundary = machine.sim.boundary
    out = []
    if not boundary.count:
        return out
    for shard, recs in enumerate(boundary.pending):
        for time, src, sseq, callback, args in recs:
            if getattr(callback, "__func__", None) is not arrive:
                raise TypeError(
                    f"cannot ship callback {callback!r} between shard "
                    "processes (expected Fabric._arrive)"
                )
            chan, dst, occ, handler, hargs = args
            ctl = chan is fab.ctl_in
            out.append(
                (shard, time, src, sseq, ctl, dst, occ, handler.__name__, hargs)
            )
        recs.clear()
    boundary.count = 0
    return out


def _push_inbound(machine, records) -> None:
    """Rebind shipped arrivals to this process's objects and enqueue them."""
    fab = machine.fabric
    sim = machine.sim
    for time, src, sseq, ctl, dst, occ, hname, hargs in records:
        chan = fab.ctl_in if ctl else fab.data_in
        handler = getattr(machine.protocol, hname)
        sim.queues[sim.shard_of[dst]].push_remote(
            time, src, sseq, fab._arrive_cb, (chan, dst, occ, handler, hargs)
        )


def _apply_effects(machine, effects) -> None:
    """Replay cross-shard state marks (see ``Simulator.shard_effect``).

    Applied at the epoch barrier, before any event of the next window
    runs; every observer of these marks runs at a message arrival at
    least ``lookahead`` after the mark was written, so barrier
    application is never late.  Increments commute, so the application
    order across emitting shards is immaterial.
    """
    nodes = machine.nodes
    for dst, kind, block in effects:
        if kind != "fill":
            raise ValueError(f"unknown shard effect kind {kind!r}")
        d = nodes[dst].fill_reply_pending
        d[block] = d.get(block, 0) + 1


# -- worker ------------------------------------------------------------------------


def _progress(machine) -> int:
    """The watchdog's monotone progress signal, computed in-worker.

    Only this worker's nodes ever move in its copy of the stats, so the
    sum over all procs is exactly this shard's contribution.
    """
    total = machine._finished
    for p in machine.stats.procs:
        total += p.reads + p.writes + p.acquires + p.releases + p.barriers
    return total


def _final_payload(machine, shard: int) -> dict:
    sim = machine.sim
    shard_of = sim.shard_of
    mine = [n.id for n in machine.nodes if shard_of[n.id] == shard]
    cls = machine.classifier
    return {
        "procs": {i: machine.stats.procs[i].to_dict() for i in mine},
        "machine": {c: getattr(machine.stats, c) for c in _MACHINE_COUNTERS},
        "traffic": machine.fabric.stats.to_dict(),
        "logs": dict(cls._logs) if cls is not None else None,
        "finished": machine._finished,
        "events": sim.events_processed,
        "now": sim._final,
        "unfinished": [
            (n.id, n.proc.block_reason, n.out_count)
            for n in machine.nodes
            if shard_of[n.id] == shard and not n.proc.done
        ],
    }


def _run_epoch(machine, shard: int, horizon, inbound, effects_in) -> None:
    if effects_in:
        _apply_effects(machine, effects_in)
    if inbound:
        _push_inbound(machine, inbound)
    machine.sim.run_window(shard, horizon)


def _shard_worker(
    machine,
    shard: int,
    conn,
    ckpt_path: Optional[str] = None,
    ckpt_every: int = 0,
    restore: bool = False,
) -> None:
    """Worker main: execute epoch windows for ``shard`` until told to stop.

    A respawned worker (``restore=True``) loads the shard checkpoint if
    one exists (otherwise it starts from the forked seed state) and
    reports the covered epoch count in its hello, so the parent knows
    which journal suffix to replay.
    """
    ckpt_count = 0
    if restore and ckpt_path and os.path.exists(ckpt_path):
        machine = restore_machine(Checkpoint.load(ckpt_path))
        ckpt_count = machine.sim.epochs
    sim = machine.sim
    shard_of = sim.shard_of
    effects: List[tuple] = []

    def shard_effect(dst, kind, block):
        # Replicate marks on nodes of *other* shards; same-shard marks
        # were just written to this worker's own objects.
        if shard_of[dst] != shard:
            effects.append((dst, kind, block))

    sim.shard_effect = shard_effect
    try:
        conn.send(("hello", ckpt_count))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            kind, eidx, horizon, inbound, effects_in = msg
            if kind == "epoch":
                conn.send(("hb", eidx))
            _run_epoch(machine, shard, horizon, inbound, effects_in)
            out = _encode_outbound(machine)
            out_effects = effects[:]
            effects.clear()
            sim.epochs = eidx + 1  # epochs covered by this worker's state
            if kind == "replay":
                # Recovery replay: the parent already routed this
                # epoch's output when the original worker produced it.
                conn.send(("rok", eidx))
                continue
            if ckpt_every and (eidx + 1) % ckpt_every == 0 and ckpt_path:
                snapshot_machine(machine).save(ckpt_path)
                ckpt_count = eidx + 1
            conn.send(
                (
                    "ok",
                    eidx,
                    sim.queues[shard].peek_time(),
                    out,
                    out_effects,
                    _progress(machine),
                    ckpt_count,
                )
            )
        conn.send(("final", _final_payload(machine, shard)))
        conn.close()
    except BaseException as exc:
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
            conn.close()
        except OSError:
            pass
        raise


# -- coordinator -------------------------------------------------------------------


class _WorkerDied(Exception):
    """The worker process exited or closed its pipe."""


class _WorkerHung(Exception):
    """The worker process is alive but silent past the hang deadline."""


class _RecoveryExhausted(Exception):
    """The respawn budget ran out; the caller falls back to inproc."""


class _Worker:
    __slots__ = ("proc", "conn", "last_beat")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.last_beat = time.monotonic()


def _kill_all(workers) -> None:
    from repro.harness.runner import _kill

    for w in workers:
        if w is not None:
            _kill(w.proc)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "")
    return float(raw) if raw else default


class _Coordinator:
    """Parent-side epoch loop with journaling, supervision, and recovery."""

    def __init__(self, machine, ckpt_dir: str) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.n = self.sim.n_shards
        self.ctx = mp.get_context("fork")
        self.ckpt_dir = ckpt_dir
        self.ckpt_every = _env_int(ENV_CKPT_EPOCHS, DEFAULT_CKPT_EPOCHS)
        self.hang_timeout = _env_float(ENV_HANG_TIMEOUT, DEFAULT_HANG_TIMEOUT)
        self.respawn_budget = _env_int(ENV_RESPAWNS, DEFAULT_RESPAWNS)
        self.workers: List[Optional[_Worker]] = [None] * self.n
        self.journals = [deque() for _ in range(self.n)]
        self.eidx = 0
        plan = machine.fault_plan
        self.kills = deque(sorted(plan.worker_kill)) if plan is not None else deque()
        # Structured recovery record, for tests and post-mortems.
        self.recovery = machine.shard_recovery = {
            "kills": 0,
            "respawns": 0,
            "fallback": False,
            "events": [],
        }

    def ckpt_path(self, k: int) -> str:
        return os.path.join(self.ckpt_dir, f"shard{k}.ckpt")

    # -- worker lifecycle -----------------------------------------------------

    def spawn(self, k: int, restore: bool = False) -> int:
        """Fork worker ``k``; returns the epoch count its state covers."""
        parent_conn, child_conn = self.ctx.Pipe()
        p = self.ctx.Process(
            target=_shard_worker,
            args=(
                self.machine,
                k,
                child_conn,
                self.ckpt_path(k),
                self.ckpt_every,
                restore,
            ),
            name=f"repro-shard-{k}",
            daemon=True,
        )
        p.start()
        child_conn.close()
        self.workers[k] = _Worker(p, parent_conn)
        hello = self.recv(k)
        if hello[0] != "hello":
            raise RuntimeError(f"shard worker {k} spoke {hello[0]!r}, not hello")
        return hello[1]

    def recv(self, k: int):
        """One message from worker ``k``, skipping heartbeats.

        Raises :class:`_WorkerDied` on a dead process / closed pipe and
        :class:`_WorkerHung` after ``hang_timeout`` seconds of silence
        from a live process; a worker-reported ``err`` is re-raised as
        :class:`RuntimeError` (a deterministic simulation failure would
        only recur under recovery).
        """
        w = self.workers[k]
        while True:
            try:
                if w.conn.poll(0.05):
                    msg = w.conn.recv()
                    w.last_beat = time.monotonic()
                    if msg[0] == "hb":
                        continue
                    if msg[0] == "err":
                        _kill_all(self.workers)
                        raise RuntimeError(f"shard worker {k} failed: {msg[1]}")
                    return msg
            except (EOFError, OSError):
                raise _WorkerDied(
                    f"shard worker {k} died (exit code {w.proc.exitcode})"
                ) from None
            if not w.proc.is_alive():
                raise _WorkerDied(
                    f"shard worker {k} died (exit code {w.proc.exitcode})"
                )
            if time.monotonic() - w.last_beat > self.hang_timeout:
                raise _WorkerHung(
                    f"shard worker {k} silent for {self.hang_timeout:g}s "
                    f"(pid {w.proc.pid} still alive)"
                )

    def send(self, k: int, msg) -> None:
        try:
            self.workers[k].conn.send(msg)
        except (BrokenPipeError, OSError):
            pass  # diagnosed by the next recv

    def respawn(self, k: int, reason: str, resend_current: bool) -> None:
        """Replace worker ``k``: backoff, re-fork, restore, replay journal.

        ``resend_current`` re-delivers the in-flight epoch message (the
        journal's tail) live after the replay, for recovery mid-epoch.
        """
        from repro.harness.runner import _kill

        attempt = 0
        while True:
            if self.recovery["respawns"] >= self.respawn_budget:
                raise _RecoveryExhausted(
                    f"worker respawn budget ({self.respawn_budget}) "
                    f"exhausted recovering shard {k}: {reason}"
                )
            self.recovery["respawns"] += 1
            self.recovery["events"].append(
                {"shard": k, "epoch": self.eidx, "reason": reason}
            )
            old = self.workers[k]
            if old is not None:
                _kill(old.proc)
                try:
                    old.conn.close()
                except OSError:
                    pass
            delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** attempt))
            time.sleep(delay * (0.5 + random.random()))
            attempt += 1
            try:
                covered = self.spawn(k, restore=True)
                journal = self.journals[k]
                tail = journal[-1][0] if journal else -1
                log.warning(
                    "recovered shard %d worker after %s: restored %d "
                    "epochs from checkpoint, replaying journal to %d",
                    k, reason, covered, tail,
                )
                for ent in journal:
                    eidx = ent[0]
                    if eidx < covered:
                        continue
                    if eidx == self.eidx and resend_current:
                        break  # re-sent live by the caller's epoch logic
                    self.send(k, ("replay",) + ent)
                    ack = self.recv(k)
                    if ack[0] != "rok" or ack[1] != eidx:
                        raise _WorkerDied(
                            f"shard worker {k} replay desync at epoch {eidx}"
                        )
                if resend_current and journal and journal[-1][0] == self.eidx:
                    self.send(k, ("epoch",) + journal[-1])
                return
            except (_WorkerDied, _WorkerHung) as exc:
                reason = f"respawn failed: {exc}"
                continue

    def recv_recovering(self, k: int, resend_current: bool):
        """recv with automatic respawn on crash/hang."""
        while True:
            try:
                return self.recv(k)
            except (_WorkerDied, _WorkerHung) as exc:
                self.respawn(k, str(exc), resend_current)

    # -- chaos ----------------------------------------------------------------

    def chaos_kill(self) -> None:
        """Fire any scheduled ``worker_kill`` events for this epoch."""
        while self.kills and self.kills[0][0] <= self.eidx:
            epoch, shard = self.kills.popleft()
            w = self.workers[shard]
            if w is not None and w.proc.is_alive():
                self.recovery["kills"] += 1
                log.warning(
                    "chaos: SIGKILL shard %d worker (pid %d) at epoch %d",
                    shard, w.proc.pid, self.eidx,
                )
                try:
                    os.kill(w.proc.pid, signal.SIGKILL)
                    w.proc.join(timeout=10.0)
                except (OSError, ValueError):
                    pass

    # -- the supervised epoch loop --------------------------------------------

    def run(self) -> None:
        sim = self.sim
        machine = self.machine
        for k in range(self.n):
            self.spawn(k)
        routed: List[list] = [[] for _ in range(self.n)]
        routed_fx: List[list] = [[] for _ in range(self.n)]
        shard_of = sim.shard_of
        nxt = sim.min_next()  # parent's queues hold the identical seed
        lookahead = sim.lookahead
        stall = machine.stall_cycles
        last_prog = -1
        prog_time = 0
        while nxt is not None:
            horizon = nxt + lookahead
            self.chaos_kill()
            for k in range(self.n):
                ent = (self.eidx, horizon, routed[k], routed_fx[k])
                self.journals[k].append(ent)
                self.send(k, ("epoch",) + ent)
                routed[k] = []
                routed_fx[k] = []
            nxt = None
            total_prog = 0
            for k in range(self.n):
                msg = self.recv_recovering(k, resend_current=True)
                if msg[0] != "ok" or msg[1] != self.eidx:
                    raise RuntimeError(
                        f"shard worker {k} epoch desync: got {msg[:2]}, "
                        f"expected ('ok', {self.eidx})"
                    )
                _, _, qnext, outbound, out_fx, prog, ck = msg
                journal = self.journals[k]
                while journal and journal[0][0] < ck:
                    journal.popleft()
                total_prog += prog
                if qnext is not None and (nxt is None or qnext < nxt):
                    nxt = qnext
                for rec in outbound:
                    routed[rec[0]].append(rec[1:])
                    if nxt is None or rec[1] < nxt:
                        nxt = rec[1]
                for fx in out_fx:
                    routed_fx[shard_of[fx[0]]].append(fx)
            sim.epochs += 1
            self.eidx += 1
            if stall:
                if total_prog != last_prog:
                    last_prog = total_prog
                    prog_time = horizon
                elif horizon - prog_time >= stall:
                    _kill_all(self.workers)
                    raise SimulationStall(
                        f"no processor committed an operation for "
                        f"{stall} cycles (t={horizon}; sharded process "
                        f"backend, {self.n} workers)",
                        kind="watchdog",
                        cycle=horizon,
                    )
        finals = []
        for k in range(self.n):
            # A worker that dies here is respawned and replays its whole
            # journal (every epoch is acked by now); loop to re-send the
            # stop the dead worker never answered.
            while True:
                self.send(k, ("stop",))
                try:
                    msg = self.recv(k)
                    break
                except (_WorkerDied, _WorkerHung) as exc:
                    self.respawn(k, str(exc), resend_current=False)
            if msg[0] != "final":
                raise RuntimeError(
                    f"shard worker {k} spoke {msg[0]!r}, not final"
                )
            finals.append(msg[1])
        _merge(machine, finals)
        for k in range(self.n):
            self.workers[k].proc.join()

    def close(self) -> None:
        for w in self.workers:
            if w is not None:
                try:
                    w.conn.close()
                except OSError:
                    pass
        _kill_all(self.workers)


def _merge(machine, finals) -> None:
    """Fold the workers' measurements back into the parent machine.

    Worker payloads are disjoint by construction — proc stats and
    classifier logs are per-node and every node runs in exactly one
    worker; machine counters and traffic are commutative sums — so the
    merge (in fixed shard order) reproduces the serial totals exactly.
    """
    stats = machine.stats
    traffic = machine.fabric.stats
    cls = machine.classifier
    sim = machine.sim
    finished = 0
    events = 0
    now = 0
    unfinished = []
    for payload in finals:
        for i, d in payload["procs"].items():
            stats.procs[i] = ProcStats.from_dict(d)
        for c in _MACHINE_COUNTERS:
            setattr(stats, c, getattr(stats, c) + payload["machine"][c])
        traffic.merge(MessageStats.from_dict(payload["traffic"]))
        if cls is not None and payload["logs"]:
            for p, log_ in payload["logs"].items():
                cls._logs.setdefault(p, []).extend(log_)
        finished += payload["finished"]
        events += payload["events"]
        if payload["now"] > now:
            now = payload["now"]
        unfinished.extend(payload["unfinished"])
    machine._finished = finished
    sim.events_processed = events
    sim.now = sim._final = now
    if finished != machine.config.n_procs:
        # Raise here, where the workers' per-node diagnoses are at hand
        # (the parent's own node objects never executed).
        unfinished.sort()
        raise DeadlockError(
            f"{len(unfinished)} processors never finished "
            f"(id, reason, outstanding): {unfinished[:8]}"
        )


def run_forked(machine) -> int:
    """Run a seeded sharded machine with one worker process per shard.

    Drop-in replacement for ``machine.sim.run()``; returns the final
    simulated time with the parent machine's stats/traffic/classifier
    populated exactly as a serial or in-process-sharded run would have.
    Crashed or hung workers are respawned from their shard checkpoint
    (see the module docstring); an exhausted respawn budget falls back
    to the in-process loop on the parent's pristine seed state —
    slower, bit-identical, loudly logged.
    """
    sim = machine.sim
    _check_supported(machine)
    with tempfile.TemporaryDirectory(prefix="repro-shard-ckpt-") as ckpt_dir:
        coord = _Coordinator(machine, ckpt_dir)
        try:
            coord.run()
            return sim.now
        except (_WorkerDied, _WorkerHung) as exc:
            # Only the initial spawns are unsupervised; anything else
            # already went through the respawn path.
            raise RuntimeError(f"shard worker startup failed: {exc}") from None
        except _RecoveryExhausted as exc:
            log.warning(
                "process shard backend unrecoverable (%s); falling back "
                "to the in-process backend from the seed state", exc,
            )
            coord.recovery["fallback"] = True
        finally:
            coord.close()
    # Fallback: the parent never executed an event — its queues still
    # hold the exact seed — so the in-process windowed loop reproduces
    # the run bit-identically, at inproc speed.
    sim.epochs = 0
    return sim.run()
