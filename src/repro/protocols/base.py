"""Protocol base class: shared plumbing and synchronization machinery.

A protocol implements two halves:

* **CPU side** — hooks called by the processor when the inline fast paths
  miss: ``cpu_read_miss``, ``cpu_write``, ``cpu_write_words`` (protocols
  with a coalescing buffer), ``cpu_acquire``, ``cpu_release``,
  ``cpu_barrier``, ``cpu_fence``.
* **Home side** — message handlers that run at a block's home node and
  drive the directory state machine.

Locks and barriers are *queued at their home node's protocol processor*
and are identical across protocols; what differs is hooked through
``_pre_release`` (what a release must wait for) and
``_process_pending_invals`` (what an acquire must invalidate).  This is
exactly the split the paper describes: eager protocols do all coherence
work before the release completes, lazy protocols postpone invalidations
to acquires.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.cache.state import INVALID, RO, RW
from repro.network.messages import (
    BARRIER_ARRIVE,
    BARRIER_EXIT,
    FLAG_GRANT,
    FLAG_SET,
    FLAG_WAIT,
    LOCK_GRANT,
    LOCK_RELEASE,
    LOCK_REQ,
)


class Protocol:
    """Common machinery; concrete protocols override the hooks."""

    name = "base"
    uses_write_buffer = True     # SC overrides to False
    write_through = False        # lazy protocols override to True
    timestamp_coherence = False  # tardis overrides to True
    #: Cache states in which ``cpu_write`` to a block with a live
    #: write-buffer entry only coalesces the word into that entry: it
    #: returns ``t + 1``, sends nothing and cannot stall.  The replay
    #: engine batches span tails on this (pinned by tests/test_protocols.py).
    wb_coalesce_states = frozenset()

    def __init__(self, machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.fabric = machine.fabric
        self.cfg = machine.config
        self.stats = machine.stats
        self.home_of = machine.home_of       # block -> home node id
        self.nodes = machine.nodes
        self._n = machine.config.n_procs
        # Bus time of a line fill, paid on every miss reply.
        self._line_bus_time = self.cfg.bus_time(self.cfg.line_size)
        # Lock/barrier/flag manager occupancy per message.
        self._lock_cost = self.cfg.lock_mgr_cost

    # -- construction hooks -------------------------------------------------------

    def make_directory(self):
        raise NotImplementedError

    def attach_node(self, node) -> None:
        """Install protocol-specific per-node structures."""
        raise NotImplementedError

    # -- CPU-side hooks (must be provided by subclasses) ---------------------------

    def cpu_read_miss(self, node, t: int, block: int) -> None:
        raise NotImplementedError

    def cpu_write(self, node, t: int, block: int, word: int) -> int:
        raise NotImplementedError

    def cpu_write_words(self, node, t: int, block: int, words: tuple) -> None:
        """Write ``words`` to a present (RO or RW) line, one cycle each
        from ``t``, where only the first write needs the protocol.

        Provided by protocols with a coalescing buffer, which open the
        line's buffer entry here.  The CPU calls it with a whole span's
        words instead of one ``cpu_write`` per element."""
        raise NotImplementedError

    # -- release/acquire hook defaults (eager semantics) ----------------------------

    def _pre_release(self, node, t: int, cont: Callable) -> None:
        """Call ``cont(t')`` once the node's previous writes have globally
        performed.  Default: wait for the write buffer to drain and all
        outstanding transactions to complete."""
        if node.out_count == 0 and (node.wb is None or node.wb.empty) and (
            node.cbuf is None or node.cbuf.empty
        ):
            cont(t)
        else:
            assert node.release_cb is None, "concurrent releases on one node"
            node.release_cb = cont

    def _process_pending_invals(self, node, t: int) -> int:
        """Apply acquire-time invalidations; return the completion time.

        Default (eager protocols): nothing is pending, return ``t``."""
        return t

    # -- timestamp-coherence hooks (no-ops except under tardis) --------------

    def _sync_ts(self, node) -> int:
        """Timestamp payload a release-semantics operation publishes.

        Every release-side synchronization message (lock release, barrier
        arrival, flag set) carries this value; sync managers accumulate
        the max and hand it to the matching acquire side.  Timestamp-free
        protocols publish 0 and ignore what they receive."""
        return 0

    def _apply_sync_ts(self, node, ts: int) -> None:
        """Adopt a timestamp observed at an acquire-semantics operation."""

    # -- observability guards ------------------------------------------------------

    def _guard_release(self, node, cont: Callable) -> Callable:
        """Wrap a release-semantics continuation with the observability
        hook.  The wrapper fires on both the immediate path and the
        deferred ``release_cb`` path — including through protocol-specific
        ``_pre_release`` overrides — so the invariant checker sees every
        release commit point.  A no-op (returns ``cont`` unwrapped) when
        neither tracing nor checking is enabled."""
        if node.checker is None and node.tracer is None:
            return cont

        def guarded(t2: int) -> None:
            node.release_fired(t2)
            cont(t2)

        return guarded

    def _acquire_done(self, node, t: int) -> None:
        """Observability hook: acquire-side invalidation processing is
        complete and the CPU is about to resume."""
        if node.checker is not None:
            node.checker.on_acquire_done(node, t)
        if node.tracer is not None:
            node.tracer.emit("acquire_done", node.id, t=t)

    # =====================================================================
    # Locks
    # =====================================================================
    #
    # A lock, barrier or flag is managed at node ``id % n_procs``.  Every
    # manager handler books its home's protocol processor inline
    # (busy-until ``pp.free_at``, the rule of Resource.reserve).  Manager
    # state is a dict with one shape per kind, always carrying ``"ts"``:
    # the max release timestamp seen (timestamp coherence; 0 otherwise).

    def cpu_acquire(self, node, t: int, lock_id: int) -> None:
        # Start invalidating already-received notices in parallel with the
        # lock request (Section 2: "much of the latency of this operation
        # can be hidden behind the latency of the lock acquisition").
        node.acq_inv_done = self._process_pending_invals(node, t)
        self.fabric.send(
            node.id,
            lock_id % self._n,
            LOCK_REQ,
            t,
            self._h_lock_req,
            lock_id,
            node.id,
        )

    def _h_lock_req(self, t: int, lock_id: int, requester: int) -> None:
        home = self.nodes[lock_id % self._n]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._lock_cost
        pp.free_at = tp
        st = home.lock_state.get(lock_id)
        if st is None:
            st = {"held": False, "queue": deque(), "ts": 0}
            home.lock_state[lock_id] = st
        if not st["held"]:
            st["held"] = True
            self.fabric.send(
                home.id, requester, LOCK_GRANT, tp, self._h_lock_grant,
                requester, st["ts"],
            )
        else:
            st["queue"].append(requester)

    def _h_lock_grant(self, t: int, requester: int, ts: int) -> None:
        node = self.nodes[requester]
        self._apply_sync_ts(node, ts)
        # Finish invalidations: those started at acquire time may still be
        # in progress; notices that arrived while waiting are processed now.
        t2 = t if t >= node.acq_inv_done else node.acq_inv_done
        t2 = self._process_pending_invals(node, t2)
        self._acquire_done(node, t2)
        node.proc.unblock(t2)

    def cpu_release(self, node, t: int, lock_id: int) -> None:
        def done(t2: int) -> None:
            self.fabric.send(
                node.id,
                lock_id % self._n,
                LOCK_RELEASE,
                t2,
                self._h_lock_release,
                lock_id,
                self._sync_ts(node),
            )
            node.proc.unblock(t2 + 1)

        self._pre_release(node, t, self._guard_release(node, done))

    def _h_lock_release(self, t: int, lock_id: int, ts: int) -> None:
        home = self.nodes[lock_id % self._n]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._lock_cost
        pp.free_at = tp
        st = home.lock_state[lock_id]
        if ts > st["ts"]:
            st["ts"] = ts
        if st["queue"]:
            nxt = st["queue"].popleft()
            self.fabric.send(
                home.id, nxt, LOCK_GRANT, tp, self._h_lock_grant,
                nxt, st["ts"],
            )
        else:
            st["held"] = False

    # =====================================================================
    # Barriers (centralized, at the barrier id's home node)
    # =====================================================================

    def cpu_barrier(self, node, t: int, barrier_id: int) -> None:
        def arrived(t2: int) -> None:
            self.fabric.send(
                node.id,
                barrier_id % self._n,
                BARRIER_ARRIVE,
                t2,
                self._h_barrier_arrive,
                barrier_id,
                node.id,
                self._sync_ts(node),
            )

        self._pre_release(node, t, self._guard_release(node, arrived))

    def _h_barrier_arrive(self, t: int, barrier_id: int, src: int, ts: int) -> None:
        home = self.nodes[barrier_id % self._n]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._lock_cost
        pp.free_at = tp
        st = home.barrier_state.get(barrier_id)
        if st is None:
            st = {"waiters": deque(), "ts": 0}
            home.barrier_state[barrier_id] = st
        waiters = st["waiters"]
        waiters.append(src)
        if ts > st["ts"]:
            st["ts"] = ts
        if len(waiters) == self._n:
            # Releases go out one at a time through the manager's protocol
            # processor, back to back from tp — the natural serialization
            # skew of a central barrier.
            ts = st["ts"]
            tg = tp
            for w in waiters:
                tg += self._lock_cost
                self.fabric.send(
                    home.id, w, BARRIER_EXIT, tg, self._h_barrier_exit,
                    w, ts,
                )
            pp.free_at = tg
            waiters.clear()

    def _h_barrier_exit(self, t: int, target: int, ts: int) -> None:
        node = self.nodes[target]
        self._apply_sync_ts(node, ts)
        t2 = self._process_pending_invals(node, t)
        self._acquire_done(node, t2)
        node.proc.unblock(t2)

    # =====================================================================
    # Flags: pairwise producer/consumer synchronization
    # =====================================================================

    def _flag_state(self, home, flag_id: int) -> dict:
        """The flag manager's state for ``flag_id`` at ``home``."""
        st = home.lock_state.get(("f", flag_id))
        if st is None:
            st = {"set": False, "waiters": deque(), "ts": 0}
            home.lock_state[("f", flag_id)] = st
        return st

    def cpu_set_flag(self, node, t: int, flag_id: int) -> None:
        """Release semantics, then set the flag at its home node."""

        def done(t2: int) -> None:
            self.fabric.send(
                node.id,
                flag_id % self._n,
                FLAG_SET,
                t2,
                self._h_flag_set,
                flag_id,
                self._sync_ts(node),
            )
            node.proc.unblock(t2 + 1)

        self._pre_release(node, t, self._guard_release(node, done))

    def _h_flag_set(self, t: int, flag_id: int, ts: int) -> None:
        home = self.nodes[flag_id % self._n]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._lock_cost
        pp.free_at = tp
        st = self._flag_state(home, flag_id)
        st["set"] = True
        if ts > st["ts"]:
            st["ts"] = ts
        ts = st["ts"]
        for w in st["waiters"]:
            tp += self._lock_cost
            self.fabric.send(
                home.id, w, FLAG_GRANT, tp, self._h_flag_granted, w, ts,
            )
        pp.free_at = tp
        st["waiters"].clear()

    def cpu_wait_flag(self, node, t: int, flag_id: int) -> None:
        """Block until the flag is set; acquire semantics on the way out."""
        node.acq_inv_done = self._process_pending_invals(node, t)
        self.fabric.send(
            node.id,
            flag_id % self._n,
            FLAG_WAIT,
            t,
            self._h_flag_wait,
            flag_id,
            node.id,
        )

    def _h_flag_wait(self, t: int, flag_id: int, requester: int) -> None:
        home = self.nodes[flag_id % self._n]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._lock_cost
        pp.free_at = tp
        st = self._flag_state(home, flag_id)
        if st["set"]:
            self.fabric.send(
                home.id, requester, FLAG_GRANT, tp, self._h_flag_granted,
                requester, st["ts"],
            )
        else:
            st["waiters"].append(requester)

    def _h_flag_granted(self, t: int, requester: int, ts: int) -> None:
        node = self.nodes[requester]
        self._apply_sync_ts(node, ts)
        t2 = t if t >= node.acq_inv_done else node.acq_inv_done
        t2 = self._process_pending_invals(node, t2)
        self._acquire_done(node, t2)
        node.proc.unblock(t2)

    # =====================================================================
    # Fence: release semantics + acquire semantics, no lock
    # =====================================================================

    def cpu_fence(self, node, t: int) -> None:
        def done(t2: int) -> None:
            t3 = self._process_pending_invals(node, t2)
            self._acquire_done(node, t3)
            node.proc.unblock(t3)

        self._pre_release(node, t, self._guard_release(node, done))

    # =====================================================================
    # Shared helpers
    # =====================================================================

    def _install_line(self, node, t: int, block: int, state: int) -> None:
        """Install a fill, handling the victim via the protocol hook."""
        victim = node.cache.victim_of(block)
        if victim is not None:
            self.handle_eviction(node, t, victim[0], victim[1])
        node.cache.install(block, state)

    def handle_eviction(self, node, t: int, vblock: int, vstate: int) -> None:
        """Protocol-specific replacement handling (hint / writeback)."""
        raise NotImplementedError
