"""Machine assembly: nodes + fabric + protocol + address space.

Typical use::

    machine = Machine(SystemConfig.scaled(n_procs=16), protocol="lrc")
    seg = machine.space.alloc(1 << 16, "data")
    result = machine.run([program(p) for p in range(16)])
    print(result.stats.exec_time)
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterable, List, Optional, Sequence

from repro.config import SystemConfig
from repro.core.node import Node
from repro.core.processor import Processor
from repro.engine.replay import compile_stream
from repro.engine.simulator import DeadlockError, Simulator
from repro.engine.watchdog import StallWatchdog
from repro.network.fabric import Fabric
from repro.network.jitter import JitterFabric
from repro.network.messages import MessageStats
from repro.program.address_space import AddressSpace, apply_alloc_log
from repro.program.stream import STREAM_CONFIG_FIELDS, RecordedStream, pack_programs
from repro.stats.classification import MissClassifier
from repro.stats.counters import MachineStats


@dataclass
class RunResult:
    """Everything measured during one simulation run."""

    config: SystemConfig
    protocol: str
    stats: MachineStats
    traffic: MessageStats
    classifier: Optional[MissClassifier]

    @property
    def exec_time(self) -> int:
        return self.stats.exec_time

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    def breakdown(self):
        return self.stats.breakdown()

    def summary(self) -> dict:
        s = self.stats.summary()
        s["protocol"] = self.protocol
        s["messages"] = self.traffic.total_messages
        s["bytes"] = self.traffic.total_bytes
        return s

    # -- serialization (result store) ------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation of everything measured.

        Round-trips through :meth:`from_dict`; the result-store schema
        version that pins this layout lives in :mod:`repro.results.store`.
        """
        return {
            "config": asdict(self.config),
            "protocol": self.protocol,
            "stats": self.stats.to_dict(),
            "traffic": self.traffic.to_dict(),
            "classifier": self.classifier.to_dict() if self.classifier else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(
            config=SystemConfig(**d["config"]),
            protocol=d["protocol"],
            stats=MachineStats.from_dict(d["stats"]),
            traffic=MessageStats.from_dict(d["traffic"]),
            classifier=(
                MissClassifier.from_dict(d["classifier"])
                if d["classifier"] is not None
                else None
            ),
        )


@dataclass(frozen=True)
class MachineConfig:
    """A complete, declarative machine description.

    Consolidates the loose keyword arguments :class:`Machine` grew over
    time — one value object names every knob the harness and the public
    API set, can be compared, copied with :func:`dataclasses.replace`,
    and built from (:meth:`build`).  The fuzzer's value model and delivery
    jitter are :class:`Machine` arguments only.
    The harness (:class:`repro.harness.spec.ExperimentSpec`) and the
    public API (:func:`repro.core.api.run_app`) both construct machines
    through this type rather than spelling kwargs at each call site.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    protocol: str = "lrc"
    classify: bool = False
    max_cycles: int = 1 << 62
    trace: bool = False
    check_invariants: bool = False
    trace_capacity: int = 1 << 16
    check_level: str = "sync"
    stall_cycles: Optional[int] = None

    def build(self) -> "Machine":
        """Assemble a fresh :class:`Machine` from this description."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        cfg = kwargs.pop("config")
        return Machine(cfg, **kwargs)

    def with_(self, **changes) -> "MachineConfig":
        """A copy with ``changes`` applied (thin ``dataclasses.replace``)."""
        return replace(self, **changes)


class Machine:
    """A mesh-connected multiprocessor running one coherence protocol."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: str = "lrc",
        classify: bool = False,
        max_cycles: int = 1 << 62,
        trace: bool = False,
        check_invariants: bool = False,
        trace_capacity: int = 1 << 16,
        check_level: str = "sync",
        value_model: bool = False,
        stall_cycles: Optional[int] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        # Import here to avoid a cycle (protocols import nothing from core,
        # but core.__init__ re-exports both directions for users).
        from repro.protocols import make_protocol

        self.config = config
        self.sim = Simulator(max_cycles=max_cycles)
        # A jitter seed delays remote messages by seeded, FIFO-preserving
        # amounts (the fuzzer's timing variety); without one the fabric
        # is the plain lossless mesh.
        if jitter_seed is None:
            self.fabric = Fabric(config, self.sim)
        else:
            self.fabric = JitterFabric(config, self.sim, jitter_seed)
        if stall_cycles is None:
            env = os.environ.get("REPRO_STALL_CYCLES", "")
            stall_cycles = int(env) if env else 0
        self.stall_cycles = stall_cycles
        self.stats = MachineStats(config.n_procs)
        self.space = AddressSpace(config)
        self.home_of = self.space.build_block_home_lookup()
        # Counts are resolved at end of run from per-node logs in
        # canonical (time, node, index) order, so they are identical
        # under span batching.
        self.classifier = MissClassifier() if classify else None
        self.protocol_name = protocol
        self.nodes: List[Node] = []
        self.protocol = make_protocol(protocol, self)
        for i in range(config.n_procs):
            node = Node(i, config, self.stats.procs[i])
            self.protocol.attach_node(node)
            node.proc = Processor(node, self)
            self.nodes.append(node)
        self._finished = 0
        self._ran = False
        self.tracer = None
        self.checker = None
        self.valmodel = None
        if value_model:
            from repro.conformance.shadow import ValueModel

            self.valmodel = ValueModel(self)
        if trace or check_invariants:
            from repro.trace import InvariantChecker, Tracer

            if trace:
                self.tracer = Tracer(self.sim, capacity=trace_capacity)
                self._attach_tracer(self.tracer)
            if check_invariants:
                self.checker = InvariantChecker(
                    self, tracer=self.tracer, level=check_level
                )
                for node in self.nodes:
                    node.checker = self.checker
                if check_level == "event":
                    self.sim.post_event_hook = self.checker.on_event

    def _attach_tracer(self, tracer) -> None:
        """Point every instrumented component at the shared tracer."""
        self.fabric.tracer = tracer
        for node in self.nodes:
            node.tracer = tracer
            node.cache.tracer = tracer
            node.directory.tracer = tracer
            node.directory.home = node.id
            if node.wb is not None:
                node.wb.tracer = tracer
                node.wb.owner = node.id
            if node.cbuf is not None:
                node.cbuf.tracer = tracer
                node.cbuf.owner = node.id

    # -- callbacks ---------------------------------------------------------------

    def proc_finished(self, proc_id: int, t: int) -> None:
        self._finished += 1

    # -- running -----------------------------------------------------------------

    def run(self, programs: Sequence[Iterable]) -> RunResult:
        """Run one hand-written program per processor to completion.

        Each program is an iterable of op tuples (usually a generator).
        The programs are packed into a stream with the packer recording
        uses, so an op no stream can hold raises ``ValueError`` before
        any event runs; the allocations are whatever the caller made in
        :attr:`space`.
        """
        self._claim()
        if len(programs) != self.config.n_procs:
            raise ValueError(
                f"need {self.config.n_procs} programs, got {len(programs)}"
            )
        meta = {f: getattr(self.config, f) for f in STREAM_CONFIG_FIELDS}
        columns = pack_programs(programs, "Machine.run")
        return self._start(RecordedStream(*columns, (), meta))

    def replay(self, stream) -> RunResult:
        """Run a :class:`~repro.program.stream.RecordedStream` to completion.

        The stream must fit this machine's geometry and the address space
        must be pristine: the stream's allocation log rebuilds it, so
        directory homes and segment bases are the recording's own.  No
        application Python executes.
        """
        self._claim()
        bad = [
            (f, stream.meta[f], getattr(self.config, f))
            for f in STREAM_CONFIG_FIELDS
            if stream.meta.get(f) != getattr(self.config, f)
        ]
        if bad:
            detail = ", ".join(
                f"{f}: stream={sv!r} machine={mv!r}" for f, sv, mv in bad
            )
            raise ValueError(f"stream does not fit this machine ({detail})")
        if self.space.segments:
            raise RuntimeError(
                "replay needs a pristine address space; this machine "
                "already has allocations"
            )
        apply_alloc_log(self.space, stream.alloc_log)
        return self._start(stream)

    def _claim(self) -> None:
        if self._ran:
            raise RuntimeError("a Machine instance runs exactly one workload")
        self._ran = True

    def _start(self, stream) -> RunResult:
        """Compile ``stream``, start every CPU at cycle 0 and run."""
        for node, mops in zip(self.nodes, compile_stream(stream)):
            node.proc.start(mops)
        return self._complete()

    def _complete(self) -> RunResult:
        """Shared run tail: watchdog, event loop, deadlock check,
        observer finalization, result."""
        if self.stall_cycles:
            StallWatchdog(self, self.stall_cycles).arm()
        self.sim.run()
        if self._finished != self.config.n_procs:
            stuck = [
                (n.id, n.proc.block_reason, n.out_count, len(n.wb or ()))
                for n in self.nodes
                if not n.proc.done
            ]
            raise DeadlockError(
                f"{len(stuck)} processors never finished "
                f"(id, reason, outstanding, wb): {stuck[:8]}"
            )
        if self.checker is not None:
            self.checker.end_of_run()
        if self.classifier is not None:
            self.classifier.finalize()
        return RunResult(
            config=self.config,
            protocol=self.protocol_name,
            stats=self.stats,
            traffic=self.fabric.stats,
            classifier=self.classifier,
        )
