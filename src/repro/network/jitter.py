"""Seeded delivery jitter for the conformance fuzzer (DESIGN.md §10).

The paper's mesh is lossless and every coherence protocol here relies on
per-``(src, dst, channel)`` FIFO delivery.  :class:`JitterFabric` keeps
both and varies only *timing*: each remote message is delayed, with
probability :data:`JITTER_RATE`, by 1..:data:`JITTER_CYCLES` extra
transit cycles.  Its arrival is then clamped to at least the last
arrival on its channel, and equal arrivals from one source fire in send
order (the remote-lane key is ``(time, src, src_seq)``), so per-channel
FIFO holds without sequence numbers or a reorder buffer.

Each source node draws from its own PRNG, seeded from ``(seed, node)``,
so a node's jitter schedule depends only on its own send order, never
on cross-node event interleaving.  The subclass only rebinds the
``_deliver_remote`` hook that :meth:`Fabric.send` already calls; the
plain fabric's send path is untouched.
"""

from __future__ import annotations

import random

from repro.config import SystemConfig
from repro.engine.simulator import Simulator
from repro.network.fabric import Fabric

#: Probability that one remote message is delayed.
JITTER_RATE = 0.2

#: Largest extra transit of a delayed message, in cycles.
JITTER_CYCLES = 200


class JitterFabric(Fabric):
    """The plain fabric with seeded, FIFO-preserving extra transit."""

    #: Delay probability per remote message (tests pin 0.0 or 1.0).
    rate = JITTER_RATE

    def __init__(self, config: SystemConfig, sim: Simulator, seed: int) -> None:
        super().__init__(config, sim)
        # String seeds hash through SHA-512: stable across processes and
        # PYTHONHASHSEED values.
        self._rngs = [
            random.Random(f"{seed}:{src}") for src in range(config.n_procs)
        ]
        # Last arrival per (src, dst, is-data-channel): the FIFO clamp.
        self._last: dict = {}
        self._push_remote = self._deliver_remote
        self._deliver_remote = self._jitter

    def _jitter(self, arrival, src, sseq, callback, payload) -> None:
        rng = self._rngs[src]
        if rng.random() < self.rate:
            arrival += rng.randint(1, JITTER_CYCLES)
            self.stats.delays_injected += 1
        # payload = (receive-NIC list, dst, ...); the list is the channel.
        key = (src, payload[1], payload[0] is self.data_in)
        last = self._last.get(key, 0)
        if arrival < last:
            arrival = last
        self._last[key] = arrival
        self._push_remote(arrival, src, sseq, callback, payload)
