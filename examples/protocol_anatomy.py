#!/usr/bin/env python
"""Protocol anatomy: trace the lifecycle of one shared cache line.

Drives a producer/consumer pair by hand through the public Machine API
and inspects the lazy directory at fixed cycles — the Figure 1 state
machine in action (UNCACHED -> DIRTY -> WEAK -> DIRTY): the producer's
write miss makes the line DIRTY, the consumer's read of it makes it
WEAK, and the consumer's acquire invalidates its copy, leaving the
producer the only (dirty) sharer again.

    python examples/protocol_anatomy.py
"""

from repro import Machine, SystemConfig
from repro.directory.entry import dir_state_name
from repro.program.ops import BARRIER, COMPUTE, READ, WRITE


def main() -> None:
    m = Machine(SystemConfig.scaled(n_procs=2, cache_size=8 * 1024), protocol="lrc")
    seg = m.space.alloc(4096, "line")
    block = seg.base >> m.config.line_shift
    home = m.nodes[m.home_of(block)]

    checkpoints = []

    def snap(label):
        e = home.directory.entries.get(block)
        if e is None:
            checkpoints.append((label, "UNCACHED", set(), set()))
        else:
            checkpoints.append(
                (label, dir_state_name(e.state), set(e.sharers), set(e.writers))
            )

    def producer(pid):
        yield (READ, seg.base)
        yield (WRITE, seg.base)
        yield (COMPUTE, 5000)
        yield (BARRIER, 0)
        yield (COMPUTE, 20000)
        yield (BARRIER, 1)

    def consumer(pid):
        yield (COMPUTE, 8000)
        yield (READ, seg.base)       # reads the dirty line: 2 hops, WEAK
        yield (COMPUTE, 2000)
        yield (BARRIER, 0)           # acquire semantics: invalidate
        yield (BARRIER, 1)

    # The programs are packed before any event runs, so the snapshots
    # are events on the simulator, not steps of the programs.
    for cycle, label in (
        (1_000, "after producer write"),
        (9_500, "after consumer read"),
        (20_000, "after consumer acquire"),
    ):
        m.sim.at(cycle, snap, label)
    m.run([producer(0), consumer(1)])

    print("Lazy directory lifecycle of one line (Figure 1):\n")
    for label, state, sharers, writers in checkpoints:
        print(f"  {label:28s} state={state:8s} sharers={sorted(sharers)} writers={sorted(writers)}")

    t = m.fabric.stats
    print("\nmessages on the wire:")
    for name, (count, _nbytes) in t.as_dict().items():
        print(f"  {name:15s} {count}")
    print("\nNote the absence of FORWARD/OWNER_DATA: the lazy protocol's")
    print("reads are always served by the home's (write-through) memory.")


if __name__ == "__main__":
    main()
