"""Reference-stream op encoding.

Programs yield plain tuples whose first element is one of the integer
opcodes below; a program's tuples are packed into a recorded stream's
columns and compiled before any of them runs.

Scalar ops::

    (READ, addr)              read one word at byte address addr
    (WRITE, addr)             write one word
    (COMPUTE, cycles)         local computation, no memory references
    (ACQUIRE, lock_id)        lock acquire (acquire semantics)
    (RELEASE, lock_id)        lock release (release semantics)
    (BARRIER, barrier_id)     global barrier (release + acquire semantics)
    (FENCE,)                  release + acquire semantics without a lock

Run ops (one tuple for a whole regular loop)::

    (READ_RUN, base, count, stride)    read count words at base + i*stride
    (WRITE_RUN, base, count, stride)   write count words
    (RW_RUN, base, count, stride)      read-modify-write count words
"""

READ = 0
WRITE = 1
READ_RUN = 2
WRITE_RUN = 3
RW_RUN = 4
COMPUTE = 5
#: Pairwise (producer/consumer) synchronization: SET_FLAG has release
#: semantics (prior writes perform first), WAIT_FLAG has acquire
#: semantics (pending invalidations are processed on the way out).
SET_FLAG = 11
WAIT_FLAG = 12
ACQUIRE = 6
RELEASE = 7
BARRIER = 8
FENCE = 9

#: Scalar opcodes an application may yield, mapped to tuple arity
#: (opcode included).
SCALAR_ARITY = {
    READ: 2,
    WRITE: 2,
    COMPUTE: 2,
    ACQUIRE: 2,
    RELEASE: 2,
    BARRIER: 2,
    FENCE: 1,
    SET_FLAG: 2,
    WAIT_FLAG: 2,
}

#: Run opcodes: ``(kind, base, count, stride)``.
RUN_OPS = (READ_RUN, WRITE_RUN, RW_RUN)

_NAMES = {
    READ: "READ",
    WRITE: "WRITE",
    READ_RUN: "READ_RUN",
    WRITE_RUN: "WRITE_RUN",
    RW_RUN: "RW_RUN",
    COMPUTE: "COMPUTE",
    ACQUIRE: "ACQUIRE",
    RELEASE: "RELEASE",
    BARRIER: "BARRIER",
    FENCE: "FENCE",
    SET_FLAG: "SET_FLAG",
    WAIT_FLAG: "WAIT_FLAG",
}


def op_name(code: int) -> str:
    return _NAMES[code]
