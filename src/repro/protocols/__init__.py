"""The coherence protocols behind the ``Protocol`` API.

* :class:`~repro.protocols.sc.SCProtocol`       — sequentially consistent
  directory protocol (normalization baseline).
* :class:`~repro.protocols.erc.ERCProtocol`     — eager release consistency
  (DASH-like).
* :class:`~repro.protocols.lrc.LRCProtocol`     — the paper's lazy release
  consistency for hardware-coherent machines.
* :class:`~repro.protocols.lrc_ext.LRCExtProtocol` — the lazier variant
  that defers write notices until release points.
* :class:`~repro.protocols.tardis.TardisProtocol` — Tardis timestamp
  coherence (leases + logical clocks, no invalidation fan-out), relaxed
  to the paper's release/acquire sync points.

:data:`REGISTRY` is the single name -> class table; every consumer
(``ExperimentSpec``, the ``Machine`` constructor, the conformance
fuzzer, the CLI) resolves protocol names through it, so an unknown name
fails in one place with one error.
"""

from typing import Tuple

from repro.protocols.base import Protocol
from repro.protocols.sc import SCProtocol
from repro.protocols.erc import ERCProtocol
from repro.protocols.lrc import LRCProtocol
from repro.protocols.lrc_ext import LRCExtProtocol
from repro.protocols.tardis import TardisProtocol

#: The protocol registry: short name -> class, in canonical sweep order.
REGISTRY = {
    "sc": SCProtocol,
    "erc": ERCProtocol,
    "lrc": LRCProtocol,
    "lrc-ext": LRCExtProtocol,
    "tardis": TardisProtocol,
}


def all_names() -> Tuple[str, ...]:
    """Every registered protocol name, in canonical sweep order."""
    return tuple(REGISTRY)


def make_protocol(name: str, machine) -> Protocol:
    """Instantiate a protocol by its short name."""
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(REGISTRY)}"
        ) from None
    return cls(machine)


__all__ = [
    "Protocol",
    "SCProtocol",
    "ERCProtocol",
    "LRCProtocol",
    "LRCExtProtocol",
    "TardisProtocol",
    "REGISTRY",
    "all_names",
    "make_protocol",
]
