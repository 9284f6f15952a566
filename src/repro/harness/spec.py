"""The experiment currency: a frozen, fingerprintable spec.

:class:`ExperimentSpec` is the single description of "one simulation" that
every layer of the harness shares: the in-process memo, the parallel
runner (which pickles specs across worker processes), the persistent
result store (which files results under ``spec.fingerprint()``), and the
table/figure functions of :mod:`repro.harness.experiments`.

A spec is *pure data* — hashable, comparable, JSON round-trippable — and
:meth:`ExperimentSpec.run` is a pure function of it: the simulator is
deterministic (fixed seeds, FIFO tie-breaking; DESIGN.md §7), so the
same spec always produces bit-identical cycle counts, which is what
makes content-addressed result caching sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

#: Bumped whenever the *meaning* of a spec field changes (fingerprints
#: then no longer collide with results computed under the old meaning).
#: 2: canonical event ordering (two-lane queue, arrival-ordered receive
#: NICs, logged classifier) shifted simulated numbers slightly.
#: 3: canonical sorted write-notice/invalidation send order — sharer and
#: writer sets now notify in node-id order, not set iteration order;
#: shifted simulated numbers slightly.
SPEC_VERSION = 3

MACHINE_KINDS = ("default", "future")

@dataclass(frozen=True)
class ExperimentSpec:
    """One (app, protocol, machine) simulation, fully specified.

    ``kind`` selects the machine preset: ``"default"`` (Table 1
    parameters, scaled cache) or ``"future"`` (Section 4.3).
    ``overrides`` holds :class:`repro.config.SystemConfig` field
    overrides; a dict passed at construction is normalized to a sorted
    tuple of pairs so equal specs always hash (and fingerprint) equal.

    ``check_invariants`` runs the coherence-invariant checker
    (:mod:`repro.trace`) during the simulation.  Checking is pure
    observation — it cannot change a single simulated cycle — so the
    field is *transient*: excluded from equality, hashing and
    :meth:`fingerprint`, meaning checked and unchecked runs share one
    result-store slot.  ``REPRO_CHECK_INVARIANTS=1`` in the environment
    forces it on for every :meth:`run`.

    ``params`` holds *application*-parameter overrides applied on top of
    the preset selected by ``small`` (sizing a workload without minting
    a new preset).  Like ``overrides`` it is normalized to a sorted
    tuple of pairs; it is part of the fingerprint only when non-empty,
    so every spec without it fingerprints as before it existed.
    """

    app: str
    protocol: str
    kind: str = "default"
    n_procs: int = 64
    classify: bool = False
    small: bool = False
    overrides: Tuple[Tuple[str, Any], ...] = field(default=())
    params: Tuple[Tuple[str, Any], ...] = field(default=())
    check_invariants: bool = field(default=False, compare=False)

    #: ``to_dict`` keys that do not affect the simulated numbers and are
    #: therefore excluded from :meth:`fingerprint`.
    TRANSIENT_KEYS = ("check_invariants",)

    def __post_init__(self) -> None:
        over = self.overrides
        if isinstance(over, dict):
            over = over.items()
        object.__setattr__(
            self, "overrides", tuple(sorted((str(k), v) for k, v in over))
        )
        par = self.params
        if isinstance(par, dict):
            par = par.items()
        object.__setattr__(
            self, "params", tuple(sorted((str(k), v) for k, v in par))
        )
        if self.kind not in MACHINE_KINDS:
            raise ValueError(
                f"unknown machine kind {self.kind!r} (expected one of {MACHINE_KINDS})"
            )
        from repro.apps import APPS
        from repro.protocols import REGISTRY

        if self.app not in APPS:
            raise ValueError(f"unknown application {self.app!r}")
        if self.protocol not in REGISTRY:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(REGISTRY)}"
            )
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")

    # -- derived pieces -------------------------------------------------------

    def config(self):
        """The :class:`SystemConfig` this spec describes."""
        from repro.harness.presets import bench_config, future_config

        make = bench_config if self.kind == "default" else future_config
        return make(n_procs=self.n_procs, **dict(self.overrides))

    def app_params(self) -> Dict[str, Any]:
        from repro.harness.presets import APP_PRESETS, APP_PRESETS_SMALL

        base = dict((APP_PRESETS_SMALL if self.small else APP_PRESETS)[self.app])
        base.update(self.params)
        return base

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # -- identity -------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content address of this spec (hex, filename-safe).

        SHA-256 over the canonical JSON of the spec fields plus
        ``SPEC_VERSION`` — identical across processes, sessions and
        machines, independent of ``PYTHONHASHSEED``.  Transient fields
        (``TRANSIENT_KEYS``) are excluded: they cannot change the
        simulated numbers, so they must not split the result cache.
        """
        d = {
            k: v
            for k, v in self.to_dict().items()
            if k not in self.TRANSIENT_KEYS
        }
        # A spec without app-param overrides fingerprints as it did
        # before ``params`` existed, so pinned fingerprints and old
        # result stores stay valid.
        if not d.get("params"):
            d.pop("params", None)
        canon = json.dumps(
            {"spec_version": SPEC_VERSION, **d},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:24]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "kind": self.kind,
            "n_procs": self.n_procs,
            "classify": self.classify,
            "small": self.small,
            "overrides": [[k, v] for k, v in self.overrides],
            "params": [[k, v] for k, v in self.params],
            "check_invariants": self.check_invariants,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExperimentSpec":
        return cls(
            app=d["app"],
            protocol=d["protocol"],
            kind=d["kind"],
            n_procs=d["n_procs"],
            classify=d["classify"],
            small=d["small"],
            overrides=tuple((k, v) for k, v in d["overrides"]),
            params=tuple((k, v) for k, v in d.get("params", ())),
            check_invariants=d.get("check_invariants", False),
        )

    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        extra = "".join(f" {k}={v}" for k, v in self.overrides)
        pextra = "".join(f" {k}={v}" for k, v in self.params)
        return (
            f"{self.app}/{self.protocol}/{self.kind} p={self.n_procs}"
            + (" classify" if self.classify else "")
            + (" small" if self.small else "")
            + extra
            + pextra
        )

    # -- execution ------------------------------------------------------------

    def machine_config(self, shards: int = 1):
        """The :class:`~repro.core.machine.MachineConfig` this spec
        describes, with the observation-only ``REPRO_CHECK_INVARIANTS``
        toggle resolved."""
        # The engine is serial; shards=1 stays accepted for existing callers.
        if shards != 1:
            raise ValueError(f"the simulator is serial; shards={shards}")
        import os

        from repro.core.machine import MachineConfig

        check = self.check_invariants or os.environ.get(
            "REPRO_CHECK_INVARIANTS", ""
        ) not in ("", "0")
        return MachineConfig(
            config=self.config(),
            protocol=self.protocol,
            classify=self.classify,
            check_invariants=check,
        )

    def stream_key(self) -> str:
        """Request key of the recorded stream this spec replays.

        Specs differing only in protocol, timing overrides, or
        observation flags share one key — one recording serves the whole
        sweep (see :mod:`repro.program.stream`)."""
        from repro.program.stream import stream_key

        return stream_key(self.app, self.app_params(), self.config())

    def recorded_stream(self, store=None):
        """This spec's recorded reference streams (recording at most
        once per process; ``store`` adds the on-disk tier)."""
        from repro.program.stream import recorded_stream

        return recorded_stream(
            self.app, self.app_params(), self.config(), store=store
        )

    def run(self):
        """Execute this spec on a fresh machine (no result caching).

        Pure: equal specs produce bit-identical :class:`RunResult`
        numbers (the invariant checker, when enabled, only observes).
        The recorded stream comes from the in-process memo or the
        default store when either has it.  Callers wanting result
        memoization go through :func:`repro.harness.experiments.run_spec`.
        """
        from repro.results.store import default_store

        machine = self.machine_config().build()
        return machine.replay(self.recorded_stream(store=default_store()))
