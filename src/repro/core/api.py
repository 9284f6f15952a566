"""One-call simulation of a context-built application.

>>> from repro import simulate, SystemConfig
>>> from repro.apps import Gauss
>>> result = simulate(Gauss, SystemConfig.scaled(n_procs=8), "lrc", n=32)
>>> result.exec_time > 0
True

Preset experiments (an app *name* on a Table 1 or Section 4.3 machine)
go through :class:`repro.harness.spec.ExperimentSpec` and
:func:`repro.harness.experiments.run_spec` instead; both paths record
the app once and replay it on a fresh machine.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.config import SystemConfig
from repro.core.machine import MachineConfig, RunResult


def simulate(
    app_cls: Type,
    config: Optional[SystemConfig] = None,
    protocol: str = "lrc",
    classify: bool = False,
    **app_params,
) -> RunResult:
    """Build ``app_cls`` against a fresh context and run it.

    ``protocol`` names the coherence protocol the machine runs;
    ``classify=True`` attaches a miss classifier (Table 2 categories) to
    the result.  ``app_params`` go to ``app_cls``.
    """
    from repro.apps.common import AppContext
    from repro.program.stream import RecordedStream

    cfg = config or SystemConfig()
    app = app_cls(AppContext(cfg), **app_params)
    mc = MachineConfig(config=cfg, protocol=protocol, classify=classify)
    return mc.build().replay(RecordedStream.record(app))
