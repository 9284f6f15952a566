"""Convenience entry points.

>>> from repro import simulate, SystemConfig
>>> from repro.apps import Gauss
>>> result = simulate(Gauss, SystemConfig.scaled(n_procs=8), "lrc", n=32)
>>> result.exec_time > 0
True

All three entry points share one signature shape —
``(..., protocol: str, classify: bool)`` — and one meaning for the two
keywords: ``protocol`` names the coherence protocol the machine runs,
``classify`` asks for a :class:`repro.stats.classification.MissClassifier`
to observe the run.  Machines are assembled through
:class:`~repro.core.machine.MachineConfig` (one value object instead of
loose ``Machine(...)`` kwargs), and apps are recorded once and replayed
— the same path :meth:`repro.harness.spec.ExperimentSpec.run` takes.

:func:`run_app` accepts an app in two shapes:

* an **app name** (``"gauss"``) — the call is literally a thin wrapper
  over :class:`~repro.harness.spec.ExperimentSpec`: the spec is built
  from the keyword arguments and run through the standard harness path;
* a **context-built instance** (``Gauss(AppContext(cfg), ...)``) —
  ``protocol`` / ``classify`` configure a fresh machine, exactly as in
  :func:`simulate`.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.config import SystemConfig
from repro.core.machine import Machine, MachineConfig, RunResult


def build_machine(
    config: Optional[SystemConfig] = None,
    protocol: str = "lrc",
    classify: bool = False,
) -> Machine:
    """Create a machine with the given (or default) configuration.

    ``classify=True`` attaches a miss classifier (Table 2 categories);
    the classifier of the returned machine's :class:`RunResult` is
    populated after the run.
    """
    return MachineConfig(
        config=config or SystemConfig(), protocol=protocol, classify=classify
    ).build()


def _run_context_app(app, mc: MachineConfig) -> RunResult:
    """Record a context-built app and replay it on a fresh machine
    described by ``mc``."""
    from repro.program.stream import RecordedStream

    return mc.build().replay(RecordedStream.record(app))


def run_app(
    app,
    protocol: Optional[str] = None,
    classify: Optional[bool] = None,
    **spec_fields,
) -> RunResult:
    """Run an application, by name or as a context-built instance.

    Given an app *name*, this is a thin wrapper over
    :class:`~repro.harness.spec.ExperimentSpec` — ``spec_fields``
    (``n_procs``, ``small``, ``overrides``, ...) go straight into the
    spec, and the run flows through the same record/replay machinery as
    :func:`repro.harness.experiments.run_experiment`.

    Given a *context-built* instance, ``protocol`` and ``classify``
    configure a fresh machine, defaulting to ``"lrc"`` / ``False``.
    """
    if isinstance(app, str):
        from repro.harness.spec import ExperimentSpec

        spec = ExperimentSpec(
            app=app,
            protocol=protocol or "lrc",
            classify=bool(classify),
            **spec_fields,
        )
        return spec.run()
    if spec_fields:
        raise TypeError(
            "spec fields (n_procs, small, ...) apply only when running an "
            "app by name"
        )
    mc = MachineConfig(
        config=app.cfg, protocol=protocol or "lrc", classify=bool(classify)
    )
    return _run_context_app(app, mc)


def simulate(
    app_cls: Type,
    config: Optional[SystemConfig] = None,
    protocol: str = "lrc",
    classify: bool = False,
    **app_params,
) -> RunResult:
    """One-call simulation: build app against a fresh context, run it.

    ``protocol`` and ``classify`` configure the machine
    (see :func:`build_machine`); ``app_params`` go to ``app_cls``.
    """
    from repro.apps.common import AppContext

    cfg = config or SystemConfig()
    app = app_cls(AppContext(cfg), **app_params)
    return _run_context_app(
        app, MachineConfig(config=cfg, protocol=protocol, classify=classify)
    )
