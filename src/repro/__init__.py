"""repro — Lazy Release Consistency for Hardware-Coherent Multiprocessors.

A full reproduction of Kontothanassis, Scott & Bianchini (Supercomputing
'95): an execution-driven simulator for a mesh-connected multiprocessor
with programmable protocol processors, four coherence protocols
(sequentially consistent, eager RC, lazy RC, and the lazier
deferred-notice variant), the seven SPLASH-style applications of the
paper's evaluation, and a harness that regenerates every table and
figure.

There are two ways in.  :func:`simulate` builds an application against
a fresh context and runs it on the machine you describe::

    from repro import SystemConfig, simulate
    from repro.apps import Gauss

    lazy  = simulate(Gauss, SystemConfig.scaled(n_procs=16), "lrc", n=64)
    eager = simulate(Gauss, SystemConfig.scaled(n_procs=16), "erc", n=64)
    print(lazy.exec_time / eager.exec_time)

A preset experiment (an app by name on a Table 1 or Section 4.3
machine) is an :class:`ExperimentSpec` run through :func:`run_spec`,
which memoizes it and, with a result store, caches it on disk; every
table and figure is rendered from such specs (see
``python -m repro figures --help``)::

    from repro import ExperimentSpec, run_spec

    result = run_spec(ExperimentSpec("mp3d", "lrc", n_procs=16, small=True))
"""

from repro.config import SystemConfig
from repro.core.api import simulate
from repro.core.machine import Machine, RunResult
from repro.harness.spec import ExperimentSpec
from repro.results.store import ResultStore


def run_spec(spec, **kwargs):
    """Memoized spec execution — see :func:`repro.harness.experiments.run_spec`.

    (A lazy indirection: importing :mod:`repro` must not pull in the whole
    harness, which imports every application.)
    """
    from repro.harness.experiments import run_spec as _run_spec

    return _run_spec(spec, **kwargs)


__version__ = "1.1.0"

__all__ = [
    "SystemConfig",
    "Machine",
    "RunResult",
    "ExperimentSpec",
    "ResultStore",
    "run_spec",
    "simulate",
    "__version__",
]
