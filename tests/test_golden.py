"""Golden regression fixtures: exact cycle counts and miss
classifications for small configurations, checked into ``tests/golden/``.

The simulator is deterministic (DESIGN.md §7), so these numbers must be
bit-identical run over run; any drift means a protocol or timing change,
which is either a bug or an intentional change that should be reviewed
and then blessed with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.harness import ExperimentSpec, run_spec

GOLDEN_DIR = Path(__file__).parent / "golden"
PROTOCOLS = ("sc", "erc", "lrc", "lrc-ext", "tardis")

#: Apps snapshotted (small presets keep the run fast): the SPLASH seven
#: plus the service-shaped workloads (DESIGN.md §13).
CASES = (
    "gauss", "fft", "blu", "barnes", "cholesky", "locusroute", "mp3d",
    "kvstore", "taskqueue", "pubsub",
)
N_PROCS = 4


def snapshot(app: str) -> dict:
    out = {"app": app, "n_procs": N_PROCS, "protocols": {}}
    for proto in PROTOCOLS:
        r = run_spec(
            ExperimentSpec(app, proto, n_procs=N_PROCS, small=True, classify=True)
        )
        out["protocols"][proto] = {
            "exec_time": r.exec_time,
            "references": r.stats.references,
            "misses": r.stats.misses,
            "total_messages": r.traffic.total_messages,
            "classification": r.classifier.to_dict(),
        }
    return out


def diff_lines(want: dict, got: dict, prefix: str = "") -> list:
    lines = []
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key), got.get(key)
        if isinstance(w, dict) and isinstance(g, dict):
            lines += diff_lines(w, g, f"{prefix}{key}.")
        elif w != g:
            lines.append(f"  {prefix}{key}: golden {w!r} != current {g!r}")
    return lines


@pytest.mark.parametrize("app", CASES)
def test_golden_snapshot(app, update_golden):
    path = GOLDEN_DIR / f"{app}_p{N_PROCS}.json"
    got = snapshot(app)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture rewritten: {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"`pytest tests/test_golden.py --update-golden`"
    )
    want = json.loads(path.read_text())
    if want != got:
        diff = "\n".join(diff_lines(want, got))
        pytest.fail(
            f"{app}: simulator output drifted from {path.name}:\n{diff}\n"
            f"If the change is intentional, re-bless with --update-golden.",
            pytrace=False,
        )
