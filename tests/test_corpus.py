"""Replay every committed fuzz reproducer in ``tests/corpus/``.

Each file is a ``repro fuzz --out`` report; the test replays it the way
``repro fuzz --replay`` does (minimized program, the campaign's own
delivery mode) and expects every reproducer to run clean.  Reports of
bugs not yet fixed are strict xfails, so the fix turns them into plain
regression tests.
"""

from pathlib import Path

import pytest

from repro.conformance.fuzz import replay_reproducer

CORPUS = Path(__file__).parent / "corpus"

#: Reproducers that still fail, with the reason.
KNOWN_FAILURES = {
    "tardis-seed31-service.json":
        "ROADMAP item 12: same-node write-throughs overtake",
    "lrc-seed282-auto.json":
        "ROADMAP item 12: same-node write-throughs overtake",
}


def _cases():
    for path in sorted(CORPUS.glob("*.json")):
        reason = KNOWN_FAILURES.get(path.name)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(path, marks=marks, id=path.stem)


@pytest.mark.parametrize("path", _cases())
def test_reproducer_replays_clean(path):
    assert replay_reproducer(str(path)) == 0
