"""The runnable examples under ``examples/`` still run and still show
what their docstrings claim."""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_protocol_anatomy_shows_dirty_then_weak(capsys):
    runpy.run_path(str(EXAMPLES / "protocol_anatomy.py"), run_name="__main__")
    states = re.findall(r"state=(\w+)", capsys.readouterr().out)
    # Producer's write miss, consumer's read of the dirty line, and the
    # consumer's acquire dropping its copy again (Figure 1).
    assert states == ["DIRTY", "WEAK", "DIRTY"]
