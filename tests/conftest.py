"""Shared pytest plumbing for the tier-1 suite."""

import os

import pytest

from repro.engine.watchdog import DEFAULT_STALL_CYCLES, ENV_STALL_CYCLES

# The stall watchdog is on for every machine built under pytest (unless
# a test pins its own budget): a livelocked simulation becomes a
# diagnosable SimulationStall instead of a hung test run.  Watchdog
# checks are pure observation, so simulated numbers are unchanged.
os.environ.setdefault(ENV_STALL_CYCLES, str(DEFAULT_STALL_CYCLES))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ regression fixtures from the "
        "current simulator output instead of comparing against them",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")
