import faulthandler
import os
import sys

import pytest

from varietal.base import PresheafMorphism, parallel_pair_index, trivial_index
from varietal.catalog import (
    global_state_presentation,
    monoid_presentation,
    semilattice_presentation,
)


# a test still running after this many seconds is taken to hang: every
# thread's stack goes to stderr and the run ends with exit code 1
HANG_S = 120


def pytest_configure(config):
    # a copy of the real stderr, which output capture leaves in place
    config.hang_stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.hang_stderr)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(HANG_S, exit=True,
                                      file=item.config.hang_stderr)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def I():
    return trivial_index()


@pytest.fixture(scope="session")
def B():
    return parallel_pair_index()


@pytest.fixture(scope="session")
def semilattice():
    return semilattice_presentation()


@pytest.fixture(scope="session")
def monoid():
    return monoid_presentation()


@pytest.fixture(scope="session")
def global_state():
    return global_state_presentation(2, 1)


@pytest.fixture
def count_morphism_calls(monkeypatch):
    """Call it to start counting ``PresheafMorphism.then`` and
    ``__post_init__`` calls; the counts it returns stay live."""
    def start():
        calls = {"then": 0, "__post_init__": 0}
        for name in calls:
            def counted(*args, real=getattr(PresheafMorphism, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(PresheafMorphism, name, counted)
        return calls
    return start
