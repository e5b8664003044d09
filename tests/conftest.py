import pytest

from varietal.base import PresheafMorphism, parallel_pair_index, trivial_index
from varietal.catalog import (
    global_state_presentation,
    monoid_presentation,
    semilattice_presentation,
)


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
