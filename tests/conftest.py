"""Shared fixtures. Heavy coefficient tables are built once per session."""
import pytest

from su11sim import PhaseGrid, make_model
from su11sim.measurement import Scheme
import su11sim.ensemble as ensemble
import su11sim.tmsq as tmsq


@pytest.fixture(scope="session")
def grid():
    return PhaseGrid()


@pytest.fixture(scope="session")
def photon_model():
    return make_model(Scheme.PHOTON_NUMBER, 4.0)


@pytest.fixture(scope="session")
def optimal_model():
    return make_model(Scheme.OPTIMAL, 4.0)


@pytest.fixture
def usable_cpus(monkeypatch):
    """pin(count): every table pass and campaign of the test sees `count`
    usable CPUs, through tmsq._usable_cpus, the one place that counts them."""

    def pin(count: int) -> None:
        monkeypatch.setattr(tmsq, "_usable_cpus", lambda: count)

    return pin


@pytest.fixture
def start_method(monkeypatch):
    """use(method): every campaign's child processes start by `method`
    ("fork", "forkserver" or "spawn"), through ensemble._START_METHOD."""

    def use(method: str) -> None:
        monkeypatch.setattr(ensemble, "_START_METHOD", method)

    return use
