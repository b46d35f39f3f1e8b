"""Shared fixtures. Heavy coefficient tables are built once per session."""
import pytest

from su11sim import PhaseGrid, make_model
from su11sim.measurement import Scheme


@pytest.fixture(scope="session")
def grid():
    return PhaseGrid()


@pytest.fixture(scope="session")
def photon_model():
    return make_model(Scheme.PHOTON_NUMBER, 4.0)


@pytest.fixture(scope="session")
def optimal_model():
    return make_model(Scheme.OPTIMAL, 4.0)
