import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import storagesddp as s
from oracles import train_recording

TOY = {
    "horizon": 3,
    "market": {"day_ahead": [45.0, 60.0, 35.0]},
    "battery": {"alpha": 0.4},
    "utility": {"rho": 0.03},
    "sddp": {"quadrature_points": 2, "iterations": 200, "seed": 7},
    "simulate": {"scenarios": 400, "seed": 11},
}


@pytest.fixture(scope="session")
def toy_config():
    return s.config_from_dict(TOY)


@pytest.fixture(scope="session")
def toy_problem(toy_config):
    return s.build_problem(toy_config)


@pytest.fixture(scope="session")
def toy_chain(toy_config):
    return s.build_chain_for(toy_config)


@pytest.fixture(scope="session")
def toy_trained(toy_problem, toy_chain):
    return s.train(toy_problem, toy_chain, 200, 7)


@pytest.fixture(scope="session")
def default_config():
    return s.RunConfig()


@pytest.fixture(scope="session")
def default_problem(default_config):
    return s.build_problem(default_config)


@pytest.fixture(scope="session")
def trained_n8_recorded(default_problem, default_config):
    """Reference run: defaults, 8 quadrature points, 300 iterations.

    Returns ``(policy, log, cuts)``, ``cuts`` every cut training appended
    to each node (`oracles.train_recording`).
    """
    chain = s.build_chain_for(default_config)
    return train_recording(default_problem, chain, 300, 0)


@pytest.fixture(scope="session")
def trained_n8(trained_n8_recorded):
    """The reference run's ``(policy, log)``."""
    return trained_n8_recorded[:2]
