"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import delta_d22x, dgx_a100, ibm_ac922
from repro.runtime import Machine
from repro.sim.engine import Environment
from repro.sim.flows import FlowNetwork


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def net(env) -> FlowNetwork:
    """A fresh flow network."""
    return FlowNetwork(env)


@pytest.fixture
def ac922() -> Machine:
    """A functional-mode IBM AC922 machine."""
    return Machine(ibm_ac922(), scale=1)


@pytest.fixture
def delta() -> Machine:
    """A functional-mode DELTA D22x machine."""
    return Machine(delta_d22x(), scale=1)


@pytest.fixture
def dgx() -> Machine:
    """A functional-mode DGX A100 machine."""
    return Machine(dgx_a100(), scale=1)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def copy_oracle(monkeypatch):
    """Check every copy of the test against its issue-time source bytes.

    See :mod:`tests.runtime.copy_oracle`; fails the test if a copy
    landed other bytes than it was issued with.
    """
    from tests.runtime.copy_oracle import install

    oracle = install(monkeypatch)
    yield oracle
    oracle.assert_clean()
