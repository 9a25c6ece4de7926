import numpy as np
import pytest

from zetaspectra.percolation import Profile
from zetaspectra.validate import VALIDATION_GRID


@pytest.fixture(scope="session")
def gauss_profile():
    return Profile.from_name("gauss", 0.5)


@pytest.fixture(scope="session")
def exp_profile():
    return Profile.from_name("exp", 0.5)


@pytest.fixture(scope="session")
def param_grid():
    """(v, phi1) grid used by the cross-module equivalence checks."""
    return VALIDATION_GRID


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
