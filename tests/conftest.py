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


def _tailed_closed_paths(adj, k):
    """Closed backtrackless paths of length k >= 1 whose last step may reverse
    their first: tr(B^(k-1) J) on the darts, where J[(a, b), (c, d)] = [b = c]
    closes the path.  It is zeta.count_closed_paths without its tailless
    condition, the fault that the mutation checks inject."""
    tails, heads = np.nonzero(np.asarray(adj))
    follows = (heads[:, None] == tails[None, :]).astype(np.int64)
    step = follows * (tails[:, None] != heads[None, :])
    return int(np.trace(np.linalg.matrix_power(step, k - 1) @ follows))


@pytest.fixture(scope="session")
def tailed_closed_paths():
    return _tailed_closed_paths
