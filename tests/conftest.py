import numpy as np
import pytest
from hypothesis import settings

from amalgam.extension import TimeGrid
from amalgam.grid import make_grid

# Tier-1 draws the same examples on every run and keeps no example database
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def desk1():
    """Desk-scale d=1 grid."""
    return make_grid(1, 32, 4096)


@pytest.fixture(scope="session")
def desk2():
    """Desk-scale d=2 grid."""
    return make_grid(2, 8, 256)


@pytest.fixture(scope="session")
def small1():
    return make_grid(1, 16, 1024)


@pytest.fixture(scope="session")
def small2():
    return make_grid(2, 4, 64)


@pytest.fixture(scope="session")
def tg48():
    """Desk-scale time grid."""
    return TimeGrid(1e-3, 64.0, 48)


@pytest.fixture(scope="session")
def tg16():
    return TimeGrid(0.05, 8.0, 16)


def rel_l2(a, b):
    """Relative L^2 distance between two value arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
