import numpy as np
import pytest
from hypothesis import settings

from amalgam.crsys import (ConjugateField, caloric_cr_residual, harmonic_cr_residual,
                           majorization_report, sup_vector_amalgam_norm)
from amalgam.extension import TimeGrid, extend
from amalgam.grid import make_grid
from amalgam.hardy import caloric_lift, harmonic_lift
from amalgam.spectral import riesz

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


def stored(f, tg, flavor):
    """The field of a lift built from whole extension stacks."""
    kernel = "poisson" if flavor == "harmonic" else "heat"
    gs = [riesz(f, j) for j in range(1, f.spec.d + 1)] + [f]
    return ConjugateField(tuple(extend(g, kernel, tg) for g in gs), flavor)


def lifted_and_stored_reports(f, tg):
    """Every walk's output on the lifted and the stored field of both lifts:
    per-slice residuals, sup-vector norms (a caloric field's both before its
    residual and from the |F| record the residual walk keeps), majorization
    and the stacks."""
    es = [(1.5, 1.5), (1.0, 2.0), (3.0, 1.2)]
    out = []
    for F, G, Q in ((harmonic_lift(f, tg), caloric_lift(f, tg), caloric_lift(f, tg)),
                    (stored(f, tg, "harmonic"), stored(f, tg, "caloric"), stored(f, tg, "caloric"))):
        maj = majorization_report(F)
        out.append({
            "harmonic": harmonic_cr_residual(F).per_slice,
            "harmonic_sup": [sup_vector_amalgam_norm(F, e) for e in es],
            "majorization": [maj.max_violation, maj.peak, maj.per_slice],
            "sup": [sup_vector_amalgam_norm(G, e) for e in es],
            "spectral": caloric_cr_residual(G, "spectral").per_slice,
            "sup_recorded": [sup_vector_amalgam_norm(G, e) for e in es],
            "quadrature": caloric_cr_residual(Q, "quadrature").per_slice,
            "stacks": [c.values for c in F.components + Q.components],
        })
    return out


def assert_same_bits(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_bits(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    else:
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
