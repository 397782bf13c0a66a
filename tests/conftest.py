"""Shared fixtures: the heavier bases are built once per session."""

import numpy as np
import pytest

import prolate as P


@pytest.fixture(scope="session")
def disk_c5():
    return P.compute_disk_basis(5.0, m_max=10, n_max=8)


@pytest.fixture(scope="session")
def disk_c10():
    return P.compute_disk_basis(10.0, m_max=9, n_max=6)


@pytest.fixture(scope="session")
def scaled_c6():
    """Scaled basis on the data disk D = B(0, 3) for k = 1, c_F = 6."""
    return P.compute_disk_basis(6.0, m_max=5, n_max=4).dilated(3.0)


@pytest.fixture(scope="session")
def symset_disk_c5():
    geo = P.Geometry.disk(radius=1.0, h=1.0)
    quad = P.build_quadrature(geo, 200, method="polar")
    return P.compute_symset_basis(5.0, geo, quad, 80)


def weighted_norm(w, v):
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2)))


@pytest.fixture(scope="session")
def wnorm():
    return weighted_norm
