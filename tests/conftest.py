"""Shared fixtures and independent numerical oracles for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from pshmodels import Ellipsoid, Polytope, SmoothBody, Superellipse, interval


def bisect_gauge(contains, x, y, iters: int = 120) -> float:
    """Independent gauge oracle: binary search on t -> (x + y/t inside).

    Deliberately reimplemented from scratch (geometric scan plus fixed
    iteration count) so closed forms are checked against a second route.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        return 0.0
    hi = 1.0
    while not contains(x + y / hi):
        hi *= 4.0
        assert hi < 1e60, "oracle failed to bracket from above"
    lo = hi
    while contains(x + y / lo):
        lo /= 4.0
        if lo < 1e-60:
            break
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        if contains(x + y / mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fd_hessian(fn, y, h):
    """Plain central-difference Hessian of a scalar function of y."""
    y = np.asarray(y, dtype=float)
    n = y.size
    H = np.empty((n, n))
    eye = np.eye(n)
    f0 = fn(y)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                H[i, i] = (fn(y + h * eye[i]) - 2 * f0 + fn(y - h * eye[i])) / h**2
            else:
                H[i, j] = H[j, i] = (
                    fn(y + h * (eye[i] + eye[j]))
                    - fn(y + h * (eye[i] - eye[j]))
                    - fn(y - h * (eye[i] - eye[j]))
                    + fn(y - h * (eye[i] + eye[j]))
                ) / (4 * h**2)
    return H


@pytest.fixture(scope="session")
def unit_square():
    return Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


@pytest.fixture(scope="session")
def unit_ball():
    return Ellipsoid(np.eye(2))


@pytest.fixture(scope="session")
def ellipsoid14():
    return Ellipsoid(np.diag([1.0, 4.0]))


@pytest.fixture(scope="session")
def interval_sym():
    return interval(-1.0, 1.0)


@pytest.fixture(scope="session")
def interval_asym():
    return interval(-1.0, 2.0)


@pytest.fixture(scope="session")
def squircle():
    return Superellipse([1.0, 0.7], power=4)


@pytest.fixture(scope="session")
def zero_gradient_disc():
    """Unit disc whose oracle gradient is zero: no Newton step is possible,
    so its gauge rests on the bisection safeguard alone."""
    def oracle(w):
        return float(w @ w - 1.0), np.zeros(2), 2.0 * np.eye(2)
    return SmoothBody(oracle, 2, bounding_radius=1.5)
