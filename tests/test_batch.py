"""Batched evaluation against the scalar path, which is the reference.

Property tests over random SPD ellipsoids and bounded polytopes: batched
gauges and potentials reproduce the scalar ones row by row, batched Levi
matrices reproduce levi_matrix, and vertex support values reproduce an LP.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from pshmodels import (Disc1D, Ellipsoid, EllipticTube, Gauge,
                       OutsideDomainError, Polytope, Strip1D, StripTube,
                       levi_line, levi_matrices, levi_matrix, substream)

SETTINGS = settings(max_examples=40, deadline=None)
dims = st.integers(min_value=1, max_value=3)
unit_floats = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def ellipsoids(draw):
    n = draw(dims)
    L = draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    eps = draw(st.floats(min_value=0.05, max_value=2.0))
    return Ellipsoid(L @ L.T + eps * np.eye(n))


@st.composite
def polytopes(draw):
    """Bounded by an axis box around the origin, cut by extra halfspaces
    that keep the origin inside."""
    n = draw(dims)
    box = draw(arrays(float, 2 * n, elements=st.floats(0.5, 3.0)))
    extra = draw(st.integers(min_value=0, max_value=4))
    normals = draw(arrays(float, (extra, n), elements=unit_floats))
    offsets = draw(arrays(float, extra, elements=st.floats(0.2, 2.0)))
    eye = np.eye(n)
    A = np.vstack([eye, -eye, normals])
    b = np.concatenate([box, offsets])
    keep = np.any(A, axis=1)
    return Polytope(A[keep], b[keep])


bodies = st.one_of(ellipsoids(), polytopes())


def _interior_rows(body, rng, count, reach=0.95):
    """Centers inside the inscribed ball: c + s r u, s < reach."""
    c, r = body.interior_point(), body.inradius()
    u = rng.normal(size=(count, body.dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return c + (reach * r * rng.uniform(size=count))[:, None] * u


def _scalar_gauges(body, X, Y):
    return np.array([body._gauge(x, y) for x, y in zip(X, Y)])


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_gauge_batch_matches_scalar(body, seed):
    rng = np.random.default_rng(seed)
    X = _interior_rows(body, rng, 12)
    Y = rng.normal(scale=2.0, size=X.shape)
    Y[0] = 0.0
    np.testing.assert_allclose(body.gauge_batch(X, Y),
                               _scalar_gauges(body, X, Y), rtol=1e-13, atol=0)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1),
       row=st.integers(0, 5))
def test_gauge_batch_rejects_an_outside_center(body, seed, row):
    rng = np.random.default_rng(seed)
    X = _interior_rows(body, rng, 6)
    Y = rng.normal(size=X.shape)
    lo, hi = body.bounding_box()
    X[row] = hi + (hi - lo)  # beyond the bounding box
    with pytest.raises(OutsideDomainError):
        body._gauge(X[row], Y[row])
    with pytest.raises(OutsideDomainError):
        body.gauge_batch(X, Y)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_potential_batch_matches_scalar(body, seed):
    for model in (StripTube(Gauge(body)), EllipticTube(body)):
        Z = np.array([model.sample_member(substream(seed, k))
                      for k in range(10)])
        np.testing.assert_allclose(model.potential_batch(Z),
                                   [model.potential(z) for z in Z],
                                   rtol=1e-13, atol=0)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_one_dimensional_potential_batch_matches_scalar(seed):
    for model in (Strip1D(), Disc1D()):
        Z = np.array([model.sample_member(substream(seed, k))
                      for k in range(10)])
        np.testing.assert_array_equal(model.potential_batch(Z),
                                      [model.potential(z) for z in Z])


def test_potential_batch_rejects_an_outside_row(unit_ball):
    tube = EllipticTube(unit_ball)
    Z = np.array([[0.1 + 0.2j, 0.3j], [0.0, 1.5j]])
    with pytest.raises(OutsideDomainError):
        tube.potential(Z[1])
    with pytest.raises(OutsideDomainError):
        tube.potential_batch(Z)
    with pytest.raises(OutsideDomainError):
        StripTube(Gauge(unit_ball)).potential_batch(Z)


def _polarized(field, z, h):
    """Levi matrix assembled here from levi_line by polarization."""
    n = z.size
    eye = np.eye(n, dtype=complex)
    A = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                A[j, j] = levi_line(field, z, eye[j], h)
                continue
            line = [levi_line(field, z, eye[j] + s * eye[k], h)
                    for s in (1, -1, 1j, -1j)]
            A[j, k] = 0.25 * ((line[0] - line[1]) + 1j * (line[2] - line[3]))
    return A


@SETTINGS
@given(body=ellipsoids(), seed=st.integers(0, 2 ** 32 - 1))
def test_levi_matrices_match_levi_matrix(body, seed):
    h = 1e-3 * body.inradius()
    for model in (StripTube(Gauge(body)), EllipticTube(body)):
        Z = np.array([model.sample_fd_safe(substream(seed, k), h)
                      for k in range(4)])
        batched = levi_matrices(model.potential_batch, Z, h)
        for z, A in zip(Z, batched):
            for scalar in (levi_matrix(model.potential, z, h).matrix,
                           _polarized(model.potential, z, h)):
                bound = 1e-8 * max(1.0, float(np.max(np.abs(scalar))))
                assert np.max(np.abs(A - scalar)) <= bound


@SETTINGS
@given(body=polytopes(), directions=arrays(float, (6, 3),
                                           elements=unit_floats))
def test_vertex_support_matches_lp(body, directions):
    for a in directions[:, :body.dim]:
        res = linprog(-a, A_ub=body.A, b_ub=body.b,
                      bounds=[(None, None)] * body.dim, method="highs")
        assert res.success
        assert abs(body.support(a) - (-res.fun)) <= 1e-9 * max(1.0, -res.fun)
