"""Batched evaluation against the scalar path, which is the reference.

Property tests over random SPD ellipsoids, bounded polytopes and
superellipses: batched gauges, memberships and potentials reproduce the
scalar ones row by row (the smooth-body gauges bit for bit),
batched Levi matrices reproduce levi_matrix, and polytope vertices,
bounding boxes, Chebyshev radii and support values reproduce HiGHS and
Qhull.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from pshmodels import (Disc1D, Ellipsoid, EllipticTube, Gauge,
                       OutsideDomainError, Polytope, SmoothBody, SpecError,
                       Strip1D, StripTube, Superellipse, levi_line,
                       levi_matrices, levi_matrix, substream)
from strategies import (bodies, ellipsoids, polytopes, superellipses,
                        unit_floats)

SETTINGS = settings(max_examples=40, deadline=None)


def _interior_rows(body, rng, count, reach=0.95):
    """Centers inside the inscribed ball: c + s r u, s < reach."""
    c, r = body.interior_point(), body.inradius()
    u = rng.normal(size=(count, body.dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return c + (reach * r * rng.uniform(size=count))[:, None] * u


def _scalar_gauges(body, X, Y):
    return np.array([body._gauge(x, y) for x, y in zip(X, Y)])


def _rays(body, rng, count):
    """Off-center x, |y| from 1e-3 to 1e3, and y = 0 in the first row."""
    X = _interior_rows(body, rng, count)
    Y = rng.normal(size=X.shape)
    Y *= (10.0 ** rng.uniform(-3.0, 3.0, count)
          / np.linalg.norm(Y, axis=1))[:, None]
    Y[0] = 0.0
    return X, Y


def _assert_gauge_batch_matches_scalar(body, X, Y):
    """Smooth bodies run the scalar root find row by row, so equal bit for
    bit; closed forms round differently in a batch."""
    batch, scalar = body.gauge_batch(X, Y), _scalar_gauges(body, X, Y)
    if isinstance(body, SmoothBody):
        np.testing.assert_array_equal(batch, scalar)
    else:
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_gauge_batch_matches_scalar(body, seed):
    rng = np.random.default_rng(seed)
    _assert_gauge_batch_matches_scalar(body, *_rays(body, rng, 12))
    none = np.empty((0, body.dim))
    assert body.gauge_batch(none, none).shape == (0,)


def _reversed_gradient_disc():
    """Unit disc whose oracle gradient points inward: the slope along a
    ray is negative where the true one is positive."""
    def oracle(w):
        return float(w @ w - 1.0), -2.0 * w, 2.0 * np.eye(2)
    return SmoothBody(oracle, 2, bounding_radius=1.5)


def test_zero_gradient_gauge_batch_matches_scalar(zero_gradient_disc):
    # no Newton step for a slope of 0 or below: every row takes the
    # pure-bisection branch
    for body in (zero_gradient_disc, _reversed_gradient_disc()):
        rng = np.random.default_rng(3)
        _assert_gauge_batch_matches_scalar(body, *_rays(body, rng, 40))
    values, grads = zero_gradient_disc.oracle_batch(np.eye(2))
    np.testing.assert_array_equal(values, [0.0, 0.0])
    np.testing.assert_array_equal(grads, np.zeros((2, 2)))


def _near(values, rng):
    """Each value moved by up to three ulps either way."""
    steps = rng.integers(-3, 4, size=values.shape)
    return values * (1.0 + steps * np.finfo(float).eps)


def _assert_centers_match_contains(body, rng, count):
    """gauge_centers against contains, on rows within three ulps of the
    boundary and on rows anywhere in and around the bounding box."""
    d = rng.normal(size=(count, body.dim))
    edge = d / _scalar_gauges(body, np.zeros_like(d), d)[:, None]
    lo, hi = body.bounding_box()
    X = np.vstack([_near(np.ones((count, 1)), rng) * edge,
                   rng.uniform(2.0 * lo, 2.0 * hi, size=(count, body.dim))])
    np.testing.assert_array_equal(body.gauge_centers(X),
                                  [body.contains(x) for x in X])


@SETTINGS
@given(body=superellipses(), seed=st.integers(0, 2 ** 32 - 1))
def test_gauge_centers_match_contains_at_the_edge(body, seed):
    _assert_centers_match_contains(body, np.random.default_rng(seed), 24)


def test_zero_gradient_centers_match_contains_at_the_edge(
        zero_gradient_disc):
    _assert_centers_match_contains(zero_gradient_disc,
                                   np.random.default_rng(4), 60)


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


def _real_parts(body, rng, count):
    """Centers inside, outside and, for an ellipsoid, within 2e-12 of the
    edge on either side, where the gauge's own rule and contains differ."""
    lo, hi = body.bounding_box()
    X = rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo),
                    size=(count, body.dim))
    X[: count // 3] = _interior_rows(body, rng, count // 3)
    if isinstance(body, Ellipsoid):
        edge = X[count // 3: 2 * (count // 3)]
        radius = np.sqrt(np.einsum("ij,jk,ik->i", edge, body.Q, edge))
        radius[radius == 0.0] = 1.0
        gap = rng.choice([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12],
                         size=len(edge))
        edge *= (np.sqrt(1.0 + gap) / radius)[:, None]
    return X


def _assert_batch_matches_scalar(model, Z):
    member = model.member_batch(Z)
    assert member.dtype == bool and member.shape == (len(Z),)
    np.testing.assert_array_equal(member, [model.member(z) for z in Z])
    np.testing.assert_array_equal(model.potential_batch(Z[member]),
                                  [model.potential(z) for z in Z[member]])


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_member_batch_matches_scalar(body, seed):
    rng = np.random.default_rng(seed)
    X = _real_parts(body, rng, 18)
    lo, hi = body.bounding_box()
    Y = rng.normal(size=X.shape) * (hi - lo) * rng.uniform(0.0, 1.0,
                                                          (len(X), 1))
    Y[0] = 0.0
    for model in (StripTube(Gauge(body)), EllipticTube(body)):
        _assert_batch_matches_scalar(model, X + 1j * Y)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_member_batch_matches_scalar_at_the_edge(seed):
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi, 24)
    rows = rng.normal(size=(24, 2))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    squircle = StripTube(Gauge(Superellipse([1.0, 0.7], 4)))
    level = _near(np.full(24, math.pi / 4), rng)
    edge = level[:, None] * rows / squircle.gauge.batch(rows)[:, None]
    cases = [
        (Strip1D(), (rng.uniform(-1.0, 1.0, 24)
                     + 1j * _near(np.full(24, math.pi / 4), rng)
                     * np.sign(rng.normal(size=24)))[:, None]),
        (Disc1D(), (_near(np.ones(24), rng) * np.exp(1j * angle))[:, None]),
        (squircle, rng.uniform(-1.0, 1.0, (24, 2)) + 1j * edge),
    ]
    for model, Z in cases:
        _assert_batch_matches_scalar(model, Z)


def test_disc_potential_batch_rejects_what_potential_rejects():
    # NumPy's complex abs reads 0.9999999999999999 here, Python's 1.0
    w = -0.9972426976221218 - 0.07420917759518231j
    disc = Disc1D()
    assert not disc.member([w])
    with pytest.raises(OutsideDomainError):
        disc.potential([w])
    with pytest.raises(OutsideDomainError):
        disc.potential_batch([[w]])
    assert not disc.member_batch([[w]])[0]


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
        # HiGHS solves for the unit direction at its tightest dual
        # tolerance: objective coefficients under its default of 1e-7
        # would pass a suboptimal vertex as optimal
        norm = float(np.linalg.norm(a)) or 1.0
        res = linprog(-a / norm, A_ub=body.A, b_ub=body.b,
                      bounds=[(None, None)] * body.dim, method="highs",
                      options={"dual_feasibility_tolerance": 1e-10})
        assert res.success
        expected = -res.fun * norm
        assert abs(body.support(a) - expected) <= 1e-9 * max(1.0, expected)


def _lp_geometry(A, b):
    """Bounding box and Chebyshev radius by HiGHS, and the vertices by
    Qhull's halfspace intersection from the Chebyshev center."""
    n = A.shape[1]
    free = [(None, None)] * n

    def lp(c, A_ub, bounds):
        res = linprog(c, A_ub=A_ub, b_ub=b, bounds=bounds, method="highs")
        assert res.success, res.message
        return res

    lo = np.array([lp(e, A, free).fun for e in np.eye(n)])
    hi = np.array([-lp(-e, A, free).fun for e in np.eye(n)])
    ext = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
    cheb = lp(np.r_[np.zeros(n), -1.0], ext, free + [(0, None)]).x
    if n == 1:
        vertices = np.array([lo, hi])
    else:
        vertices = HalfspaceIntersection(np.hstack([A, -b[:, None]]),
                                         cheb[:-1]).intersections
    return lo, hi, cheb[-1], vertices


def _assert_matches_lp_geometry(body):
    """Vertices as a set to 1e-9 against Qhull; bounding box and radius to
    1e-7 against HiGHS, whose presolve drops coefficients below 1e-9."""
    lo, hi, radius, vertices = _lp_geometry(body.A, body.b)
    scale = max(1.0, float(np.max(np.abs(vertices))))
    tol, lp_tol = 1e-9 * scale, 1e-7 * scale
    ours = body._vertices
    gaps = np.max(np.abs(ours[:, None, :] - vertices[None, :, :]), axis=2)
    assert np.all(np.min(gaps, axis=1) <= tol), "a vertex Qhull lacks"
    assert np.all(np.min(gaps, axis=0) <= tol), "a Qhull vertex is missing"
    pairs = np.max(np.abs(ours[:, None, :] - ours[None, :, :]), axis=2)
    assert np.all(pairs[np.triu_indices(len(ours), 1)] > tol), \
        "a vertex is listed twice"
    box_lo, box_hi = body.bounding_box()
    np.testing.assert_allclose(box_lo, lo, rtol=0, atol=lp_tol)
    np.testing.assert_allclose(box_hi, hi, rtol=0, atol=lp_tol)
    assert abs(body.inradius() - radius) <= lp_tol
    center = body.interior_point()
    assert np.all(body.A @ center + np.linalg.norm(body.A, axis=1)
                  * body.inradius() <= body.b + tol), "ball leaves the body"


@SETTINGS
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(body=polytopes())
def test_polytope_geometry_matches_lp_and_qhull(body):
    _assert_matches_lp_geometry(body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_many_halfspaces_build_in_bounded_memory():
    # 40 unit normals in 3-D: 91,390 Chebyshev subsystems, solved in
    # chunks; in one stacked call the build peaked at about 120 MiB
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 3))
    A /= np.linalg.norm(A, axis=1)[:, None]
    tracemalloc.start()
    try:
        body = Polytope(A, np.ones(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20
    _assert_matches_lp_geometry(body)


SQUARE_A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
PYRAMID_A = [[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A, b, count", [
    (SQUARE_A + [[1, 0], [2, 0]], [1, 1, 1, 1, 1, 2], 4),  # duplicates
    (SQUARE_A + [[1, 1], [1, 1]], [1, 1, 1, 1, 5, 2], 4),  # redundant
    (SQUARE_A + [[0, 0]], [1, 1, 1, 1, 3], 4),  # zero row, b > 0
    (PYRAMID_A, [0, 1, 1, 1, 1], 5),  # four facets meet at the apex
    ([[1], [-1], [2], [-3]], [2, 1, 8, 6], 2),  # redundant in 1-D
    (SQUARE_A + [[2.225073858507e-311, 1]], [1, 1, 1, 1, 1], 4),
], ids=["duplicate", "redundant", "zero-row", "pyramid", "interval",
        "subnormal"])
def test_polytope_geometry_on_degenerate_input(A, b, count):
    body = Polytope(A, b)
    assert len(body._vertices) == count
    _assert_matches_lp_geometry(body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_unique_chebyshev_center():
    # the 2 x 1 rectangle: every center on the segment |x| <= 0.5, y = 0
    body = Polytope(SQUARE_A, [1, 1, 0.5, 0.5])
    _assert_matches_lp_geometry(body)
    assert body.inradius() == 0.5
    x, y = body.interior_point()
    assert abs(x) <= 0.5 and y == 0.0
    # the tie resolves to the mean of the optimal vertices (+-0.5, 0)
    assert body.interior_point().tolist() == [0.0, 0.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-310, 1e-150, 1e150, 1e300])
def test_polytope_geometry_ignores_row_scale(scale):
    # rows are normalized before any determinant, norm or residual, so
    # nothing overflows, and subnormal rows meet no subnormal pivot
    body = Polytope(np.array(SQUARE_A) * scale, np.ones(4) * scale)
    np.testing.assert_array_equal(np.sort(np.abs(body._vertices), axis=0),
                                  np.ones((4, 2)))
    assert body.inradius() == 1.0
    assert body.interior_point().tolist() == [0.0, 0.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subsystem_solved_past_the_float_range_is_dropped():
    # the first two halfspaces meet at x = 2 b / 1e-12, past the float
    # range; the body is the triangle cut by the other three
    b = 2.0 ** 983
    body = Polytope(np.array([[0, 1], [1e-12, -1], [1, -1], [-1, -1]]),
                    np.full(4, b))
    np.testing.assert_allclose(sorted(body._vertices.tolist()),
                               [[-2 * b, b], [0, -b], [2 * b, b]],
                               rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A, b, message", [
    ([[0, 1], [0, -1]], [1, 1], "unbounded"),  # rank 1 < 2
    ([[0, 1], [0, -1], [0, 2]], [1, 1, 3], "unbounded"),
    ([[-1, 0], [0, -1], [1, -1]], [1, 1, 1], "unbounded"),  # ray (1, 1)
    ([[1], [2]], [1, 3], "unbounded"),  # one-sided in 1-D
    ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
     [1, 1, 1, 1, 1], "unbounded"),  # open below in z
    (SQUARE_A + [[1, 0]], [1, 1, 1, 1, -2], "empty interior"),  # empty
    (SQUARE_A, [1, 1, 0, 0], "empty interior"),  # flat: r = 0
    (SQUARE_A, [1, 1, 0.25, -0.25], "empty interior"),  # flat, offset
    (SQUARE_A + [[0, 0]], [1, 1, 1, 1, 0], "empty interior"),  # 0 < 0
    ([[]], [1], "dimension"),
], ids=["rank-deficient", "rank-deficient-3", "cone", "cone-1d",
        "cone-3d", "empty", "flat", "flat-offset", "zero-row", "no-dim"])
def test_polytope_rejections(A, b, message):
    with pytest.raises(SpecError, match=message):
        Polytope(A, b)
