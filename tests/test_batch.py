"""Batched evaluation against the former one-point code, the reference.

Property tests over random SPD ellipsoids, bounded polytopes and
superellipses: batched gauges and memberships reproduce the former
one-point formulas of the bodies kept here, and the smooth-body gauges
the scalar root find, bit for bit; the mask and gauge pair of one center
pass reproduce the former center rule and the two former gauge batches
at y and -y kept here, bit for bit; batched model memberships and
potentials reproduce the former one-point formulas kept here, the batched
samplers and support values reproduce the former scalar code byte for byte,
and the schwarz suite's one draw per row its former three, batched Levi
matrices reproduce levi_matrix, the residuals of both Richardson steps
from one call the former two calls, the potential's arctangent mean the
former per-pair loop, smooth-body gauge Hessians
the former one-stencil-per-row loop kept here, and polytope vertices,
bounding boxes, Chebyshev radii and support values reproduce HiGHS and
Qhull.
"""
import cmath
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from pshmodels import maximality, models, suites
from pshmodels import (QUARTER_PI, ConvergenceError, Disc1D, Ellipsoid,
                       EllipticTube, Gauge, OutsideDomainError, Polytope,
                       SmoothBody, SpecError, Strip1D, StripTube,
                       Superellipse, chart, levi_line, levi_matrices,
                       levi_matrix, model_from_spec, substream,
                       unit_disc_point, unit_vector)
from pshmodels.bodies import _matvec, _rowdot
from pshmodels.cli import main
from pshmodels.sampling import unit_disc_points, unit_vectors
from pshmodels.levi import tube_levi_residual_batch
from pshmodels.stencils import (central_differences, pair_directions,
                                second_differences)
from pshmodels.suites import TOL_DEFAULTS, CheckReport, schwarz_excess
from strategies import (bodies, ellipsoids, polytopes, superellipses,
                        unit_floats)

SETTINGS = settings(max_examples=40, deadline=None)
ROOT = Path(__file__).resolve().parents[1]


def _interior_rows(body, rng, count, reach=0.95):
    """Centers inside the inscribed ball: c + s r u, s < reach."""
    c, r = body.interior_point(), body.inradius()
    u = rng.normal(size=(count, body.dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return c + (reach * r * rng.uniform(size=count))[:, None] * u


def _former_polytope_gauge(body, x, y):
    den = body.b - body.A @ x
    if np.any(den <= 0.0):
        raise OutsideDomainError("gauge center x is not inside the polytope")
    if not np.any(y):
        return 0.0
    # halfspaces with a.y <= 0 never constrain t; the empty max is 0
    ratios = (body.A @ y) / den
    return float(max(0.0, np.max(ratios)))


def _former_ellipsoid_gauge(body, x, y):
    Qx = body.Q @ x
    d = 1.0 - x @ Qx
    if d < 1e-12:
        raise OutsideDomainError("x too close to the ellipsoid boundary")
    if not np.any(y):
        return 0.0
    b = Qx @ y
    c = y @ body.Q @ y
    return float((b + np.sqrt(b * b + c * d)) / d)


def _former_gauge(body, x, y):
    """The gauge centered at x, at y, by the one-point formula each body
    had before ``_gauge`` became a batch of one row; a smooth body ran the
    scalar root find, which its batches of at most two rays still run."""
    if isinstance(body, Polytope):
        return _former_polytope_gauge(body, x, y)
    if isinstance(body, Ellipsoid):
        return _former_ellipsoid_gauge(body, x, y)
    if not body.contains(x):
        raise OutsideDomainError("gauge center x is not inside the body")
    if not np.any(y):
        return 0.0
    return body._gauge_bisect(x, y)


def _former_contains(body, x):
    """Membership of x by the one-point formula each body had before
    ``contains`` became a batch of one row; a smooth body keeps its own."""
    if isinstance(body, Polytope):
        return bool(np.all(body.A @ x < body.b))
    if isinstance(body, Ellipsoid):
        return bool(x @ body.Q @ x < 1.0)
    return body.contains(x)


def _former_origin_gauge(body):
    """The former one-point gauge of body centered at the origin, as a
    function of y: the reference for ``Gauge``."""
    origin = np.zeros(body.dim)
    return lambda y: _former_gauge(body, origin, y)


def _scalar_gauges(body, X, Y):
    return np.array([_former_gauge(body, x, y) for x, y in zip(X, Y)])


def _former_member(model, z):
    """Membership of a row z by the one-point formula each model had before
    ``member`` became a batch of one row."""
    if isinstance(model, EllipticTube):
        try:
            p, q = _former_gauges(model.body, z)
        except OutsideDomainError:
            return False
        return p * q < 1.0
    if isinstance(model, StripTube):
        return _former_origin_gauge(model.body)(z.imag) < QUARTER_PI
    if isinstance(model, Disc1D):
        return abs(z[0]) < 1.0
    return abs(z[0].imag) < QUARTER_PI


def _former_potential(model, z):
    """The potential at a member row z by the former one-point formula."""
    if isinstance(model, EllipticTube):
        p, q = _former_gauges(model.body, z)
        return 0.5 * (math.atan(p) + math.atan(q))
    if isinstance(model, StripTube):
        return _former_origin_gauge(model.body)(z.imag)
    if isinstance(model, Disc1D):
        return abs(cmath.atanh(z[0]).imag)
    return abs(z[0].imag)


def _former_gauges(body, z):
    return (_former_gauge(body, z.real, z.imag),
            _former_gauge(body, z.real, -z.imag))


def _rays(body, rng, count):
    """Off-center x, |y| from 1e-3 to 1e3, and y = 0 in the first row."""
    X = _interior_rows(body, rng, count)
    Y = rng.normal(size=X.shape)
    Y *= (10.0 ** rng.uniform(-3.0, 3.0, count)
          / np.linalg.norm(Y, axis=1))[:, None]
    Y[0] = 0.0
    return X, Y


def _assert_gauge_batch_matches_scalar(body, X, Y):
    """Bit for bit: the closed forms run the kernels of the former
    one-point formulas row by row, and smooth bodies the scalar root
    find."""
    np.testing.assert_array_equal(body.gauge_batch(X, Y),
                                  _scalar_gauges(body, X, Y))


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
    for one_row in (body._gauge, lambda x, y: _former_gauge(body, x, y)):
        with pytest.raises(OutsideDomainError):
            one_row(X[row], Y[row])
    with pytest.raises(OutsideDomainError):
        body.gauge_batch(X, Y)


# the refusal text of each body kind, as it was before the gauge contract
# was stated once, on ConvexBody
REFUSALS = {Polytope: "gauge center x is not inside the polytope",
            Ellipsoid: "x too close to the ellipsoid boundary",
            SmoothBody: "gauge center x is not inside the body"}


def _center_rule_rows(body, rng, count):
    """Centers on both sides of the body's center rule: within three ulps
    of the boundary, at about the ellipsoid margin d = 1 - x Q x = 1e-12
    (relatively 5e-13 inside the boundary), anywhere in and around the
    bounding box, and, last, one beyond it."""
    d = rng.normal(size=(count, body.dim))
    edge = d / _scalar_gauges(body, np.zeros_like(d), d)[:, None]
    margin = 1.0 - 5e-13 * (1.0 + rng.uniform(-0.01, 0.01, (count, 1)))
    lo, hi = body.bounding_box()
    return np.vstack([_near(np.ones((count, 1)), rng) * edge, margin * edge,
                      rng.uniform(2.0 * lo, 2.0 * hi, size=(count, body.dim)),
                      hi + (hi - lo)])


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_gauge_pair_is_two_gauge_batches(body, seed):
    # bit for bit, from the rows it tests or, masked, with the mask of
    # the rows that center a gauge
    rng = np.random.default_rng(seed)
    X = _center_rule_rows(body, rng, 12)
    Y = rng.normal(size=X.shape)
    Y[rng.integers(len(Y))] = 0.0
    centers = body.gauge_centers(X)
    assert np.any(centers) and not np.all(centers)
    Xc, Yc = X[centers], Y[centers]
    P, Q = body.gauge_batch(Xc, Yc), body.gauge_batch(Xc, -Yc)
    mask, *masked = body.gauge_pair(X, Y, masked=True)
    np.testing.assert_array_equal(mask, centers)
    for pair in (body.gauge_pair(Xc, Yc), masked):
        np.testing.assert_array_equal(pair[0], P)
        np.testing.assert_array_equal(pair[1], Q)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_gauges_refuse_exactly_outside_gauge_centers(body, seed):
    rng = np.random.default_rng(seed)
    X = _center_rule_rows(body, rng, 4)
    Y = rng.normal(size=X.shape)
    refusal = next(text for kind, text in REFUSALS.items()
                   if isinstance(body, kind))
    assert body.center_refusal == refusal
    centers = body.gauge_centers(X)
    for x, y, inside in zip(X[:, None], Y[:, None], centers):
        if inside:
            body.gauge_batch(x, y)
            body.gauge_pair(x, y)
            continue
        calls = [body.gauge_batch, body.gauge_pair]
        if body.c2:
            calls.append(body.gauge_hessian_batch)
        for call in calls:
            with pytest.raises(OutsideDomainError, match=f"^{refusal}$"):
                call(x, y)
    with pytest.raises(OutsideDomainError, match=f"^{refusal}$"):
        body.gauge_pair(X, Y)


def _former_centers(body, X):
    """The center rule each body had before its center pass: the mask of
    the rows of X that may center a gauge."""
    if isinstance(body, Ellipsoid):
        return 1.0 - _rowdot(X, _matvec(body.Q, X)) >= 1e-12
    if isinstance(body, Polytope):
        return np.all(_matvec(body.A, X) < body.b, axis=1)
    return body._members(X)


def _former_formula(body, X, Y):
    """The gauge formula each closed-form body had before its center pass,
    at centers X; a smooth body's formula still takes the rows x."""
    if isinstance(body, Polytope):
        den = body.b - _matvec(body.A, X)
        with np.errstate(over="ignore"):
            top = np.max(_matvec(body.A, Y) / den, axis=1)
        return np.where(top > 0.0, top, 0.0)
    if not isinstance(body, Ellipsoid):
        return body._gauges(X, Y)
    QX = _matvec(body.Q, X)
    d = 1.0 - _rowdot(X, QX)
    c = body._quadratic(Y)
    offcenter = np.any(Y, axis=1)
    wild = np.flatnonzero(offcenter & ~((c >= 2.0 ** -600)
                                        & (c <= 2.0 ** 600)))
    if len(wild):
        e = np.frexp(np.max(np.abs(Y[wild]), axis=1))[1]
        Y = Y.copy()
        Y[wild] = np.ldexp(Y[wild], -e[:, None])
        c[wild] = body._quadratic(Y[wild])
    b = _rowdot(QX, Y)
    p = (b + np.sqrt(b * b + c * d)) / d
    if len(wild):
        with np.errstate(over="ignore"):
            p[wild] = np.ldexp(p[wild], e)
    return np.where(offcenter, p, 0.0)


def _outcome(evaluate):
    """The arrays evaluate() returns, or the type and text of its error."""
    try:
        return tuple(np.asarray(a) for a in evaluate())
    except ConvergenceError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


# |y| of the rows checked: as drawn by _rays, then each scale of the CLI's
# TestExtremeScales, whose squares leave the float range
Y_SCALES = (None, 1e-300, 1e-200, 1e-160, 1e150, 1e300)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_center_pass_matches_the_former_gauges(body, seed):
    # the mask and the pair of one center pass, bit for bit, against the
    # former center rule and the two former gauge batches at y and -y, on
    # centers on both sides of the rule, y = 0 in some rows; a smooth
    # body refuses extreme scales with the same error as before
    rng = np.random.default_rng(seed)
    for scale in Y_SCALES:
        X = _center_rule_rows(body, rng, 4)
        Y = rng.normal(size=X.shape)
        norms = (10.0 ** rng.uniform(-3.0, 3.0, len(Y)) if scale is None
                 else scale)
        Y *= (norms / np.linalg.norm(Y, axis=1))[:, None]
        Y[rng.integers(len(Y), size=2)] = 0.0

        def former():
            centers = _former_centers(body, X)
            Xc, Yc = X[centers], Y[centers]
            return (centers, _former_formula(body, Xc, Yc),
                    _former_formula(body, Xc, -Yc))
        expected = _outcome(former)
        _assert_same_outcome(
            _outcome(lambda: body.gauge_pair(X, Y, masked=True)), expected)
        np.testing.assert_array_equal(body.gauge_centers(X),
                                      _former_centers(body, X))
        if len(expected) == 2:  # a refusal: nothing more to compare
            continue
        centers, P, Q = expected
        Xc, Yc = X[centers], Y[centers]
        _assert_same_outcome(_outcome(lambda: body.gauge_pair(Xc, Yc)),
                             (P, Q))
        _assert_same_outcome(_outcome(lambda: (body.gauge_batch(Xc, Yc),)),
                             (P,))
        # a Gauge reads the origin's terms, broadcast over every row
        _assert_same_outcome(
            _outcome(lambda: (Gauge(body).batch(Y),)),
            _outcome(lambda: (_former_formula(body, np.zeros_like(Y), Y),)))
    none = np.empty((0, body.dim))
    for got, shape in zip(body.gauge_pair(none, none, masked=True),
                          [(0,)] * 3):
        assert got.shape == shape
    assert [a.shape for a in body.gauge_pair(none, none)] == [(0,), (0,)]
    assert Gauge(body).batch(none).shape == (0,)


def count_center_passes(monkeypatch, body) -> list:
    """Record (formula, rows) for each call of the center pass
    ``_centers`` and of the pair formula ``_gauge_pairs`` on the class of
    body: the rows of X and of Y."""
    calls = []
    cls = type(body)
    for name in ("_centers", "_gauge_pairs"):
        def counted(self, *args, name=name, formula=getattr(cls, name)):
            calls.append((name, len(args[-1])))
            return formula(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("name", ["unit_square", "unit_ball", "squircle"])
def test_one_center_test_per_evaluation(request, monkeypatch, name):
    # an elliptic-tube evaluation runs one center pass over every row and
    # the pair on the rows it centers, and a Gauge, which ran the pass at
    # the origin when it was built, never again
    body = request.getfixturevalue(name)
    tube, strip = EllipticTube(body), StripTube(Gauge(body))
    members = tube.sample_member_batch([substream(7, k) for k in range(20)])
    Z = np.vstack([members, members + 2.0])  # real parts outside too
    assert not np.any(body.gauge_centers(Z.real[20:]))
    calls = count_center_passes(monkeypatch, body)
    for evaluate, rows in ((tube.member_potential_batch, Z),
                           (tube.member_batch, Z),
                           (tube.potential_batch, members)):
        calls.clear()
        evaluate(rows)
        assert calls == [("_centers", len(rows)), ("_gauge_pairs", 20)]
    calls.clear()
    strip.gauge.batch(Z.imag)
    strip.member_potential_batch(Z)
    assert calls == []


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_potential_batch_matches_scalar(body, seed):
    for model in (StripTube(Gauge(body)), EllipticTube(body)):
        Z = np.array([model.sample_member(substream(seed, k))
                      for k in range(10)])
        values = model.potential_batch(Z)
        np.testing.assert_allclose(values,
                                   [_former_potential(model, z) for z in Z],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(values, [model.potential(z) for z in Z],
                                   rtol=1e-13, atol=0)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_one_dimensional_potential_batch_matches_scalar(seed):
    for model in (Strip1D(), Disc1D()):
        Z = np.array([model.sample_member(substream(seed, k))
                      for k in range(10)])
        values = model.potential_batch(Z)
        np.testing.assert_array_equal(
            values, [_former_potential(model, z) for z in Z])
        np.testing.assert_array_equal(values,
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
    np.testing.assert_array_equal(member,
                                  [_former_member(model, z) for z in Z])
    np.testing.assert_array_equal(member, [model.member(z) for z in Z])
    values = model.potential_batch(Z[member])
    np.testing.assert_array_equal(
        values, [_former_potential(model, z) for z in Z[member]])
    np.testing.assert_array_equal(values,
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


def _contract_rows(model, rng, count=24):
    """Rows of model's domain: sampled members, rows within 1e-12 of the
    edge (relative, on either side) and rows anywhere around it, shuffled
    together."""
    scale = 1.0 + rng.uniform(-1e-12, 1e-12, count)
    members = model.sample_member_batch(
        [substream(int(rng.integers(2 ** 32)), k) for k in range(count)])
    if model.body is None:  # strip1d, disc1d
        x = rng.uniform(-1.0, 1.0, count)
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        edge = (x + 1j * QUARTER_PI * scale * np.sign(rng.normal(size=count))
                if isinstance(model, Strip1D) else scale * np.exp(1j * theta))
        around = rng.uniform(-2.0, 2.0, count) + 1j * rng.uniform(-2.0, 2.0,
                                                                    count)
        rows = [members, edge[:, None], around[:, None]]
    else:
        body = model.body
        lo, hi = body.bounding_box()
        D = rng.normal(size=(count, model.dim))
        D /= np.linalg.norm(D, axis=1)[:, None]
        X = _interior_rows(body, rng, count)
        if isinstance(model, StripTube):
            level = QUARTER_PI * scale / model.gauge.batch(D)
            Y = level[:, None] * D
            rows = [members, X + 1j * Y]
        else:
            # the imaginary edge p q = 1, and real parts at the body's edge
            P, Q = body.gauge_batch(X, D), body.gauge_batch(X, -D)
            Y = np.sqrt(scale / (P * Q))[:, None] * D
            c = body.interior_point()
            C = np.broadcast_to(c, D.shape)
            R = c + scale[:, None] * D / body.gauge_batch(C, D)[:, None]
            rows = [members, X + 1j * Y, R + 1e-3j * D]
        B = rng.uniform(lo - (hi - lo), hi + (hi - lo), (count, model.dim))
        rows.append(B + 1j * rng.normal(size=B.shape) * (hi - lo))
    Z = np.vstack(rows)
    return Z[rng.permutation(len(Z))]


CONTRACT_BODIES = ("unit_square", "unit_ball", "ellipsoid14",
                   "interval_asym", "squircle", "zero_gradient_disc")


def _contract_models(request):
    specs = sorted((ROOT / "specs").glob("*.json"))
    models = [model_from_spec(json.loads(path.read_text()))
              for path in specs]
    for name in CONTRACT_BODIES:
        body = request.getfixturevalue(name)
        models += [StripTube(Gauge(body)), EllipticTube(body)]
    return models + [Strip1D(), Disc1D()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_member_and_potential_are_the_one_evaluation(request, seed):
    # member_batch is the mask of member_potential_batch, potential_batch
    # its values, and any non-member row is refused
    rng = np.random.default_rng(seed)
    for model in _contract_models(request):
        Z = _contract_rows(model, rng)
        member, values = model.member_potential_batch(Z)
        assert member.dtype == bool and member.shape == (len(Z),)
        assert 0 < np.count_nonzero(member) < len(Z)
        np.testing.assert_array_equal(model.member_batch(Z), member)
        np.testing.assert_array_equal(model.potential_batch(Z[member]),
                                      values)
        with pytest.raises(OutsideDomainError,
                           match=f"not in the {model.name} domain"):
            model.potential_batch(Z)
        for z in Z[~member][:4]:
            with pytest.raises(OutsideDomainError):
                model.potential_batch(z[None])


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_contains_batch_matches_contains(body, seed):
    rng = np.random.default_rng(seed)
    X = _real_parts(body, rng, 18)
    member = body.contains_batch(X).tolist()
    assert member == [_former_contains(body, x) for x in X]
    assert member == [body.contains(x) for x in X]


# The one-point draws and support values as they were before batching,
# the references of the batched code below.

def _reference_unit_vector(rng, dim):
    v = rng.normal(size=dim)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
    return v / n


def _reference_unit_disc_point(rng):
    r = np.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def _reference_support(body, a):
    if isinstance(body, Polytope):
        return float(np.max(body._vertices @ a))
    if isinstance(body, Ellipsoid):
        return float(np.sqrt(a @ body._Qinv @ a))
    q = body.power / (body.power - 1)
    return float(np.sum(np.abs(a * body.radii) ** q) ** (1.0 / q))


def _reference_body_point(tube, rng, shrink):
    lo, hi = tube.body.bounding_box()
    c = tube.body.interior_point()
    for _ in range(10000):
        x = rng.uniform(lo, hi)
        if _former_contains(tube.body, c + (x - c) / shrink):
            return x
    raise ConvergenceError("body sampling starved")


def _reference_member(tube, rng):
    x = _reference_body_point(tube, rng, 0.97)
    d = _reference_unit_vector(rng, tube.dim)
    pu, qu = _former_gauge(tube.body, x, d), _former_gauge(tube.body, x, -d)
    t = math.sqrt(rng.uniform(0.0, 0.9) / (pu * qu))
    return x + 1j * t * d


def _reference_fd_safe(tube, rng, h):
    rin = tube.body.inradius()
    for _ in range(10000):
        x = _reference_body_point(tube, rng, 0.5)
        d = _reference_unit_vector(rng, tube.dim)
        pu = _former_gauge(tube.body, x, d)
        qu = _former_gauge(tube.body, x, -d)
        t_hi = 0.8 / max(pu, qu)
        t_lo = max(0.3 * rin, 0.6 * t_hi)
        if t_hi <= t_lo:
            continue
        z = x + 1j * rng.uniform(t_lo, t_hi) * d
        if tube.potential(z) >= 10.0 * h / rin:
            return z
    raise ConvergenceError("elliptic-tube safe sampling starved")


def _reference_strip_point(tube, w, rng):
    z = _reference_member(tube, rng)
    while not np.any(z.imag):
        z = _reference_member(tube, rng)
    ch = chart(tube.body, z)
    zeta = cmath.tanh(w)
    return 0.5 * (1.0 - zeta) * ch.x1.astype(complex) \
        + 0.5 * (1.0 + zeta) * ch.x2.astype(complex)


def _assert_rows_match_the_scalar_loop(batch, scalar, seed, count=12):
    """batch(rngs) against scalar(rng) row by row, each on fresh
    substreams: the same bytes, and every Generator left in the same
    state, so no row made a draw the scalar loop does not make."""
    rngs = [substream(seed, k) for k in range(count)]
    refs = [substream(seed, k) for k in range(count)]
    got = batch(rngs)
    want = np.array([scalar(rng) for rng in refs])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert [repr(r.bit_generator.state) for r in rngs] == \
        [repr(r.bit_generator.state) for r in refs]


@SETTINGS
@given(body=st.one_of(ellipsoids(), polytopes()),
       seed=st.integers(0, 2 ** 32 - 1),
       relative_step=st.floats(1e-4, 1e-2))
def test_batched_samplers_match_the_scalar_row_loop(body, seed,
                                                    relative_step):
    # the scalar references are the elliptic-tube samplers as they were
    # before batching: rng.uniform on array bounds, unit_vector, contains
    # and the gauge one row at a time
    tube = EllipticTube(body)
    h = relative_step * body.inradius()
    w = complex(0.2, 0.4 * QUARTER_PI)
    cases = [
        (tube.sample_member_batch, lambda rng: _reference_member(tube, rng)),
        (tube.sample_member_batch, tube.sample_member),
        (lambda rngs: tube.sample_fd_safe_batch(rngs, h),
         lambda rng: _reference_fd_safe(tube, rng, h)),
        (lambda rngs: tube.sample_fd_safe_batch(rngs, h),
         lambda rng: tube.sample_fd_safe(rng, h)),
        (lambda rngs: tube.strip_points([w] * len(rngs), rngs),
         lambda rng: _reference_strip_point(tube, w, rng)),
    ]
    for batch, scalar in cases:
        _assert_rows_match_the_scalar_loop(batch, scalar, seed)


class _OverstatedEllipsoid(Ellipsoid):
    """Claims twice its inradius, so that some safe windows come out
    empty; with a true inradius no row's window ever does."""

    def inradius(self):
        return 2.0 * super().inradius()


def test_rows_with_an_empty_safe_window_draw_again():
    tube = EllipticTube(_OverstatedEllipsoid(np.diag([1.0, 4.0])))
    _assert_rows_match_the_scalar_loop(
        lambda rngs: tube.sample_fd_safe_batch(rngs, 1e-3),
        lambda rng: _reference_fd_safe(tube, rng, 1e-3), 5, count=40)


# The strip-tube and 1-D samplers as they were before batching: one row
# at a time, with the former unit_vector and the former one-point gauge.

def _reference_strip_member(tube, rng):
    x = rng.uniform(-1.0, 1.0, tube.dim)
    d = _reference_unit_vector(rng, tube.dim)
    level = rng.uniform(0.0, 0.95) * QUARTER_PI
    y = level * d / _former_origin_gauge(tube.body)(d)
    return x + 1j * y


def _reference_strip_fd_safe(tube, rng, h, attempts=None):
    gauge = _former_origin_gauge(tube.body)
    x = rng.uniform(-1.0, 1.0, tube.dim)
    for attempt in range(1, 1001):
        d = _reference_unit_vector(rng, tube.dim)
        level = rng.uniform(0.4 * QUARTER_PI, 0.9 * QUARTER_PI)
        y = level * d / gauge(d)
        if np.linalg.norm(y) >= max(0.5 * tube.body.inradius(), 10.0 * h):
            if attempts is not None:
                attempts.append(attempt)
            return x + 1j * y
    raise ConvergenceError("strip-tube safe sampling starved")


def _reference_flat_ray(gauge, x, y, zeta):
    direction = y / gauge(y)
    return x.astype(complex) + complex(zeta) * direction


def _reference_strip_tube_point(tube, w, rng):
    gauge = _former_origin_gauge(tube.body)
    d = _reference_unit_vector(rng, tube.dim)
    y = d / gauge(d)
    x = rng.uniform(-1.0, 1.0, tube.dim)
    return _reference_flat_ray(gauge, x, y, w)


def _reference_strip_tube_gaps(tube, seed, samples):
    gauge = _former_origin_gauge(tube.body)
    gaps = []
    for k in range(samples):
        rng = substream(seed, k)
        d = _reference_unit_vector(rng, tube.dim)
        y = d / gauge(d) * rng.uniform(0.1, 0.9) * QUARTER_PI
        x = rng.uniform(-1.0, 1.0, tube.dim)
        zeta = complex(rng.uniform(-1.0, 1.0),
                       rng.uniform(0.05, 0.95) * QUARTER_PI)
        f = _reference_flat_ray(gauge, x, y, zeta)
        gaps.append(abs(tube.potential(f) - zeta.imag))
    return gaps


def _reference_strip1d_member(rng):
    x = rng.uniform(-1.0, 1.0)
    y = rng.uniform(-0.95, 0.95) * QUARTER_PI
    return np.array([complex(x, y)])


def _reference_strip1d_fd_safe(rng, h):
    x = rng.uniform(-1.0, 1.0)
    y = rng.uniform(max(10.0 * h, 0.1 * QUARTER_PI), 0.9 * QUARTER_PI)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return np.array([complex(x, sign * y)])


def _reference_disc1d_member(rng):
    r = 0.97 * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * cmath.exp(1j * theta)])


def _reference_disc1d_fd_safe(rng, h):
    s = rng.uniform(-0.45, 0.45)
    t = rng.uniform(max(0.3 * QUARTER_PI, 20.0 * h), 0.8 * QUARTER_PI)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return np.array([cmath.tanh(complex(s, sign * t))])


def _reference_plane_gaps(model, to_plane, seed, samples):
    gaps = []
    for k in range(samples):
        rng = substream(seed, k)
        eta = complex(rng.uniform(-1.0, 1.0),
                      rng.uniform(-0.95, 0.95) * QUARTER_PI)
        gaps.append(abs(model.potential(np.array([to_plane(eta)]))
                        - abs(eta.imag)))
    return gaps


def _strip_parameters(count):
    """Distinct strip parameters in the upper half-strip, one per row."""
    return [complex(0.1 * k - 0.6, (0.05 + 0.9 * k / count) * QUARTER_PI)
            for k in range(count)]


def _assert_strip_points_match(model, reference, seed, count=12):
    W = _strip_parameters(count)
    rows = iter(W)
    _assert_rows_match_the_scalar_loop(
        lambda rngs: model.strip_points(W, rngs),
        lambda rng: reference(next(rows), rng), seed, count)


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1),
       relative_step=st.floats(1e-4, 1e-2))
def test_strip_tube_samplers_match_the_scalar_code(body, seed,
                                                   relative_step):
    tube = StripTube(Gauge(body))
    h = relative_step * body.inradius()
    cases = [
        (tube.sample_member_batch,
         lambda rng: _reference_strip_member(tube, rng)),
        (tube.sample_member_batch, tube.sample_member),
        (lambda rngs: tube.sample_fd_safe_batch(rngs, h),
         lambda rng: _reference_strip_fd_safe(tube, rng, h)),
        (lambda rngs: tube.sample_fd_safe_batch(rngs, h),
         lambda rng: tube.sample_fd_safe(rng, h)),
    ]
    for batch, scalar in cases:
        _assert_rows_match_the_scalar_loop(batch, scalar, seed)
    _assert_strip_points_match(
        tube, lambda w, rng: _reference_strip_tube_point(tube, w, rng), seed)
    _assert_strip_points_match(tube, tube.strip_point, seed)
    gaps, reconstructions = tube.geodesic_witnesses(seed, 12)
    assert reconstructions == []
    assert np.array(gaps).tobytes() == \
        np.array(_reference_strip_tube_gaps(tube, seed, 12)).tobytes()


def test_strip_tube_rows_too_short_draw_again():
    # an overstated inradius raises the length floor of the safe sampler
    # above many of the drawn |y|, so rows take several rounds
    tube = StripTube(Gauge(_OverstatedEllipsoid(np.diag([1.0, 4.0]))))
    attempts = []
    _assert_rows_match_the_scalar_loop(
        lambda rngs: tube.sample_fd_safe_batch(rngs, 1e-3),
        lambda rng: _reference_strip_fd_safe(tube, rng, 1e-3, attempts),
        6, count=40)
    assert len(attempts) == 40 and max(attempts) >= 3


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.floats(1e-4, 1e-2))
def test_one_dimensional_samplers_match_the_scalar_code(seed, h):
    for model, member, fd_safe, to_plane in (
            (Strip1D(), _reference_strip1d_member,
             _reference_strip1d_fd_safe, complex),
            (Disc1D(), _reference_disc1d_member, _reference_disc1d_fd_safe,
             np.tanh)):
        cases = [
            (model.sample_member_batch, member),
            (model.sample_member_batch, model.sample_member),
            (lambda rngs: model.sample_fd_safe_batch(rngs, h),
             lambda rng: fd_safe(rng, h)),
            (lambda rngs: model.sample_fd_safe_batch(rngs, h),
             lambda rng: model.sample_fd_safe(rng, h)),
        ]
        for batch, scalar in cases:
            _assert_rows_match_the_scalar_loop(batch, scalar, seed)
        _assert_strip_points_match(
            model, lambda w, rng: np.array([to_plane(w)]), seed)
        gaps, reconstructions = model.geodesic_witnesses(seed, 12)
        assert reconstructions == []
        assert np.array(gaps).tobytes() == np.array(
            _reference_plane_gaps(model, to_plane, seed, 12)).tobytes()


def _former_schwarz(model, seed, samples, h, tols):
    """The schwarz suite as it was: three rng.uniform calls per row."""
    rngs = [substream(seed, k) for k in range(samples)]
    etas, targets = [], []
    for rng in rngs:
        eta = complex(rng.uniform(-1.0, 1.0),
                      rng.uniform(0.05, 0.95) * QUARTER_PI)
        contraction = 0.5 if rng.uniform() < 0.5 else 1.0
        etas.append(eta)
        targets.append(complex(eta.real, contraction * eta.imag))
    values = model.potential_batch(model.strip_points(targets, rngs))
    report = schwarz_excess(zip(etas, values.tolist()), QUARTER_PI,
                            QUARTER_PI)
    tol = tols["schwarz"]
    return CheckReport(check="schwarz", model=model.name, samples=samples,
                       h=h, tol=tol,
                       worst_point=[report.worst_point.real,
                                    report.worst_point.imag],
                       worst_value=report.max_excess,
                       passed=bool(report.max_excess <= tol))


@pytest.mark.parametrize("spec", sorted((ROOT / "specs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_schwarz_draws_match_the_former_per_call_draws(spec):
    model = model_from_spec(json.loads(spec.read_text()))
    for seed, samples in ((0, 25), (42, 7), (2 ** 64 - 1, 40)):
        got = suites._suite_schwarz(model, seed, samples, 1e-3, TOL_DEFAULTS)
        want = _former_schwarz(model, seed, samples, 1e-3, TOL_DEFAULTS)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_support_batch_matches_support(body, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(32, body.dim)) \
        * 10.0 ** rng.uniform(-3.0, 3.0, (32, 1))
    A[0] = 0.0
    got = body.support_batch(A)
    assert got.dtype == float and got.shape == (32,)
    for support in (body.support, lambda a: _reference_support(body, a)):
        assert got.tobytes() == np.array([support(a) for a in A]).tobytes()


def test_support_refused_without_a_closed_form(zero_gradient_disc):
    with pytest.raises(SpecError, match="no certified support for SmoothBody"):
        zero_gradient_disc.support_batch(np.eye(2))
    with pytest.raises(SpecError, match="no certified support for SmoothBody"):
        zero_gradient_disc.support([1.0, 0.0])


# Every public method of a body and of its Gauge, as (name, arguments):
# "x" a point, "X" the rows of an (N, n) array.
BODY_METHODS = {"contains": "x", "support": "x", "gauge": "xx",
                "gauge_hessian": "xx", "contains_batch": "X",
                "support_batch": "X", "gauge_centers": "X",
                "gauge_batch": "XX", "gauge_pair": "XX",
                "gauge_hessian_batch": "XX"}
GAUGE_METHODS = {"__call__": "x", "batch": "X", "hessian": "x"}
_MALFORMED = "expected|non-finite|dimension mismatch"


def _malformed(kind, valid):
    """Inputs that fail the validation of a point (kind "x") or of rows
    ("X"), valid being a good one: wrong shapes, a NaN and an inf."""
    nan, inf = valid.copy(), valid.copy()
    nan.flat[-1], inf.flat[0] = np.nan, -np.inf
    wide = np.concatenate([valid, valid[..., :1]], axis=-1)
    shapes = [valid[None], 0.5] if kind == "x" else [valid[0], valid[None]]
    return shapes + [wide, nan, inf]


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_public_methods_refuse_malformed_input(body, seed):
    # each argument is validated before any formula runs (the polytope's
    # Hessian refusal, the support refusal of a body without a closed form
    # and the center refusals come after), so a malformed one is a plain
    # ValueError
    rng = np.random.default_rng(seed)
    X = _interior_rows(body, rng, 3)
    valid = {"x": X[0], "X": X}
    for owner, methods in ((body, BODY_METHODS),
                           (Gauge(body), GAUGE_METHODS)):
        for name, kinds in methods.items():
            call = getattr(owner, name)
            for i, kind in enumerate(kinds):
                for bad in _malformed(kind, valid[kind]):
                    args = [valid[k] for k in kinds]
                    args[i] = bad
                    with pytest.raises(ValueError, match=_MALFORMED) as exc:
                        call(*args)
                    assert type(exc.value) is ValueError, (name, i, bad)


def _assert_one_row_is_batch(body, rng):
    """Bit for bit, also on strided points such as the real and imaginary
    parts of a complex point: from dimension 4 on, their dot products
    differ from those of contiguous copies in about two rows in three."""
    X = _interior_rows(body, rng, 4)
    Y = rng.normal(size=X.shape) * 10.0 ** rng.uniform(-2.0, 2.0, (4, 1))
    gauge = Gauge(body)
    for z in X + 1j * Y:
        x, y = z.real, z.imag
        xr, yr = np.array([x]), np.array([y])
        assert body.contains(x) == body.contains_batch(xr)[0]
        assert body.support(y).hex() == float(body.support_batch(yr)[0]).hex()
        assert gauge(y).hex() == float(gauge.batch(yr)[0]).hex()
        P, Q = body.gauge_pair(xr, yr)
        assert body.gauge(x, y).hex() == float(
            body.gauge_batch(xr, yr)[0]).hex()
        assert (body.gauge(x, y), body.gauge(x, -y)) == (P[0], Q[0])
        if body.c2:
            np.testing.assert_array_equal(body.gauge_hessian(x, y),
                                          body.gauge_hessian_batch(xr, yr)[0])
            np.testing.assert_array_equal(
                gauge.hessian(y), body.gauge_hessian(np.zeros_like(x), y))


@SETTINGS
@given(body=bodies, seed=st.integers(0, 2 ** 32 - 1))
def test_one_row_methods_are_batches_of_one_row(body, seed):
    _assert_one_row_is_batch(body, np.random.default_rng(seed))


def _spd(n, seed):
    L = np.random.default_rng(seed).normal(size=(n, n))
    return L @ L.T + 0.1 * np.eye(n)


@pytest.mark.parametrize("body", [
    Ellipsoid(_spd(5, 0)), Superellipse([1.0, 0.7, 2.0, 1.5, 0.4]),
    Polytope(np.vstack([np.eye(5), -np.eye(5), np.ones((1, 5))]),
             [1.0] * 10 + [2.0])], ids=["ellipsoid", "superellipse",
                                        "polytope"])
@pytest.mark.parametrize("seed", range(3))
def test_one_row_methods_are_batches_of_one_row_in_5d(body, seed):
    _assert_one_row_is_batch(body, np.random.default_rng(seed))


def test_squircle_verify_makes_no_one_row_gauge_call(monkeypatch):
    # every gauge of the command runs in a batch; batches of one or two
    # rays still reach the scalar root find inside gauge_batch
    counts = {"_gauge": 0, "_gauge_bisect": 0}
    for name in counts:
        def counted(self, x, y, method=getattr(SmoothBody, name), name=name):
            counts[name] += 1
            return method(self, x, y)
        monkeypatch.setattr(SmoothBody, name, counted)
    spec = ROOT / "specs" / "striptube_squircle.json"
    argv = ["verify", "--model", str(spec), "--suite", "all", "--step",
            "2e-4", "--samples"]
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["200"]) == 0
    assert counts["_gauge"] == 0
    counts["_gauge_bisect"] = 0
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["2"]) == 0
    assert counts == {"_gauge": 0, "_gauge_bisect": counts["_gauge_bisect"]}
    assert counts["_gauge_bisect"] > 0


def _former_smooth_hessians(body, X, Y):
    """The former SmoothBody._hessians: one stencil over y, and so one
    gauge batch, per row."""
    H = np.empty((len(X), body.dim, body.dim))
    for i, (x, y) in enumerate(zip(X, Y)):
        def field(Ys, x=x):
            return body._gauges(np.broadcast_to(x, Ys.shape), Ys)
        H[i] = central_differences(field, y[None],
                                   1e-4 * np.linalg.norm(y))[2][0]
    return H


@SETTINGS
@given(body=superellipses(), seed=st.integers(0, 2 ** 32 - 1))
def test_smooth_gauge_hessians_match_the_row_loop(body, seed):
    X, Y = _rays(body, np.random.default_rng(seed), 7)
    np.testing.assert_array_equal(body.gauge_hessian_batch(X[1:], Y[1:]),
                                  _former_smooth_hessians(body, X[1:], Y[1:]))
    none = np.empty((0, body.dim))
    assert body.gauge_hessian_batch(none, none).shape == (0,) + 2 * (body.dim,)


def test_smooth_gauge_hessians_take_one_gauge_batch(squircle, monkeypatch):
    # all 1 + 2 n^2 stencil points of every row go to one root find
    calls = []
    gauges = SmoothBody._gauges

    def counted(self, X, Y):
        calls.append(len(X))
        return gauges(self, X, Y)
    monkeypatch.setattr(SmoothBody, "_gauges", counted)
    X, Y = _rays(squircle, np.random.default_rng(5), 21)
    squircle.gauge_hessian_batch(X[1:], Y[1:])
    assert calls == [20 * 9]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4))
def test_batched_unit_draws_match_the_scalar_row_loop(seed, dim):
    _assert_rows_match_the_scalar_loop(
        lambda rngs: unit_vectors(rngs, dim),
        lambda rng: _reference_unit_vector(rng, dim), seed)
    _assert_rows_match_the_scalar_loop(
        lambda rngs: unit_vectors(rngs, dim),
        lambda rng: unit_vector(rng, dim), seed)
    for scalar in (_reference_unit_disc_point, unit_disc_point):
        _assert_rows_match_the_scalar_loop(unit_disc_points, scalar, seed)


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


# SciPy passes small_matrix_value to HiGHS with this warning
@pytest.mark.filterwarnings("ignore:Unrecognized options detected")
@SETTINGS
@given(body=polytopes(), directions=arrays(float, (6, 3),
                                           elements=unit_floats))
@example(body=Polytope(np.vstack([np.eye(3), -np.eye(3),
                                  [[1e-9, 0.0, -0.5]]]),
                       [1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 0.5]),
         directions=-np.ones((6, 3)))
def test_vertex_support_matches_lp(body, directions):
    for a in directions[:, :body.dim]:
        # HiGHS solves for the unit direction at its tightest dual
        # tolerance: objective coefficients under its default of 1e-7
        # would pass a suboptimal vertex as optimal. It also drops matrix
        # entries up to small_matrix_value, 1e-9 by default, which the
        # drawn normals reach: the halfspace 1e-9 x - 0.5 z < 0.5 then
        # loses its x term, and the LP misses a vertex by 1e-9 relative;
        # 1e-12 is the least value HiGHS takes
        norm = float(np.linalg.norm(a)) or 1.0
        res = linprog(-a / norm, A_ub=body.A, b_ub=body.b,
                      bounds=[(None, None)] * body.dim, method="highs",
                      options={"dual_feasibility_tolerance": 1e-10,
                               "small_matrix_value": 1e-12})
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


def _det(M) -> Fraction:
    """The determinant of a square matrix of fractions, by cofactors."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def _exact_vertices(A, b) -> np.ndarray:
    """The vertices of {w : A w <= b} in rational arithmetic, rounded to
    floats at the end: every square subsystem of nonzero determinant
    solved by Cramer's rule, kept where it satisfies every halfspace
    exactly."""
    A = [[Fraction(float(a)) for a in row] for row in A]
    b = [Fraction(float(v)) for v in b]
    n = len(A[0])
    found = set()
    for rows in combinations(range(len(A)), n):
        M = [A[i] for i in rows]
        d = _det(M)
        if d == 0:
            continue
        v = tuple(_det([row[:k] + [b[i]] + row[k + 1:]
                        for row, i in zip(M, rows)]) / d for k in range(n))
        if all(sum(a * x for a, x in zip(row, v)) <= c
               for row, c in zip(A, b)):
            found.add(v)
    return np.array([[float(x) for x in v] for v in sorted(found)])


def _nearest(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The max-norm distance from each row of P to the nearest row of Q."""
    return np.min(np.max(np.abs(P[:, None, :] - Q[None, :, :]), axis=2),
                  axis=1)


def _assert_matches_lp_geometry(body):
    """Vertices as a set to 1e-9 against Qhull; bounding box and radius to
    1e-7 against HiGHS, whose presolve drops coefficients below 1e-9.

    Where Qhull and the body disagree on a vertex, exact rational
    vertices decide: Qhull works from the interior point through the dual
    hull, and where two facets meet at an angle near 1e-8 its vertex can
    lie a few 1e-9 off. The body's vertices must then be the exact ones
    as a set, to the same 1e-9."""
    lo, hi, radius, vertices = _lp_geometry(body.A, body.b)
    scale = max(1.0, float(np.max(np.abs(vertices))))
    tol, lp_tol = 1e-9 * scale, 1e-7 * scale
    ours = body._vertices
    if (np.max(_nearest(ours, vertices)) > tol
            or np.max(_nearest(vertices, ours)) > tol):
        exact = _exact_vertices(body.A, body.b)
        assert np.all(_nearest(ours, exact) <= tol), "a vertex is not exact"
        assert np.all(_nearest(exact, ours) <= tol), \
            "an exact vertex is missing"
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


# the box |w_i| <= 1 of R^3 cut by halfspaces a . w <= 1, each a body on
# which the random test above once failed
NEAR_PARALLEL = 5.960464477539063e-08  # 2^-24


def _cut_cube(*normals) -> Polytope:
    A = np.vstack([np.eye(3), -np.eye(3), normals])
    return Polytope(A, np.ones(len(A)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_four_facets_meeting_at_a_vertex_give_it_once():
    # z <= 1, x + z <= 1, x + y + z <= 1 and x + 2^-24 y + z <= 1 meet at
    # (0, 0, 1). The subsystem of the last three rows with z <= 1 is
    # ill-conditioned: its solution lay 1.3e-10 off the vertex, missed
    # one of its tight rows and was listed as a second vertex
    body = _cut_cube([1.0, 0.0, 1.0], [1.0, 1.0, 1.0],
                     [1.0, NEAR_PARALLEL, 1.0])
    exact = _exact_vertices(body.A, body.b)
    assert len(body._vertices) == len(exact) == 10
    assert np.max(_nearest(body._vertices, exact)) <= 1e-15
    _assert_matches_lp_geometry(body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vertices_of_near_parallel_facets_are_exact():
    # 2^-24 x + z <= 1 meets z <= 1 at an angle of 2^-24 along x = 0, and
    # x + y + z <= 1 crosses both: the exact vertices include (0, -1, 1),
    # (0, 0, 1), (1, -1, 1 - 2^-24) and (1, -(1 - 2^-24), 1 - 2^-24),
    # which the body gives to 1e-15; the Qhull of SciPy 1.17 put the
    # first two 2.9e-9 off, past its 1e-9 tolerance
    body = _cut_cube([NEAR_PARALLEL, 0.0, 1.0], [1.0, 1.0, 1.0])
    exact = _exact_vertices(body.A, body.b)
    for v in ([0.0, -1.0, 1.0], [0.0, 0.0, 1.0],
              [1.0, -1.0, 1.0 - NEAR_PARALLEL],
              [1.0, NEAR_PARALLEL - 1.0, 1.0 - NEAR_PARALLEL]):
        assert v in exact.tolist()
    assert len(body._vertices) == len(exact) == 10
    assert np.max(_nearest(body._vertices, exact)) <= 1e-15
    _assert_matches_lp_geometry(body)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("angle", [1.1e-12, 1.5e-12, 2e-12])
def test_a_vertex_tight_within_the_slack_far_away_stays(angle):
    # angle x + z <= 1 meets z <= 1 along x = 0. The subsystem of -y <= 1,
    # z <= 1 and the cut gives the vertex (0, -1, 1); its rows are tight,
    # within the slack of about 2e-12, at (1, -1, 1 - angle) too, a unit
    # away, which has four tight rows and must not drop it
    body = _cut_cube([angle, 0.0, 1.0])
    exact = _exact_vertices(body.A, body.b)
    assert [0.0, -1.0, 1.0] in exact.tolist()
    assert [0.0, 1.0, 1.0] in exact.tolist()
    assert len(body._vertices) == len(exact) == 10
    assert np.max(_nearest(exact, body._vertices)) <= 1e-11
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


# The Richardson residuals as they were: one call per step, each placing
# the stencils of one step and computing the closed-form target again.

def _former_tube_levi_residuals(body, Z, h):
    tube = EllipticTube(body)
    N, n = Z.shape
    D, rows, cols = pair_directions(n, (1, -1, 1j, -1j))
    L = len(D)
    f0, plus, minus = second_differences(tube.potential_batch, Z,
                                         np.concatenate([D, 1j * D]), h)
    forms = 0.25 * (plus[:, :L] + minus[:, :L] + plus[:, L:] + minus[:, L:]
                    - 4.0 * f0[:, None]) / (h * h)
    P = len(rows) - n
    spp, spm, spi, smi = forms[:, n:].reshape(N, 4, P).transpose(1, 0, 2)
    entries = np.concatenate(
        [forms[:, :n], 0.25 * ((spp - spm) + 1j * (spi - smi))], axis=1)
    A = np.empty((N, n, n), dtype=complex)
    A[:, cols, rows] = np.conj(entries)
    A[:, rows, cols] = entries
    X, Y = Z.real, Z.imag
    target = 0.125 * (body.gauge_hessian_batch(X, Y)
                      + body.gauge_hessian_batch(X, -Y))
    return np.max(np.abs(A - target), axis=(1, 2))


def _former_gauge_residuals(body, Z, h):
    n = body.dim

    def field(W):
        return body.gauge_batch(W[:, :n], W[:, n:])

    p0, grad, hess = central_differences(field, np.hstack([Z.real, Z.imag]),
                                         h)
    px, py = grad[:, :n], grad[:, n:]
    pxx, pxy, pyy = hess[:, :n, :n], hess[:, :n, n:], hess[:, n:, n:]
    p = p0[:, None, None]
    outer = py[:, :, None] * py[:, None, :]
    r1 = np.max(np.abs(px - p0[:, None] * py), axis=1)
    r2 = np.max(np.abs(pxy - (p * pyy + outer)), axis=(1, 2))
    r3 = np.max(np.abs(pxx - (p ** 2 * pyy + 2.0 * p * outer)), axis=(1, 2))
    return np.stack([r1, r2, r3], axis=1)


def _richardson_models():
    specs = [json.loads((ROOT / "specs" / f"{name}.json").read_text())
             for name in ("ball_tube", "ellipsoid_tube", "interval_tube")]
    return [model_from_spec(spec) for spec in specs] + [
        EllipticTube(Superellipse([1.0, 0.5], power=4))]


@pytest.mark.parametrize("model", _richardson_models(),
                         ids=["ball", "ellipsoid", "interval",
                              "superellipse"])
def test_one_call_richardson_residuals_match_two_calls(model):
    body = model.body
    for seed, h in ((42, 1e-3), (7, 2e-4), (2 ** 64 - 1, 1e-3)):
        Z = suites._richardson_points(model, seed, h)
        for one_call, former in (
                (tube_levi_residual_batch, _former_tube_levi_residuals),
                (suites._gauge_residuals, _former_gauge_residuals)):
            got = one_call(body, Z, (2 * h, h))
            want = np.stack([former(body, Z, 2 * h), former(body, Z, h)])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert one_call(body, Z, h).tobytes() == want[1].tobytes()


def test_one_batched_call_per_suite_stage(monkeypatch):
    # on ball_tube, with the cached draws taken first: one potential call
    # for the disc images of the maximality battery, and one residual
    # call, one field call and one target per Richardson verdict
    model = model_from_spec(json.loads(
        (ROOT / "specs" / "ball_tube.json").read_text()))
    seed, samples, h = 42, 25, 1e-3
    Z = suites._richardson_points(model, seed, h)
    maximality.member_samples(model, samples, seed)
    maximality.disc_samples(model, samples, seed)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(models.Model, "potential_batch", counted(
        "potential_batch", models.Model.potential_batch))
    monkeypatch.setattr(maximality, "disc_points", counted(
        "disc_points", maximality.disc_points))
    monkeypatch.setattr(maximality, "max_violation", counted(
        "max_violation", maximality.max_violation))
    report = suites.verify(model, "maximality", seed, samples, h,
                           TOL_DEFAULTS)
    assert report["pass"]
    assert calls == ["disc_points", "potential_batch"]

    body = type(model.body)
    hessian_rows = []
    monkeypatch.setattr(body, "gauge_hessian_batch", (
        lambda f: lambda self, X, Y: hessian_rows.append(len(X))
        or f(self, X, Y))(body.gauge_hessian_batch))
    monkeypatch.setattr(body, "gauge_batch", counted("gauge_batch",
                                                     body.gauge_batch))
    for name in ("tube_levi_residual_batch", "_gauge_residuals"):
        monkeypatch.setattr(suites, name, counted(name, getattr(suites,
                                                                name)))
    calls.clear()
    assert suites.verify(model, "tube-levi", seed, samples, h,
                         TOL_DEFAULTS)["pass"]
    assert calls == ["tube_levi_residual_batch", "potential_batch"]
    assert hessian_rows == [len(Z), len(Z)]
    calls.clear()
    assert suites.verify(model, "gauge-derivatives", seed, samples, h,
                         TOL_DEFAULTS)["pass"]
    assert calls == ["_gauge_residuals", "gauge_batch"]


def _former_atan_mean(P, Q):
    return np.array([0.5 * (math.atan(p) + math.atan(q))
                     for p, q in zip(P.tolist(), Q.tolist())], dtype=float)


def test_atan_mean_matches_the_per_pair_loop(monkeypatch, tmp_path):
    # the gauge pairs of a slice grid's members, as the benchmark slices
    # ball_tube, and pairs at the edges of the float range
    pairs = []
    atan_mean = models._atan_mean
    monkeypatch.setattr(models, "_atan_mean", lambda P, Q: pairs.append(
        (P.copy(), Q.copy())) or atan_mean(P, Q))
    with redirect_stdout(io.StringIO()):
        assert main(["slice", "--model", str(ROOT / "specs" /
                                             "ball_tube.json"),
                     "--plane", "2,3", "--center=0.3,-0.2,0.0,0.0",
                     "--half-width", "1.25", "--resolution", "70",
                     "--out", str(tmp_path / "grid.csv")]) == 0
    (P, Q), = pairs
    assert len(P) > 1000
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310,
                      np.finfo(float).tiny, 1e-300, 1.0, 1e308, -1e308,
                      np.inf, -np.inf])
    for P, Q in ((P, Q), (edges, edges[::-1]), (edges, -edges),
                 (np.empty(0), np.empty(0))):
        got = atan_mean(P, Q)
        assert got.dtype == float
        assert got.tobytes() == _former_atan_mean(P, Q).tobytes()
