"""Properties of the gauges, the elliptic-tube potential and the disc
charts over random ellipsoids, polytopes and superellipses."""
import numpy as np
from hypothesis import given, settings, strategies as st

from pshmodels import EllipticTube, chart, substream
from strategies import bodies

SETTINGS = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


def _members(body, seed, count):
    """Elliptic-tube samples z = x + iy: x inside the body, y any ray."""
    tube = EllipticTube(body)
    return np.array([tube.sample_member(substream(seed, k))
                     for k in range(count)])


@SETTINGS
@given(body=bodies, seed=seeds, t=st.floats(1e-3, 1e3))
def test_gauge_positive_homogeneity(body, seed, t):
    for z in _members(body, seed, 4):
        p = body.gauge(z.real, z.imag)
        assert abs(body.gauge(z.real, t * z.imag) - t * p) <= 1e-12 * t * p


@SETTINGS
@given(body=bodies, seed=seeds)
def test_membership_duality(body, seed):
    # x + y lies in the body exactly when the gauge centered at x is
    # below 1 at y; rays are scaled to land on both sides of the boundary
    rng = np.random.default_rng(seed)
    for z in _members(body, seed, 4):
        x = z.real
        d = rng.normal(size=body.dim)
        for scale in rng.uniform(0.0, 2.0, 8):
            y = scale * d / body.gauge(x, d)
            p = body.gauge(x, y)
            if abs(p - 1.0) < 1e-12:
                continue
            assert body.contains(x + y) == (p < 1.0)


@SETTINGS
@given(body=bodies, seed=seeds)
def test_elliptic_potential_conjugation_symmetry(body, seed):
    tube, Z = EllipticTube(body), _members(body, seed, 6)
    for z in Z:
        assert tube.potential(np.conj(z)) == tube.potential(z)
    np.testing.assert_array_equal(tube.potential_batch(np.conj(Z)),
                                  tube.potential_batch(Z))


@SETTINGS
@given(body=bodies, seed=seeds)
def test_chart_reconstruction(body, seed):
    for z in _members(body, seed, 4):
        if not np.any(z.imag):
            continue
        ch = chart(body, z)
        scale = max(1.0, float(np.linalg.norm(z)))
        assert np.linalg.norm(ch.point(ch.zeta0) - z) <= 1e-12 * scale
