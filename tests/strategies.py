"""Hypothesis strategies for random bodies: SPD ellipsoids, bounded
polytopes and superellipses in dimensions 1 to 3."""
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pshmodels import Ellipsoid, Polytope, Superellipse

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


@st.composite
def superellipses(draw):
    n = draw(dims)
    radii = draw(arrays(float, n, elements=st.floats(0.3, 3.0)))
    return Superellipse(radii, draw(st.sampled_from([2, 4, 8])))


bodies = st.one_of(ellipsoids(), polytopes(), superellipses())
