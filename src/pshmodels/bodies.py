"""Bounded open convex bodies in R^n and their centered Minkowski gauges.

A body supplies membership, the gauge p(x, y) = inf{t > 0 : x + y/t in body}
centered at an interior point x, the y-Hessian of the gauge where the
boundary is C^2, and support values used to certify holomorphic pullbacks.
Support values come from closed forms only (polytope vertices, ellipsoid
and superellipse duality); a generic smooth body has none and refuses.
The input contract is stated once, on ConvexBody: each public method
validates its input once, one point or the rows of an (N, n) array, and
runs a body formula on the validated rows (``_members``, ``_supports``,
``_centers``, ``_gauges``, ``_gauge_pairs``, ``_hessians``), which
validates nothing; a one-point method is the batch of one row.
Every gauge starts from one center pass ``_centers(X)``: the mask of the
rows that may center a gauge (the body's points; an ellipsoid also
refuses centers within 1e-12 of its boundary) and the center terms of
the rows it keeps, which the center test, the gauges, the pair and the
Hessians all read: b - A x of a polytope, (Q x, 1 - x Q x) of an
ellipsoid, the rows themselves otherwise. ``gauge_centers`` is that mask,
and the gauges refuse any other center with ``center_refusal``.
``gauge_pair``, the pair (p(z), p(conj z)) at z = x + iy, comes from the
pair formula ``_gauge_pairs``, which an ellipsoid and a polytope evaluate
from shared terms, bit for bit the gauges at y and -y; with ``masked``
it refuses no row and returns the mask with the pair at the rows it
keeps. A ``Gauge`` runs the center pass at the origin once and hands the
body the origin's terms, which the formulas broadcast over every row.
``outer_radius`` is sup |w| over the body (a bound on a generic smooth
body), the mirror of ``inradius``.
Polytopes and ellipsoids use closed forms; an ellipsoid rescales a row y
by a power of two where y Q y would leave the float range. Smooth bodies
bracket the root on membership and then run a safeguarded Newton
iteration on the oracle value along the ray, bisecting whenever a Newton
step would leave the bracket; their ``_gauges`` runs that root find as one
masked loop over all rows, on the batched oracle ``oracle_batch``; a batch
of at most two rays runs the scalar root find ``_gauge_bisect`` on each,
which is cheaper at that size and gives the same bits. That scalar root
find tests membership once per bracket step, on ``contains``, so a smooth
body's ``_member`` evaluates one point, not a batch of one row.
A polytope is built with NumPy alone: its vertices, bounding box and
Chebyshev ball come from solving every square subsystem of its
halfspaces, in stacked calls of a bounded number of subsystems.
"""
from __future__ import annotations

from itertools import chain, combinations
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceError, NotApplicable, OutsideDomainError,
                     SpecError)
from .stencils import central_differences

_MAX_BRACKET = 200
_MAX_ROOT_STEPS = 200
_BRACKET_GROWTH = 2.0
_REL_TOL = 1e-15
# an ellipsoid gauge rescales the rows y whose quadratic y Q y lies outside
# this range, far inside the float range on both sides
_QUADRATIC_RANGE = (2.0 ** -600, 2.0 ** 600)
# SmoothBody._gauges finds the roots of at most this many rays one by
# one: timed on a superellipse, the masked root find costs 482 against
# 164 us at one ray, 314 against 253 us at two, 410 against 1,401 at eight
_SCALAR_ROWS = 2
# rows of norm about 1 are independent when |det| exceeds this, or when
# the smallest over the largest singular value does
_RANK_RTOL = 1e-12
# slack of a solution of M v <= c, relative to |M| |v| + |c|
_FEAS_RTOL = 1e-12
# square subsystems per stacked solve: bounds the memory of a polytope
# build; the polytopes of the specs and tests need at most a few hundred
_SUBSET_CHUNK = 4096


def _vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce x to a finite real vector, contiguous: a strided row gives
    other dot products than its copy in the BLAS kernels of the bodies."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a 1-D real vector")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return np.ascontiguousarray(v)


def _rows(a, dim: int) -> np.ndarray:
    """Coerce a to a finite real contiguous (N, dim) array."""
    m = np.ascontiguousarray(a, dtype=float)
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) real array")
    if not np.isfinite(m).all():
        raise ValueError("array has non-finite entries")
    return m


def as_point(z, dim: int) -> np.ndarray:
    """Coerce z to a complex vector of the given dimension."""
    v = np.atleast_1d(np.asarray(z, dtype=complex))
    if v.ndim != 1 or v.size != dim:
        raise ValueError(f"dimension mismatch: expected a point of C^{dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite entries")
    return v


def as_points(Z, dim: int) -> np.ndarray:
    """Coerce Z to a finite complex (N, dim) array, validated once."""
    m = np.asarray(Z, dtype=complex)
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array of points of C^{dim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("points have non-finite entries")
    return m


def _matvec(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows M @ v for the rows v of V, as a stacked matmul.

    The stacked matmul runs the BLAS kernel of the one-point ``M @ v``
    once per row, so a row's gauge does not depend on the batch it is in;
    a single ``V @ M.T`` rounds differently in about a third of the rows.
    """
    return (M @ V[:, :, None])[:, :, 0]


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise dot products u @ v, with the scalar kernel (see _matvec)."""
    return (U[:, None, :] @ V[:, :, None])[:, 0, 0]


class ConvexBody:
    """Base class: every public method, validating its input once; a
    concrete body defines the formulas and its geometry."""

    dim: int
    c2 = True  # C2 boundary, so the gauge has a Hessian off the center
    center_refusal = "gauge center x is not inside the body"

    def contains(self, x) -> bool:
        """Membership of x."""
        return self._member(_vector(x, self.dim))

    def _member(self, x: np.ndarray) -> bool:
        # the batch of one row, on the vector ``contains`` validated
        return bool(self._members(x[None])[0])

    def contains_batch(self, W) -> np.ndarray:
        """Membership at each row of an (N, n) array, a bool (N,) array."""
        return self._members(_rows(W, self.dim))

    def _members(self, W: np.ndarray) -> np.ndarray:
        """The body's membership formula, on validated rows."""
        raise NotImplementedError

    def support(self, a) -> float:
        """sup of a . w over the body, finite by boundedness."""
        return float(self._supports(_vector(a, self.dim)[None])[0])

    def support_batch(self, A) -> np.ndarray:
        """The support value at each row of an (N, n) array."""
        return self._supports(_rows(A, self.dim))

    def _supports(self, A: np.ndarray) -> np.ndarray:
        """The body's support formula, on validated rows, from a closed
        form; a body without one refuses, so no competitor rests on an
        uncertified bound, and a suite that needs one does not apply."""
        raise NotApplicable(f"no certified support for {type(self).__name__}")

    def tight_covectors(self, D) -> np.ndarray:
        """A covector c per row d of an (N, n) array, d != 0, scaled so
        that the slab {|c . w| < 1} holds the body and touches it."""
        return self._tight_covectors(_rows(D, self.dim))

    def _tight_covectors(self, D: np.ndarray) -> np.ndarray:
        """The body's tight covectors, on validated rows: by default d over
        max(h(d), h(-d)), from its support formula."""
        return D / np.maximum(self._supports(D), self._supports(-D))[:, None]

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def inradius(self) -> float:
        """Radius of some ball around interior_point() contained in the body."""
        raise NotImplementedError

    def outer_radius(self) -> float:
        """sup |w| over the body: the radius of the smallest ball about the
        origin that holds it; a generic smooth body states a bound."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def gauge(self, x, y) -> float:
        """Minkowski functional of the body centered at interior x, at y."""
        return self._gauge(_vector(x, self.dim), _vector(y, self.dim))

    def _gauge(self, x: np.ndarray, y: np.ndarray) -> float:
        # the batch of one row, on the vectors ``gauge`` validated
        return float(self._gauges(self._centered(x[None]), y[None])[0])

    def gauge_centers(self, X) -> np.ndarray:
        """Bool (N,) mask of the rows of X that may center a gauge; the
        gauges refuse exactly the others."""
        return self._centers(_rows(X, self.dim))[0]

    def _centers(self, X: np.ndarray):
        """The center pass on validated rows: the mask of the rows that may
        center a gauge (by default the body's points) and the center terms
        of the rows it keeps, which every gauge formula reads (by default
        the rows themselves). The formulas broadcast terms of one row."""
        centers = self._members(X)
        return centers, X[centers]

    def _centered(self, X: np.ndarray):
        """The center terms of validated rows X; raises OutsideDomainError
        with ``center_refusal`` unless every row is a gauge center."""
        centers, C = self._centers(X)
        if not np.all(centers):
            raise OutsideDomainError(self.center_refusal)
        return C

    def gauge_batch(self, X, Y) -> np.ndarray:
        """Gauges centered at the rows of X, at the rows of Y, as an (N,)
        array; refused as ``_centered`` refuses."""
        X, Y = _rows(X, self.dim), _rows(Y, self.dim)
        return self._gauges(self._centered(X), Y)

    def gauge_pair(self, X, Y, masked: bool = False):
        """The gauges at y and -y centered at each row x, the pair (p(z),
        p(conj z)) at z = x + iy, from one center pass; refused as
        ``_centered`` refuses. With ``masked`` no row is refused: the
        result is (centers, P, Q), the mask ``gauge_centers(X)`` and the
        pair at the rows it keeps."""
        X, Y = _rows(X, self.dim), _rows(Y, self.dim)
        if not masked:
            return self._gauge_pairs(self._centered(X), Y)
        centers, C = self._centers(X)
        return (centers, *self._gauge_pairs(C, Y[centers]))

    def _gauges(self, C, Y: np.ndarray) -> np.ndarray:
        """The body's gauge formula at center terms C, at the rows Y."""
        raise NotImplementedError

    def _gauge_pairs(self, C, Y: np.ndarray):
        """The gauges at the rows Y and -Y, by default two gauge batches."""
        return self._gauges(C, Y), self._gauges(C, -Y)

    def gauge_hessian(self, x, y) -> np.ndarray:
        """y-Hessian of the gauge centered at interior x, at y != 0."""
        return self._offcenter_hessians(_vector(x, self.dim)[None],
                                        _vector(y, self.dim)[None])[0]

    def gauge_hessian_batch(self, X, Y) -> np.ndarray:
        """gauge_hessian at each row pair of X and Y, shape (N, n, n)."""
        return self._offcenter_hessians(_rows(X, self.dim),
                                        _rows(Y, self.dim))

    def _offcenter_hessians(self, X: np.ndarray, Y: np.ndarray):
        """_hessians at validated rows, refused at y = 0 and off center."""
        if not np.all(np.any(Y, axis=1)):
            raise ValueError("gauge Hessian undefined at y = 0")
        return self._hessians(self._centered(X), Y)

    def _hessians(self, C, Y: np.ndarray) -> np.ndarray:
        """The body's gauge Hessian formula at center terms C, y != 0."""
        raise NotImplementedError


def _subsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m), one per row, in lexicographic order."""
    flat = chain.from_iterable(combinations(range(m), k))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, k)


def _unit_halfspaces(A: np.ndarray, b: np.ndarray):
    """The halfspaces a.w < b rewritten as u.w < beta with |u| = 1.

    A halfspace whose offset |b| / max_j |a_j| is past the float range
    holds at every float point if b > 0 and is dropped, and at none if
    b <= 0, which includes a zero row with b <= 0. Subnormal entries of u
    are flushed to zero, since BLAS kernels take a subnormal pivot for a
    zero one.
    """
    top = np.max(np.abs(A), axis=1)
    far = np.abs(b) / np.finfo(float).max >= top
    if np.any(far & (b <= 0.0)):
        raise SpecError("polytope has empty interior")
    # scaled by the largest entry first, so the norm cannot overflow
    A, b, top = A[~far], b[~far], top[~far]
    norms = np.hypot.reduce(A / top[:, None], axis=1)
    U = A / top[:, None] / norms[:, None]
    U[np.abs(U) < np.finfo(float).tiny] = 0.0
    return U, b / top / norms


def _solve_subsets(M: np.ndarray, c: np.ndarray, S: np.ndarray):
    """Feasible solutions of the square subsystems M[S] v = c[S] whose rows
    are independent (|det| above _RANK_RTOL; the rows bound it by their
    norms), in subset order, with the rows tight at each.

    A solution is kept if it satisfies M v <= c up to a slack relative to
    the data; one whose coordinates or residuals overflow lies past the
    float range.
    """
    # a pivot that underflows to zero makes det take log(0): the subset
    # is singular and its det of 0 is screened out below
    with np.errstate(divide="ignore"):
        S = S[np.abs(np.linalg.det(M[S])) > _RANK_RTOL]
    V = np.linalg.solve(M[S], c[S][:, :, None])[:, :, 0]
    V = V[np.all(np.isfinite(V), axis=1)]
    with np.errstate(over="ignore"):
        residual = V @ M.T - c
        slack = _FEAS_RTOL * (np.abs(V) @ np.abs(M).T + np.abs(c))
    feasible = np.all(np.isfinite(slack) & (residual <= slack), axis=1)
    return V[feasible], np.abs(residual[feasible]) <= slack[feasible]


def _basic_feasible(M: np.ndarray, c: np.ndarray):
    """Distinct vertices of {v : M v <= c}, rows of M of norm about 1,
    with the rows tight at each.

    Every square subsystem is solved (_solve_subsets), _SUBSET_CHUNK
    subsets per stacked call, so the time grows as C(m, dim) and the
    memory stays bounded. Solutions with the same tight rows are one
    vertex, reached from several subsystems where more than dim
    halfspaces meet, and the first in subset order is kept.
    """
    S = _subsets(*M.shape)
    # one call at least, so that no subsets give empty arrays
    chunks = [_solve_subsets(M, c, S[i:i + _SUBSET_CHUNK])
              for i in range(0, max(len(S), 1), _SUBSET_CHUNK)]
    V = np.concatenate([v for v, _ in chunks])
    tight = np.concatenate([t for _, t in chunks])
    keys = np.packbits(tight, axis=1)
    _, first = np.unique(keys.view(f"V{keys.shape[1]}")[:, 0],
                         return_index=True)
    first.sort()
    return V[first], tight[first]


def _check_bounded(U: np.ndarray):
    """Raise unless the recession cone {d : U d <= 0} is {0}, for unit
    rows U.

    With rank U = n the cone is pointed, so it is {0} exactly when it has
    no extreme ray; an extreme ray spans the null space of n - 1
    independent rows, with one of its two signs.
    """
    n = U.shape[1]
    if np.linalg.matrix_rank(U) < n:
        raise SpecError("polytope is unbounded")
    if n == 1:
        rays = np.array([[1.0], [-1.0]])
    else:
        _, s, vh = np.linalg.svd(U[_subsets(len(U), n - 1)])
        d = vh[s[:, -1] > _RANK_RTOL * s[:, 0], -1]
        rays = np.vstack([d, -d])
    if np.any(np.all(rays @ U.T <= _FEAS_RTOL, axis=1)):
        raise SpecError("polytope is unbounded")


def _chebyshev(U: np.ndarray, beta: np.ndarray):
    """Center and radius of the largest ball in {w : U w < beta}, unit
    rows U: the maximum of r over the vertices of {(x, r) : U x + r <=
    beta}, several optimal vertices resolving to their mean."""
    sol, _ = _basic_feasible(np.hstack([U, np.ones((len(U), 1))]), beta)
    if len(sol) == 0 or np.max(sol[:, -1]) <= 0.0:
        raise SpecError("polytope has empty interior")
    radius = float(np.max(sol[:, -1]))
    best = sol[sol[:, -1] >= radius * (1.0 - _FEAS_RTOL)]
    return np.mean(best[:, :-1], axis=0), radius


class Polytope(ConvexBody):
    """Open polytope {w : A w < b}, bounded (normals positively span R^n).

    Built with NumPy alone: the vertices are the feasible solutions of
    the square subsystems of the halfspaces, the bounding box is their
    extent (a linear function peaks at a vertex), and the Chebyshev ball
    comes from the same enumeration one dimension up.
    """

    c2 = False  # faces meet at corners
    center_refusal = "gauge center x is not inside the polytope"

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        if self.A.shape[0] != self.b.size:
            raise SpecError("halfspace count mismatch between A and b")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise SpecError("non-finite halfspace data")
        self.dim = self.A.shape[1]
        if self.dim == 0:
            raise SpecError("polytope dimension must be at least 1")
        U, beta = _unit_halfspaces(self.A, self.b)
        _check_bounded(U)
        self._vertices, tight = _basic_feasible(U, beta)
        if len(self._vertices) == 0:
            raise SpecError("polytope has empty interior")
        self._bbox = self._vertices.min(axis=0), self._vertices.max(axis=0)
        # only halfspaces tight at a vertex can touch the ball: the others
        # hold strictly on the whole closure
        rows = np.any(tight, axis=0)
        self._cheb_center, self._cheb_radius = _chebyshev(U[rows],
                                                          beta[rows])

    def _members(self, W) -> np.ndarray:
        return np.all(_matvec(self.A, W) < self.b, axis=1)

    def _supports(self, A) -> np.ndarray:
        return np.max(_matvec(self._vertices, A), axis=1)

    def interior_point(self) -> np.ndarray:
        return self._cheb_center.copy()

    def inradius(self) -> float:
        return self._cheb_radius

    def outer_radius(self) -> float:
        # a norm peaks at a vertex; hypot does not overflow
        return float(np.max(np.hypot.reduce(self._vertices, axis=1)))

    def bounding_box(self):
        return self._bbox[0].copy(), self._bbox[1].copy()

    def _centers(self, X):
        # A x once: the center test A x < b and the terms b - A x
        AX = _matvec(self.A, X)
        centers = np.all(AX < self.b, axis=1)
        return centers, self.b - AX[centers]

    def _gauges(self, den, Y) -> np.ndarray:
        # a.y <= 0 never constrains t (the empty max is 0); past the float
        # range a quotient, and so the gauge, is inf
        with np.errstate(over="ignore"):
            top = np.max(_matvec(self.A, Y) / den, axis=1)
        return np.where(top > 0.0, top, 0.0)

    def _gauge_pairs(self, den, Y):
        # as _gauges; the quotients at -y are those at y negated, exactly
        with np.errstate(over="ignore"):
            R = _matvec(self.A, Y) / den
        return tuple(np.where(top > 0.0, top, 0.0)
                     for top in (np.max(R, axis=1), -np.min(R, axis=1)))

    def _hessians(self, C, Y) -> np.ndarray:
        raise ValueError("polytope gauge is not C2; no Hessian")


class Ellipsoid(ConvexBody):
    """Open ellipsoid {w : w^T Q w < 1} with Q symmetric positive definite."""

    center_refusal = "x too close to the ellipsoid boundary"

    def __init__(self, Q):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if Q.shape[0] != Q.shape[1]:
            raise SpecError("Q must be square")
        if not np.all(np.isfinite(Q)):
            raise SpecError("non-finite Q")
        if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
            raise SpecError("Q must be symmetric")
        self.Q = 0.5 * (Q + Q.T)
        try:
            np.linalg.cholesky(self.Q)
        except np.linalg.LinAlgError:
            raise SpecError("Q must be positive definite") from None
        self.dim = Q.shape[0]
        self._Qinv = np.linalg.inv(self.Q)
        eigs = np.linalg.eigvalsh(self.Q)
        self._eigmin, self._eigmax = float(eigs[0]), float(eigs[-1])

    def _members(self, W) -> np.ndarray:
        return ((W[:, None, :] @ self.Q) @ W[:, :, None])[:, 0, 0] < 1.0

    def _supports(self, A) -> np.ndarray:
        # a @ Qinv @ a row by row, with the kernels of _members
        return np.sqrt(((A[:, None, :] @ self._Qinv) @ A[:, :, None])[:, 0, 0])

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def inradius(self) -> float:
        return 1.0 / np.sqrt(self._eigmax)

    def outer_radius(self) -> float:
        return 1.0 / np.sqrt(self._eigmin)

    def bounding_box(self):
        half = np.sqrt(np.diag(self._Qinv))
        return -half, half.copy()

    def _centers(self, X):
        # Q x and d = 1 - x Q x once, for the center test and the terms
        # (Q x, d). Not _members: the gauge also refuses centers within
        # 1e-12 of the boundary, where its quadratic loses all precision
        QX = _matvec(self.Q, X)
        d = 1.0 - _rowdot(X, QX)
        centers = d >= 1e-12
        return centers, (QX[centers], d[centers])

    def _gauges(self, C, Y) -> np.ndarray:
        b, r, d, back = self._radicals(C, Y)
        return back((b + r) / d)

    def _gauge_pairs(self, C, Y):
        # b is odd in y and c even, exactly, so the gauge at -y is
        # (-b + r) / d
        b, r, d, back = self._radicals(C, Y)
        return back((b + r) / d), back((r - b) / d)

    def _radicals(self, C, Y):
        """(b, r, d, back): the gauge at y is back((b + r) / d), with
        b = Q x . y, c = y Q y and r = sqrt(b^2 + c d)."""
        QX, d = C
        c = self._quadratic(Y)
        # the gauge is 1-homogeneous, and scaling y by a power of two is
        # exact while no product leaves the normal range: a row whose
        # quadratic c lies outside _QUADRATIC_RANGE, where b * b or c * d
        # may underflow or overflow, is evaluated at y / 2^e, with max
        # |y_i| / 2^e in [1/2, 1), and scaled back by ``back``, which also
        # sets 0 at y = 0
        offcenter = np.any(Y, axis=1)
        wild = np.flatnonzero(offcenter & ~((c >= _QUADRATIC_RANGE[0])
                                            & (c <= _QUADRATIC_RANGE[1])))
        if len(wild):
            e = np.frexp(np.max(np.abs(Y[wild]), axis=1))[1]
            Y = Y.copy()
            Y[wild] = np.ldexp(Y[wild], -e[:, None])
            c[wild] = self._quadratic(Y[wild])
        b = _rowdot(QX, Y)

        def back(p):
            if len(wild):
                with np.errstate(over="ignore"):  # past the float range
                    p[wild] = np.ldexp(p[wild], e)
            return np.where(offcenter, p, 0.0)
        return b, np.sqrt(b * b + c * d), d, back

    def _tight_covectors(self, D) -> np.ndarray:
        # Q d / sqrt(d Q d), the normal covector at the boundary point on
        # the ray of d
        return _matvec(self.Q, D) / np.sqrt(self._quadratic(D))[:, None]

    def _quadratic(self, Y: np.ndarray) -> np.ndarray:
        # y Q y row by row, with the kernels of _members; not finite
        # where it leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):
            return ((Y[:, None, :] @ self.Q) @ Y[:, :, None])[:, 0, 0]

    def _hessians(self, C, Y) -> np.ndarray:
        QX, d = C
        QY = _matvec(self.Q, Y)
        b = _rowdot(QX, Y)
        c = _rowdot(QY, Y)
        r = np.sqrt(b * b + c * d)[:, None, None]
        d = d[:, None, None]
        v = b[:, None] * QX + d[:, :, 0] * QY
        return (QX[:, :, None] * QX[:, None, :] / r + d * self.Q / r
                - v[:, :, None] * v[:, None, :] / r ** 3) / d


class SmoothBody(ConvexBody):
    """Body {w : f(w) < 0} given by an oracle w -> (value, gradient, Hessian).

    The caller declares a bounding radius; convexity is spot-checked by
    sampling the oracle Hessian. ``oracle_batch`` gives the values and
    gradients at the rows of an (N, n) array, for the batched root find of
    ``_gauges``; a subclass with a closed form overrides it. A generic
    body has no certified support value, so competitors that need one are
    not built over it.
    """

    def __init__(self, oracle: Callable[[np.ndarray], tuple], dim: int,
                 bounding_radius: float):
        if bounding_radius <= 0 or not np.isfinite(bounding_radius):
            raise SpecError("bounding radius must be positive and finite")
        self.oracle = oracle
        self.dim = int(dim)
        self.bounding_radius = float(bounding_radius)
        if not self.contains(np.zeros(self.dim)):
            raise SpecError("smooth body oracle must contain the origin")
        self._spot_check_convexity()

    def _spot_check_convexity(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
        for _ in range(32):
            w = rng.uniform(-1.0, 1.0, self.dim) * self.bounding_radius
            _, _, hess = self.oracle(w)
            if np.min(np.linalg.eigvalsh(np.asarray(hess, dtype=float))) < -1e-10:
                raise SpecError("smooth body oracle is not convex")

    def _member(self, x) -> bool:
        # one point, not a batch of one row: _gauge_bisect tests
        # membership once per bracket step, and timed on a superellipse a
        # batch of one row costs 27 against 13 us a call
        with np.errstate(over="ignore"):  # a norm past the range is outside
            far = np.linalg.norm(x) > self.bounding_radius
        if far:
            return False
        value, _, _ = self.oracle(x)
        return bool(value < 0.0)

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def inradius(self) -> float:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
        dirs = list(np.eye(self.dim)) + list(-np.eye(self.dim))
        for _ in range(64):
            v = rng.normal(size=self.dim)
            dirs.append(v / np.linalg.norm(v))
        D = np.array(dirs)
        r = float(np.min(1.0 / self.gauge_batch(np.zeros_like(D), D)))
        return 0.9 * r

    def bounding_box(self):
        half = np.full(self.dim, self.bounding_radius)
        return -half, half.copy()

    def outer_radius(self) -> float:
        return self.bounding_radius

    def oracle_batch(self, W: np.ndarray):
        """Values (N,) and gradients (N, n) of the oracle at the rows of W.

        Generic version: the oracle row by row.
        """
        values = np.empty(len(W))
        grads = np.empty_like(W)
        for i, w in enumerate(W):
            values[i], grads[i], _ = self.oracle(w)
        return values, grads

    def _members(self, W) -> np.ndarray:
        # _member at each row, the oracle only within the bounding radius
        with np.errstate(over="ignore"):  # as in _member
            near = np.sqrt(_rowdot(W, W)) <= self.bounding_radius
        member = np.zeros(len(W), dtype=bool)
        member[near] = self.oracle_batch(W[near])[0] < 0.0
        return member

    def _gauge_bisect(self, x: np.ndarray, y: np.ndarray) -> float:
        """Gauge 1/s, s the root of phi(s) = f(x + s y), for interior x, y != 0.

        Membership brackets s by factors of two; boundedness guarantees the
        outer endpoint and openness the inner one. phi is convex with
        phi(0) < 0, so its root is simple, and a safeguarded Newton step
        (rtsafe, Numerical Recipes 9.4) on the oracle value and gradient
        refines it, bisecting whenever a Newton step would leave the
        bracket or fails to halve the step before last; an oracle without
        a useful gradient therefore degrades to bisection. The name is
        kept because ``perfbench/spans.py`` hooks ``_gauge_bisect`` for
        its ``bodies.bisect.*`` root-find metrics.
        """
        if self.contains(x + y):
            s_lo = 1.0
            for _ in range(_MAX_BRACKET):
                s_hi = s_lo * _BRACKET_GROWTH
                if not self.contains(x + s_hi * y):
                    break
                s_lo = s_hi
            else:
                raise ConvergenceError("no outer bracket for the gauge root")
        else:
            s_hi = 1.0
            for _ in range(_MAX_BRACKET):
                s_lo = s_hi / _BRACKET_GROWTH
                if self.contains(x + s_lo * y):
                    break
                s_hi = s_lo
            else:
                raise ConvergenceError("no inner bracket for the gauge root")
        s = 0.5 * (s_lo + s_hi)
        step = step_before = s_hi - s_lo
        for _ in range(_MAX_ROOT_STEPS):
            value, grad, _ = self.oracle(x + s * y)
            if value < 0.0:
                s_lo = s
            else:
                s_hi = s
            slope = float(np.dot(grad, y))
            newton = value / slope if slope > 0.0 else np.inf
            if abs(newton) <= _REL_TOL * s:
                return 1.0 / (s - newton)
            if s_hi - s_lo <= _REL_TOL * s_hi:
                return 1.0 / s
            if s_lo < s - newton < s_hi and 2.0 * abs(newton) <= step_before:
                step_before, step = step, abs(newton)
                s -= newton
            else:
                step_before, step = step, 0.5 * (s_hi - s_lo)
                s = s_lo + step
        raise ConvergenceError("gauge root find did not settle")

    def _gauges(self, X, Y) -> np.ndarray:
        # the center terms are the rows x, or a Gauge's one origin row
        if len(X) != len(Y):
            X = X.repeat(len(Y), axis=0)
        out = np.zeros(len(X))
        rows = np.flatnonzero(np.any(Y, axis=1))
        if len(rows) > _SCALAR_ROWS:
            out[rows] = 1.0 / self._roots(X[rows], Y[rows])
        else:
            # the same roots: below this size the masked loop's per-round
            # cost exceeds the scalar root find's
            for i in rows.tolist():
                out[i] = self._gauge_bisect(X[i], Y[i])
        return out

    def _roots(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The root s of ``_gauge_bisect`` at every row pair, y != 0.

        The scalar iteration run on all rows at once: each row keeps its
        own bracket, steps and iteration count, with the same constants,
        tests and dot products, and leaves the loop when a scalar stopping
        rule fires; so each root is the scalar one bit for bit. The state
        arrays hold only the rows still running.
        """
        s_lo, s_hi = self._brackets(X, Y)
        roots = np.empty(len(X))
        rows = np.arange(len(X))
        s = 0.5 * (s_lo + s_hi)
        step = step_before = s_hi - s_lo
        # the scalar divides Python floats, which never warn; a slope of
        # 0 or below gives no Newton step (inf) there
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_MAX_ROOT_STEPS):
                value, grad = self.oracle_batch(X + s[:, None] * Y)
                below = value < 0.0
                np.copyto(s_lo, s, where=below)
                np.copyto(s_hi, s, where=~below)
                slope = _rowdot(grad, Y)
                newton = value / slope
                np.copyto(newton, np.inf, where=~(slope > 0.0))
                size = np.abs(newton)
                target = s - newton
                width = s_hi - s_lo
                by_newton = size <= _REL_TOL * s
                done = by_newton | (width <= _REL_TOL * s_hi)
                if np.count_nonzero(done):
                    roots[rows[done]] = np.where(by_newton, target, s)[done]
                    keep = np.flatnonzero(~done)
                    if not len(keep):
                        return roots
                    (rows, X, Y, s, s_lo, s_hi, step, step_before, size,
                     target, width) = (
                        a[keep] for a in (rows, X, Y, s, s_lo, s_hi, step,
                                          step_before, size, target, width))
                take = (s_lo < target) & (target < s_hi) \
                    & (2.0 * size <= step_before)
                step_before, step = step, 0.5 * width
                np.copyto(step, size, where=take)
                s = s_lo + step
                np.copyto(s, target, where=take)
        raise ConvergenceError("gauge root find did not settle")

    def _brackets(self, X: np.ndarray, Y: np.ndarray):
        """(s_lo, s_hi) of ``_gauge_bisect``'s membership bracket at every
        row pair: from s = 1, rows whose point is inside grow s by
        _BRACKET_GROWTH until it leaves, the others shrink it until it
        enters, each row with its own count. A row that has crossed probes
        the same s again and crosses again, so it needs no mask."""
        up = self._members(X + Y)
        down = ~up
        near = np.ones(len(X))  # last s on the side of s = 1
        far = np.empty(len(X))  # first s across the boundary
        for _ in range(_MAX_BRACKET):
            probe = near * _BRACKET_GROWTH
            np.copyto(probe, near / _BRACKET_GROWTH, where=down)
            crossed = self._members(X + probe[:, None] * Y) != up
            np.copyto(far, probe, where=crossed)
            np.copyto(near, probe, where=~crossed)
            if np.count_nonzero(crossed) == len(X):
                return np.where(up, near, far), np.where(up, far, near)
        if up[np.argmin(crossed)]:
            raise ConvergenceError("no outer bracket for the gauge root")
        raise ConvergenceError("no inner bracket for the gauge root")

    def _hessians(self, X, Y) -> np.ndarray:
        """Central-difference y-Hessians of the gauge, step 1e-4 |y|, in one
        gauge batch: the stencil moves y alone, and each point takes the x
        of its row (the rows, then the 2 n^2 neighbours of each in turn)."""
        def field(Ys):
            ring = np.repeat(X, 2 * self.dim ** 2, axis=0)
            return self._gauges(np.concatenate([X, ring]), Ys)
        # |y| by the one-row norm's kernel; np.linalg.norm on an axis differs
        return central_differences(field, Y, 1e-4 * np.sqrt(_rowdot(Y, Y)))[2]


class Superellipse(SmoothBody):
    """Axis-aligned superellipse {sum (w_i / r_i)^m < 1}, m even, m >= 2."""

    def __init__(self, radii: Sequence[float], power: int = 4):
        radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or np.any(radii <= 0):
            raise SpecError("superellipse radii must be positive")
        power = int(power)
        if power < 2 or power % 2 != 0:
            raise SpecError("superellipse power must be an even integer >= 2")
        self.radii = radii
        self.power = power

        def oracle(w):
            # no Hessian: only the convexity spot check would read it
            s = w / radii
            value = float(np.sum(s ** power) - 1.0)
            grad = power * s ** (power - 1) / radii
            return value, grad, None

        # |w_i| < r_i for members, so the box diagonal bounds the body;
        # over max r_i where |r|^2 overflows or underflows to 0
        with np.errstate(over="ignore"):
            diagonal = float(np.linalg.norm(radii))
        if not 0.0 < diagonal < np.inf:
            top = float(np.max(radii))
            diagonal = top * float(np.linalg.norm(radii / top))
        super().__init__(oracle, radii.size,
                         bounding_radius=diagonal * 1.0001)

    def oracle_batch(self, W: np.ndarray):
        """The oracle's closed form over the rows of W, equal to it row by
        row."""
        S = W / self.radii
        m = self.power
        # add.reduce is np.sum without its wrapper, so the same sum
        return (np.add.reduce(S ** m, axis=1) - 1.0,
                m * S ** (m - 1) / self.radii)

    def _spot_check_convexity(self):
        """Nothing to check: a sum of even powers is convex."""

    def _supports(self, A) -> np.ndarray:
        # Hoelder duality: the dual of the weighted m-norm ball
        m = self.power
        q = m / (m - 1)
        sums = np.add.reduce(np.abs(A * self.radii) ** q, axis=1)
        # the outer power per value: NumPy's power over an array differs
        # from the scalar power in the last bit in about one row in
        # twenty, which moves maximality reports
        return np.array([s ** (1.0 / q) for s in sums.tolist()], dtype=float)

    def inradius(self) -> float:
        return float(np.min(self.radii))

    def outer_radius(self) -> float:
        # Hoelder: |w|^2 = sum r_i^2 s_i^2 with sum s_i^m < 1 peaks at
        # |r^2|_q, q = m / (m - 2), the dual of the (m / 2)-norm; over
        # max r_i, so that huge radii do not overflow
        top = float(np.max(self.radii))
        m = self.power
        if m == 2:
            return top
        q = m / (m - 2)
        return top * float(np.sum((self.radii / top) ** (2 * q))) ** (0.5 / q)


class Gauge:
    """Origin-centered Minkowski functional of a body containing 0.

    Positively homogeneous and convex, but not assumed symmetric:
    gauge(-y) may differ from gauge(y).
    """

    def __init__(self, body: ConvexBody):
        self.body = body
        self._origin = np.zeros(body.dim)
        # the one center pass: every gauge reads the origin's terms
        centers, self._terms = body._centers(self._origin[None])
        if not centers[0]:
            raise SpecError("gauge requires a body containing the origin")

    @property
    def dim(self) -> int:
        return self.body.dim

    def __call__(self, y) -> float:
        """The gauge at y: the batch of one row."""
        return float(self.body._gauges(self._terms,
                                       _vector(y, self.dim)[None])[0])

    def batch(self, Y) -> np.ndarray:
        """The gauge at each row of an (N, n) array."""
        return self.body._gauges(self._terms, _rows(Y, self.dim))

    def hessian(self, y) -> np.ndarray:
        return self.body.gauge_hessian(self._origin, y)


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from its JSON specification object."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise SpecError("body spec must be an object with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "polytope":
            halfspaces = spec["halfspaces"]
            A = [hs["a"] for hs in halfspaces]
            b = [hs["b"] for hs in halfspaces]
            return Polytope(A, b)
        if kind == "ellipsoid":
            return Ellipsoid(spec["Q"])
        if kind == "smooth":
            if spec.get("kind") != "superellipse":
                raise SpecError(f"unknown smooth body kind: {spec.get('kind')!r}")
            params = spec.get("params", {})
            return Superellipse(params["radii"], params.get("power", 4))
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecError(f"malformed body spec: {exc}") from exc
    raise SpecError(f"unknown body type: {kind!r}")


def interval(lo: float, hi: float) -> Polytope:
    """The 1-D body (lo, hi) as a polytope."""
    if not lo < hi:
        raise SpecError("interval requires lo < hi")
    return Polytope([[1.0], [-1.0]], [hi, -lo])
