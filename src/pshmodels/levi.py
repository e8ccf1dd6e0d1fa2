"""Finite-difference pluripotential diagnostics, which decide nothing.

Levi forms along complex lines via 5-point stencils, full Hermitian Levi
matrices by polarization, the residuals of the smooth-case identities
tying the tube potential's Levi matrix to gauge Hessians, and the metric
recovered from the Levi form of the squared potential. ``suites`` builds
every verdict on them.

No stencil point is placed here: a Levi form along d reads
``stencils.second_differences`` along d and i d, over the polarization
lines of ``stencils.pair_directions`` for a matrix, and the gauge
identities read ``stencils.central_differences`` in the coordinates (x, y).
A batched form evaluates every stencil point of every row in one field
call (``potential_batch``, ``gauge_batch``); the batched residuals take
one step or a sequence of steps, and evaluate the rows at every step in
that one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Ellipsoid, Gauge, _rows, _vector
from .errors import OutsideDomainError
from .models import EllipticTube, Model, as_points
from .stencils import (BatchField, Field, central_differences,
                       pair_directions, pointwise, second_differences)


def _line_forms(field: BatchField, Z: np.ndarray, D: np.ndarray,
                h) -> np.ndarray:
    """Levi forms at each row of Z along each row of D, shape (N, L), with
    step h, one for every row or an (N,) array of one per row.

    Quarter of the 5-point Laplacian of t -> field(z + t d) over the
    complex t-plane: the second differences along d and i d.
    """
    L = len(D)
    f0, plus, minus = second_differences(
        field, Z, np.concatenate([D, 1j * D]), h)
    total = (plus[:, :L] + minus[:, :L] + plus[:, L:] + minus[:, L:]
             - 4.0 * f0[:, None])
    h = np.asarray(h)[..., None]  # one step, or a column of one per row
    return 0.25 * total / (h * h)


def _at_steps(W: np.ndarray, h):
    """The rows of W once per step of h, stacked, the step of each stacked
    row, and the leading shape of a result: () for one step h, (S,) for a
    sequence of S steps."""
    h = np.asarray(h, dtype=float)
    return np.tile(W, (h.size, 1)), np.repeat(h, len(W)), h.shape


def levi_line(field: Field, z, direction, h: float) -> float:
    """Levi form of the field at z along one complex line.

    Quarter of the 5-point Laplacian of t -> field(z + t * direction) over
    the complex t-plane; exact on quadratics, O(h^2) where the field is C^4.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    d = np.atleast_1d(np.asarray(direction, dtype=complex))
    if d.shape != z.shape:
        raise ValueError("direction/point dimension mismatch")
    return float(_line_forms(pointwise(field), z[None], d[None], h)[0, 0])


def levi_matrices(field: BatchField, Z, h) -> np.ndarray:
    """Hermitian Levi matrices (N, n, n) of a batched field at the rows of
    Z, with step h, one for every row or an (N,) array of one per row.

    Diagonal entries come from coordinate lines directly; off-diagonal
    entries combine the four polarization lines e_j +/- e_k, e_j +/- i e_k.
    One field call covers the 1 + 4 (2 n^2 - n) stencil points of every
    row, 25 at n = 2.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2:
        raise ValueError("expected an (N, n) array of points")
    N, n = Z.shape
    D, rows, cols = pair_directions(n, (1, -1, 1j, -1j))
    forms = _line_forms(field, Z, D, h)
    P = len(rows) - n  # pairs, sized so that N = 0 reshapes too
    spp, spm, spi, smi = forms[:, n:].reshape(N, 4, P).transpose(1, 0, 2)
    entries = np.concatenate(
        [forms[:, :n], 0.25 * ((spp - spm) + 1j * (spi - smi))], axis=1)
    A = np.empty((N, n, n), dtype=complex)
    A[:, cols, rows] = np.conj(entries)
    A[:, rows, cols] = entries
    return A


@dataclass
class LeviReport:
    """Hermitian Levi matrix with eigen-diagnostics."""
    matrix: np.ndarray
    min_eig: float
    max_eig: float
    det_abs: float
    step: float
    point: np.ndarray


def levi_matrix(field: Field, z, h: float) -> LeviReport:
    """Levi matrix of a scalar field at one point, with its eigenvalues:
    the N = 1 case of levi_matrices, one field call per stencil point."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    A = levi_matrices(pointwise(field), z[None], h)[0]
    eigs = np.linalg.eigvalsh(A)
    return LeviReport(matrix=A, min_eig=float(eigs[0]), max_eig=float(eigs[-1]),
                      det_abs=abs(float(np.prod(eigs))), step=h, point=z)


def _require_c2_body(body: ConvexBody) -> None:
    if not body.c2:
        raise ValueError("polytope bodies are not C2; check requires a "
                         "smooth boundary")


def tube_levi_residual_batch(body: ConvexBody, Z, h) -> np.ndarray:
    """tube_levi_residual at each row of an (N, n) array, shape (N,), or
    at each of a sequence of S steps h, shape (S, N). The Levi stencils of
    every row at every step take one batched potential call, and the
    closed-form target is computed once per row."""
    _require_c2_body(body)
    tube = EllipticTube(body)
    Z = as_points(Z, body.dim)
    if not np.all(np.any(Z.imag, axis=1)):
        raise OutsideDomainError("gauge Hessian undefined at center points")
    W, steps, shape = _at_steps(Z, h)
    # the centers are stencil points, so a non-member row raises here
    A = levi_matrices(tube.potential_batch, W, steps)
    X, Y = Z.real, Z.imag
    target = 0.125 * (body.gauge_hessian_batch(X, Y)
                      + body.gauge_hessian_batch(X, -Y))
    return np.max(np.abs(A.reshape(shape + target.shape) - target),
                  axis=(-2, -1))


def tube_levi_residual(body: ConvexBody, z, h: float) -> float:
    """Max-norm gap between the FD Levi matrix of the tube potential and
    its closed form (gauge Hessians at (x, y) and (x, -y), divided by 8).

    Shrinks O(h^2) on C^2 bodies. The potential averages the arctangents
    of the two gauges with weight 1/2, and each arctangent contributes a
    quarter of a Hessian, hence the 1/8.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return float(tube_levi_residual_batch(body, z[None], h)[0])


def gauge_identity_residuals_batch(body: ConvexBody, X, Y,
                                   h) -> np.ndarray:
    """gauge_identity_residuals at each row pair of X and Y, shape (N, 3),
    or at each of a sequence of S steps h, shape (S, N, 3).

    One central-difference stencil in the 2n coordinates (x, y) gives
    every partial of every row at every step, from one batched gauge call.
    """
    _require_c2_body(body)
    n = body.dim
    X = _rows(X, n)
    Y = _rows(Y, n)
    if not np.all(np.any(Y, axis=1)):
        raise OutsideDomainError("identities hold off the center only")

    def field(W):
        return body.gauge_batch(W[:, :n], W[:, n:])

    W, steps, shape = _at_steps(np.hstack([X, Y]), h)
    p0, grad, hess = central_differences(field, W, steps)
    px, py = grad[:, :n], grad[:, n:]
    pxx, pxy, pyy = hess[:, :n, :n], hess[:, :n, n:], hess[:, n:, n:]
    p = p0[:, None, None]
    outer = py[:, :, None] * py[:, None, :]
    r1 = np.max(np.abs(px - p0[:, None] * py), axis=1)
    r2 = np.max(np.abs(pxy - (p * pyy + outer)), axis=(1, 2))
    r3 = np.max(np.abs(pxx - (p ** 2 * pyy + 2.0 * p * outer)), axis=(1, 2))
    return np.stack([r1, r2, r3], axis=1).reshape(shape + (len(X), 3))


def gauge_identity_residuals(body: ConvexBody, x, y,
                             h: float) -> tuple[float, float, float]:
    """Max-norm residuals of the three first/second-derivative identities
    tying x-derivatives of the centered gauge to its y-derivatives:

        p_x = p p_y
        p_xy = p p_yy + p_y p_y^T
        p_xx = p^2 p_yy + 2 p p_y p_y^T

    All derivatives by central finite differences; each residual is O(h^2)
    on C^2 bodies.
    """
    x = _vector(x, body.dim)
    y = _vector(y, body.dim)
    r1, r2, r3 = gauge_identity_residuals_batch(body, x[None], y[None], h)[0]
    return float(r1), float(r2), float(r3)


def metric_levi_pair(model: Model, x, v,
                     h: float = 1e-4) -> tuple[float, float]:
    """(sqrt of twice the Levi form of the squared potential, closed-form
    metric) at a center point; the pair agrees to O(h^2) when the squared
    gauge is C^2 (ellipsoidal gauges). The Levi form is levi_line's; its
    real-direction stencil points lie on the center, where the squared
    potential vanishes.
    """
    if not isinstance(getattr(model, "gauge", None), Gauge):
        raise TypeError("squared-potential check is defined for strip tubes")
    if not isinstance(model.gauge.body, Ellipsoid):
        raise ValueError("squared gauge must be C2 (ellipsoidal body)")
    x, v = model._center_args(x, v)
    if not np.any(v):
        return 0.0, 0.0
    levi = levi_line(lambda z: model.potential(z) ** 2, x, v, h)
    return math.sqrt(max(2.0 * levi, 0.0)), model.metric(x, v)
