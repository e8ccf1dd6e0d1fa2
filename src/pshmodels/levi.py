"""Finite-difference pluripotential diagnostics.

Levi forms along complex lines via 5-point stencils, full Hermitian Levi
matrices by polarization, plurisubharmonicity and Monge-Ampere degeneracy
checks on sampled safe-region points, and the smooth-case identities tying
the tube potential's Levi matrix to gauge Hessians.

Every check draws its samples from ``substream(seed, k)`` and evaluates
all their stencil points in one batched field call (``potential_batch``,
``gauge_batch``); psh and ma share one cached draw and its eigenvalues.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, Ellipsoid, Gauge, _rows, _vector
from .errors import OutsideDomainError
from .models import EllipticTube, Model, as_points, pointwise
from .reports import CheckReport, point_to_list
from .sampling import substream
from .stencils import BatchField, central_differences

Field = Callable[[np.ndarray], float]


def _line_forms(field: BatchField, Z: np.ndarray, D: np.ndarray,
                h: float) -> np.ndarray:
    """Levi forms at each row of Z along each row of D, shape (N, L).

    Quarter of the 5-point Laplacian of t -> field(z + t d) over the
    complex t-plane. The centers and the 4 L neighbours of every center
    go to the field in one call.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    N, n = Z.shape
    L = D.shape[0]
    hd = h * D
    ihd = 1j * h * D
    offsets = np.concatenate([hd, -hd, ihd, -ihd])
    points = np.concatenate([Z, (Z[:, None, :] + offsets).reshape(-1, n)])
    F = np.asarray(field(points), dtype=float)
    f0 = F[:N, None]
    ring = F[N:].reshape(N, 4, L)
    total = ring[:, 0] + ring[:, 1] + ring[:, 2] + ring[:, 3] - 4.0 * f0
    return 0.25 * total / (h * h)


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


def _polarization_lines(n: int) -> np.ndarray:
    """Directions e_j, then e_j + e_k, e_j - e_k, e_j + i e_k, e_j - i e_k
    for each k > j, in the order levi_matrices reads them."""
    eye = np.eye(n, dtype=complex)
    lines = []
    for j in range(n):
        lines.append(eye[j])
        for k in range(j + 1, n):
            lines += [eye[j] + eye[k], eye[j] - eye[k],
                      eye[j] + 1j * eye[k], eye[j] - 1j * eye[k]]
    return np.array(lines)


def levi_matrices(field: BatchField, Z, h: float) -> np.ndarray:
    """Hermitian Levi matrices (N, n, n) of a batched field at the rows of Z.

    Diagonal entries come from coordinate lines directly; off-diagonal
    entries combine the four polarization lines e_j +/- e_k, e_j +/- i e_k.
    One field call covers the 1 + 4 (2 n^2 - n) stencil points of every
    row, 25 at n = 2.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2:
        raise ValueError("expected an (N, n) array of points")
    N, n = Z.shape
    forms = _line_forms(field, Z, _polarization_lines(n), h)
    A = np.zeros((N, n, n), dtype=complex)
    col = 0
    for j in range(n):
        A[:, j, j] = forms[:, col]
        col += 1
        for k in range(j + 1, n):
            spp, spm, spi, smi = forms[:, col:col + 4].T
            col += 4
            A[:, j, k] = 0.25 * ((spp - spm) + 1j * (spi - smi))
            A[:, k, j] = np.conj(A[:, j, k])
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


@functools.lru_cache(maxsize=1)
def _sampled_eigs(model: Model, nsamples: int, seed: int, h: float):
    """Safe-region samples k < nsamples and the extreme Levi eigenvalues
    of the potential at each, cached read-only: (points, lo, hi)."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    Z = np.array([model.sample_fd_safe(substream(seed, k), h)
                  for k in range(nsamples)])
    eigs = np.linalg.eigvalsh(levi_matrices(model.potential_batch, Z, h))
    Z.setflags(write=False)
    eigs.setflags(write=False)
    return Z, eigs[:, 0], eigs[:, -1]


def check_plurisubharmonic(model: Model, nsamples: int, seed: int,
                           h: float = 1e-3, tol: float = 1e-6) -> CheckReport:
    """All sampled Levi matrices satisfy min_eig >= -tol * max(1, max_eig)."""
    Z, lo, hi = _sampled_eigs(model, nsamples, seed, h)
    values = lo / np.maximum(1.0, hi)
    i = int(np.argmin(values))
    worst = float(values[i])
    return CheckReport(check="psh", model=model.name, samples=nsamples, h=h,
                       tol=tol, worst_point=point_to_list(Z[i]),
                       worst_value=worst, passed=bool(worst >= -tol))


def check_monge_ampere(model: Model, nsamples: int, seed: int,
                       h: float = 1e-3, rel_tol: float = 1e-4,
                       abs_floor: float = 1e-4) -> CheckReport:
    """One Levi eigenvalue vanishes at every sample (degenerate determinant).

    A sample passes if min_eig <= rel_tol * max_eig, or if min_eig is below
    abs_floor outright (covers dimension 1, where degeneracy means the
    whole form vanishes).
    """
    Z, lo, hi = _sampled_eigs(model, nsamples, seed, h)
    values = lo / np.maximum(hi, abs_floor)
    i = int(np.argmax(values))
    passed = np.all((lo <= rel_tol * hi) | (np.abs(lo) <= abs_floor))
    return CheckReport(check="ma", model=model.name, samples=nsamples, h=h,
                       tol=rel_tol, worst_point=point_to_list(Z[i]),
                       worst_value=float(values[i]), passed=bool(passed))


def _require_c2_body(body: ConvexBody) -> None:
    if not body.c2:
        raise ValueError("polytope bodies are not C2; check requires a "
                         "smooth boundary")


def tube_levi_residual_batch(body: ConvexBody, Z, h: float) -> np.ndarray:
    """tube_levi_residual at each row of an (N, n) array, with the Levi
    stencils of all rows evaluated in one batched potential call."""
    _require_c2_body(body)
    tube = EllipticTube(body)
    Z = as_points(Z, body.dim)
    if not np.all(np.any(Z.imag, axis=1)):
        raise OutsideDomainError("gauge Hessian undefined at center points")
    # the centers are stencil points, so a non-member row raises here
    A = levi_matrices(tube.potential_batch, Z, h)
    X, Y = Z.real, Z.imag
    target = 0.125 * (body.gauge_hessian_batch(X, Y)
                      + body.gauge_hessian_batch(X, -Y))
    return np.max(np.abs(A - target), axis=(1, 2))


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
                                   h: float) -> np.ndarray:
    """gauge_identity_residuals at each row pair of X and Y, shape (N, 3).

    One central-difference stencil in the 2n coordinates (x, y) gives
    every partial of every row, from one batched gauge call.
    """
    _require_c2_body(body)
    n = body.dim
    X = _rows(X, n)
    Y = _rows(Y, n)
    if not np.all(np.any(Y, axis=1)):
        raise OutsideDomainError("identities hold off the center only")

    def field(W):
        return body.gauge_batch(W[:, :n], W[:, n:])

    p0, grad, hess = central_differences(field, np.hstack([X, Y]), h)
    px, py = grad[:, :n], grad[:, n:]
    pxx, pxy, pyy = hess[:, :n, :n], hess[:, :n, n:], hess[:, n:, n:]
    p = p0[:, None, None]
    outer = py[:, :, None] * py[:, None, :]
    r1 = np.max(np.abs(px - p0[:, None] * py), axis=1)
    r2 = np.max(np.abs(pxy - (p * pyy + outer)), axis=(1, 2))
    r3 = np.max(np.abs(pxx - (p ** 2 * pyy + 2.0 * p * outer)), axis=(1, 2))
    return np.stack([r1, r2, r3], axis=1)


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
    x = _vector(x, model.dim)
    v = _vector(v, model.dim)
    if not np.any(v):
        return 0.0, 0.0
    levi = levi_line(lambda z: model.potential(z) ** 2, x, v, h)
    return math.sqrt(max(2.0 * levi, 0.0)), model.metric(x, v)
