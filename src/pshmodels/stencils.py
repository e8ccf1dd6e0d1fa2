"""Central finite-difference stencils evaluated in one batched call.

A field maps an (M, m) real array to its M values. Every stencil point of
every sample is stacked into a single field call, so a vectorized field
pays its call overhead once per batch instead of once per point.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

BatchField = Callable[[np.ndarray], np.ndarray]


def _unit_offsets(m: int):
    """Stencil offsets in units of h: +e_a, -e_a for each a, then
    e_a + e_b, e_a - e_b, -e_a + e_b, -e_a - e_b for each pair a < b."""
    eye = np.eye(m)
    rows = []
    for a in range(m):
        rows += [eye[a], -eye[a]]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for a, b in pairs:
        rows += [eye[a] + eye[b], eye[a] - eye[b],
                 -eye[a] + eye[b], -eye[a] - eye[b]]
    return np.array(rows), pairs


def central_differences(field: BatchField, W, h: float):
    """Value, gradient and Hessian of a field at the rows of W.

    Central differences with step h: (f(+) - f(-)) / 2h for the gradient,
    (f(+) - 2 f + f(-)) / h^2 on the Hessian diagonal and the four-point
    cross difference off it. The 1 + 2 m^2 points of each of the N rows go
    to the field in one call. Returns arrays of shape (N,), (N, m) and
    (N, m, m); the Hessian is symmetric by construction.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    W = np.asarray(W, dtype=float)
    N, m = W.shape
    E, pairs = _unit_offsets(m)
    points = np.concatenate([W, (W[:, None, :] + h * E).reshape(-1, m)])
    F = np.asarray(field(points), dtype=float)
    f0 = F[:N]
    Fs = F[N:].reshape(N, len(E))
    plus, minus = Fs[:, 0:2 * m:2], Fs[:, 1:2 * m:2]
    grad = (plus - minus) / (2 * h)
    hess = np.empty((N, m, m))
    diag = np.arange(m)
    hess[:, diag, diag] = (plus - 2 * f0[:, None] + minus) / (h * h)
    for p, (a, b) in enumerate(pairs):
        pp, pm, mp, mm = Fs[:, 2 * m + 4 * p:2 * m + 4 * p + 4].T
        hess[:, a, b] = hess[:, b, a] = (pp - pm - mp + mm) / (4 * h * h)
    return f0, grad, hess
