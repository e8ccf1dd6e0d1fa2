"""The package's one finite-difference stencil, in one batched field call.

A field maps an (M, m) array to its M values; ``pointwise`` lifts a scalar
field to one. ``second_differences`` is the only code that places stencil
points and calls a field: every row and its neighbours w +/- h d along
every direction d go to the field at once, so a vectorized field pays its
call overhead once per batch. Its readers share the directions of
``pair_directions``: ``central_differences`` (phases +1, -1, the real
gradient and Hessian) and ``levi._line_forms`` (phases +1, -1, +i, -i,
Levi matrices by polarization).
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], float]
BatchField = Callable[[np.ndarray], np.ndarray]


def pointwise(field: Field) -> BatchField:
    """A scalar field lifted to the rows of an (N, n) array, one call each."""
    def batch(Z):
        return np.array([field(z) for z in Z], dtype=float)
    return batch


@functools.lru_cache(maxsize=None)
def pair_directions(m: int, phases: tuple):
    """(D, rows, cols), cached per (m, phases) and read-only: the rows of D
    are the axes e_a, then e_a + s e_b for each phase s and, within it,
    each pair a < b in ``np.triu_indices`` order. The matrix entry of the
    k-th of the m axes and P pairs is (rows[k], cols[k])."""
    a, b = np.triu_indices(m, 1)
    diag = np.arange(m)
    rows, cols = np.concatenate([diag, a]), np.concatenate([diag, b])
    pairs = m + np.arange(len(phases) * len(a))
    D = np.zeros((m + len(pairs), m), dtype=np.result_type(*phases, 1.0))
    D[diag, diag] = D[pairs, np.tile(a, len(phases))] = 1.0
    D[pairs, np.tile(b, len(phases))] = np.repeat(phases, len(a))
    for array in (D, rows, cols):
        array.setflags(write=False)
    return D, rows, cols


def second_differences(field: BatchField, W: np.ndarray, D: np.ndarray,
                       h):
    """f(w), f(w + h d) and f(w - h d) at each row w of W along each row d
    of D, shapes (N,), (N, L) and (N, L), from one field call on the N
    rows and then the 2 L neighbours of each, row by row. The step h is
    one for every row, or an (N,) array of one step per row."""
    if (np.asarray(h) <= 0).any():
        raise ValueError("step h must be positive")
    N, m = W.shape
    hD = np.multiply.outer(h, D)  # (L, m), or (N, L, m) per row
    ring = (W[:, None, :] + np.concatenate([hD, -hD], axis=-2)).reshape(-1, m)
    F = np.asarray(field(np.concatenate([W, ring])), dtype=float)
    F_ring = F[N:].reshape(N, 2, len(D))
    return F[:N], F_ring[:, 0], F_ring[:, 1]


def central_differences(field: BatchField, W, h):
    """Value, gradient and Hessian of a field at the rows of W, shapes
    (N,), (N, m) and (N, m, m), by central differences with step h, one
    for every row or one per row: (f(+) - f(-)) / 2h for the gradient,
    (f(+) - 2 f + f(-)) / h^2 on the Hessian diagonal and the four-point
    cross difference off it, from the 1 + 2 m^2 points of each row. The
    Hessian is symmetric by construction.
    """
    W = np.asarray(W, dtype=float)
    N, m = W.shape
    D, rows, cols = pair_directions(m, (1, -1))
    f0, plus, minus = second_differences(field, W, D, h)
    h = np.asarray(h)[..., None]  # one step, or a column of one per row
    P = len(rows) - m  # pairs, sized so that N = 0 reshapes too
    pp, pm = plus[:, m:].reshape(N, 2, P).transpose(1, 0, 2)
    mm, mp = minus[:, m:].reshape(N, 2, P).transpose(1, 0, 2)
    hess = np.empty((N, m, m))
    hess[:, rows, cols] = hess[:, cols, rows] = np.concatenate([
        (plus[:, :m] - 2 * f0[:, None] + minus[:, :m]) / (h * h),
        (pp - pm - mp + mm) / (4 * h * h)], axis=1)
    return f0, (plus[:, :m] - minus[:, :m]) / (2 * h), hess
