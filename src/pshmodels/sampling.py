"""Deterministic counter-based random streams.

Sample k of a sweep is drawn from its own Philox stream keyed by
(seed, k), so results are a pure function of the pair and independent
of evaluation order or parallel scheduling.

The batched draws (``unit_vectors``, ``unit_disc_points`` and the models'
``sample_member_batch`` / ``sample_fd_safe_batch``) take one Generator per
row. Row i makes exactly the Generator calls, in the same order, that the
scalar draw makes on ``rngs[i]``, and ends with that Generator in the
same state, so a batched draw is byte-identical to the scalar row loop.
Rejection retries run in masked rounds over the rows still drawing; only
the arithmetic between the draws is shared across rows.
"""
from __future__ import annotations

import numpy as np

from .bodies import _rowdot

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for sample `index` of the sweep identified by `seed`."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
    return v / n


def unit_vectors(rngs, dim: int) -> np.ndarray:
    """``unit_vector`` of each Generator of rngs, as the rows of an
    (N, dim) array."""
    out = np.empty((len(rngs), dim))
    rows = np.arange(len(rngs))
    while len(rows):
        V = np.array([rngs[i].normal(size=dim) for i in rows.tolist()])
        # the norm of np.linalg.norm: the square root of the dot product
        norms = np.sqrt(_rowdot(V, V))
        short = norms < 1e-12
        out[rows[~short]] = V[~short] / norms[~short, None]
        rows = rows[short]
    return out


def unit_disc_point(rng: np.random.Generator) -> complex:
    """Uniform draw from the open unit disc of the complex plane."""
    r = np.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def unit_disc_points(rngs) -> np.ndarray:
    """``unit_disc_point`` of each Generator of rngs, as a complex (N,)
    array."""
    # uniform(0, b) is 0 + b u, and 0 + b u is b u for u >= 0
    U = np.array([rng.random(2) for rng in rngs]).reshape(-1, 2)
    r = np.sqrt(U[:, 0])
    theta = 2.0 * np.pi * U[:, 1]
    zetas = np.empty(len(U), dtype=complex)
    zetas.real = r * np.cos(theta)
    zetas.imag = r * np.sin(theta)
    return zetas
