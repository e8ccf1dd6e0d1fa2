"""Competitor-based maximality testing.

Certified members of the tube's potential class are generated by pulling
back 1-D extremal potentials through holomorphic maps; maximality demands
each competitor stays below the model potential everywhere. Competitors
come only from constructions the closed forms certify, so any violation
indicates a real defect rather than an invalid test function.

A battery of competitors shares one cached draw of model samples and one
batched model potential call on them (``member_samples``); each
competitor is then evaluated point by point.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import ConvexBody, Ellipsoid, Gauge, _vector
from .errors import SpecError
from .geodesics import GeodesicChart
from .models import Model
from .sampling import substream, unit_disc_point


@dataclass
class Competitor:
    """A certified element of the potential class, as a point evaluator.

    `sample` (if set) draws points from the competitor's own domain, for
    competitors defined only along a sub-variety such as a disc image.
    """
    label: str
    evaluate: Callable[[np.ndarray], float]
    sample: Optional[Callable[[np.random.Generator], np.ndarray]] = None


def slab_pullback(body: ConvexBody, direction) -> Competitor:
    """Pullback of the 1-D disc potential through z -> direction . z.

    The linear map sends the tube over the body into the tube over the
    slab (alpha, beta) of attained values, which is the disc model of that
    interval; support evaluations certify the slab bounds.
    """
    a = _vector(direction, body.dim)
    if not np.any(a):
        raise SpecError("slab direction must be nonzero")
    beta = body.support(a)
    alpha = -body.support(-a)
    width = beta - alpha
    if not (np.isfinite(width) and width > 0):
        raise SpecError("degenerate slab")

    def evaluate(z: np.ndarray) -> float:
        s = complex(np.dot(a, np.asarray(z, dtype=complex)))
        phi = (2.0 * s - (alpha + beta)) / width
        return abs(cmath.atanh(phi).imag)

    return Competitor(label=f"slab[{np.round(a, 6).tolist()}]", evaluate=evaluate)


def linear_pullback(gauge: Gauge, covector) -> Competitor:
    """Pullback |Im(c . z)| of the flat-strip potential through z -> c . z.

    Admissible when |c . y| <= gauge(y) for all y, certified in closed
    form: c^T Q^{-1} c <= 1 for ellipsoidal gauges, support evaluations of
    +/- c otherwise.
    """
    c = _vector(covector, gauge.dim)
    body = gauge.body
    if isinstance(body, Ellipsoid):
        bound = float(c @ np.linalg.inv(body.Q) @ c)
        if bound > 1.0 + 1e-12:
            raise SpecError("covector exceeds the gauge (c^T Q^-1 c > 1)")
    else:
        if max(body.support(c), body.support(-c)) > 1.0 + 1e-12:
            raise SpecError("covector exceeds the gauge on the body closure")

    def evaluate(z: np.ndarray) -> float:
        return abs(float(np.dot(c, np.asarray(z, dtype=complex).imag)))

    return Competitor(label=f"linear[{np.round(c, 6).tolist()}]", evaluate=evaluate)


def geodesic_pullback(chart: GeodesicChart) -> Competitor:
    """Equality witness supported on a chart disc: on the disc image the
    competitor reproduces the disc's hyperbolic height exactly."""
    center = 0.5 * (chart.x1 + chart.x2)
    half = 0.5 * (chart.x2 - chart.x1)
    norm2 = float(half @ half)

    def invert(z: np.ndarray) -> complex:
        z = np.asarray(z, dtype=complex)
        zeta = complex(np.dot(half, z - center)) / norm2
        # relative to |z|, so the test keeps its meaning on large bodies
        residual = np.linalg.norm(z - (center + zeta * half))
        if residual > 1e-9 * max(1.0, float(np.linalg.norm(z))):
            raise ValueError("point is off the disc image")
        return zeta

    def evaluate(z: np.ndarray) -> float:
        return abs(cmath.atanh(invert(z)).imag)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return chart.point(unit_disc_point(rng))

    return Competitor(label="geodesic-disc", evaluate=evaluate, sample=sample)


@functools.lru_cache(maxsize=1)
def member_samples(model: Model, nsamples: int, seed: int):
    """Model samples k < nsamples, drawn by ``sample_member`` from
    ``substream(seed, k)``, and the model potential at each, cached
    read-only: (points, values)."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    points = np.array([model.sample_member(substream(seed, k))
                       for k in range(nsamples)])
    values = model.potential_batch(points)
    points.setflags(write=False)
    values.setflags(write=False)
    return points, values


def max_violation(model: Model, competitor: Competitor, nsamples: int,
                  seed: int) -> float:
    """Max over seeded samples of competitor(z) - potential(z); maximality
    requires a nonpositive result up to roundoff.

    A competitor with its own sampler is checked on its own draws; the
    others on ``member_samples(model, nsamples, seed)``, which the
    competitors of a battery share.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    if competitor.sample is not None:
        points = np.array([competitor.sample(substream(seed, k))
                           for k in range(nsamples)])
        values = model.potential_batch(points)
    else:
        points, values = member_samples(model, nsamples, seed)
    return float(max(competitor.evaluate(z) - u
                     for z, u in zip(points, values.tolist())))
