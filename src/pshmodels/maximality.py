"""Competitor-based maximality testing.

Certified members of the tube's potential class are generated by pulling
back 1-D extremal potentials through holomorphic maps; maximality demands
each competitor stays below the model potential everywhere. Competitors
come only from constructions the closed forms certify, so any violation
indicates a real defect rather than an invalid test function.

A battery of competitors shares one cached draw of model samples and one
batched model potential call on them (``member_samples``), and one cached
draw of disc parameters (``disc_samples``) that each geodesic-disc
competitor maps through its own chart; each competitor is then evaluated
once over all its samples. ``violations`` checks a whole battery, the
images of all its disc competitors from one ``disc_points`` call and one
``potential_batch`` call, and equals ``max_violation`` competitor by
competitor, bit for bit. A competitor's evaluator takes the rows of an
(N, n) array and agrees bit for bit with the scalar formula at each row:
row-wise products use the stacked-matmul kernel of ``np.dot``, and the
complex arithmetic and ``cmath.atanh`` run per value.

A battery certifies its competitors in batches as well: ``slab_pullbacks``
and ``linear_pullbacks`` take the support values of all their directions
from two ``support_batch`` calls, and pass each competitor's to
``slab_pullback`` or ``linear_pullback``, which build it as for one
direction. The module sits below ``models``, whose models build their
batteries here.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .bodies import (ConvexBody, Gauge, _matvec, _rowdot, _rows, _vector,
                     as_points)
from .errors import SpecError
from .geodesics import GeodesicChart, disc_points
from .sampling import substreams, unit_disc_points

if TYPE_CHECKING:
    from .models import Model


@dataclass
class Competitor:
    """A certified element of the potential class, as an evaluator of the
    rows of an (N, n) complex array, returning an (N,) float array.

    `chart` (if set) is the disc a competitor is defined on, for
    competitors defined only along a disc image: it is checked at the
    images of disc parameters rather than at model samples.
    """
    label: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    chart: Optional[GeodesicChart] = None


def slab_pullback(body: ConvexBody, direction, bounds=None) -> Competitor:
    """Pullback of the 1-D disc potential through z -> direction . z.

    The linear map sends the tube over the body into the tube over the
    slab (alpha, beta) of attained values, which is the disc model of that
    interval; support evaluations certify the slab bounds. ``bounds`` is
    (alpha, beta) when the caller has those support values already, as
    ``slab_pullbacks`` has.
    """
    a = _vector(direction, body.dim)
    if not np.any(a):
        raise SpecError("slab direction must be nonzero")
    alpha, beta = (bounds if bounds is not None
                   else (-body.support(-a), body.support(a)))
    width = beta - alpha
    if not (np.isfinite(width) and width > 0):
        raise SpecError("degenerate slab")

    A = a[None, :].astype(complex)

    def evaluate(Z) -> np.ndarray:
        S = _matvec(A, as_points(Z, len(a)))[:, 0]
        return np.array([abs(cmath.atanh((2.0 * s - (alpha + beta))
                                         / width).imag)
                         for s in S.tolist()], dtype=float)

    return Competitor(label=f"slab[{np.round(a, 6).tolist()}]", evaluate=evaluate)


def slab_pullbacks(body: ConvexBody, D) -> list:
    """``slab_pullback`` along each row of D, the slabs certified by two
    ``support_batch`` calls."""
    D = _rows(D, body.dim)
    alphas = (-body.support_batch(-D)).tolist()
    betas = body.support_batch(D).tolist()
    return [slab_pullback(body, a, bounds)
            for a, bounds in zip(D, zip(alphas, betas))]


def linear_pullback(gauge: Gauge, covector, reach=None) -> Competitor:
    """Pullback |Im(c . z)| of the flat-strip potential through z -> c . z.

    Admissible when |c . y| <= gauge(y) for all y, certified by the
    closed-form support values of +/- c (sqrt(c^T Q^{-1} c) on an
    ellipsoid), whose larger one ``reach`` is when the caller has it
    already, as ``linear_pullbacks`` has.
    """
    c = _vector(covector, gauge.dim)
    if reach is None:
        reach = max(gauge.body.support(c), gauge.body.support(-c))
    if reach > 1.0 + 1e-12:
        raise SpecError("covector exceeds the gauge on the body closure")

    C = c[None, :]

    def evaluate(Z) -> np.ndarray:
        return np.abs(_matvec(C, as_points(Z, len(c)).imag)[:, 0])

    return Competitor(label=f"linear[{np.round(c, 6).tolist()}]", evaluate=evaluate)


def linear_pullbacks(gauge: Gauge, C) -> list:
    """``linear_pullback`` of each row of C, the rows certified by two
    ``support_batch`` calls."""
    C = _rows(C, gauge.dim)
    reach = np.maximum(gauge.body.support_batch(C),
                       gauge.body.support_batch(-C)).tolist()
    return [linear_pullback(gauge, c, r) for c, r in zip(C, reach)]


def geodesic_pullback(chart: GeodesicChart) -> Competitor:
    """Equality witness supported on a chart disc: on the disc image the
    competitor reproduces the disc's hyperbolic height exactly."""
    center = 0.5 * (chart.x1 + chart.x2)
    half = 0.5 * (chart.x2 - chart.x1)
    norm2 = float(half @ half)
    H = half[None, :].astype(complex)

    def invert(Z) -> list:
        Z = as_points(Z, len(half))
        # Python division per value: NumPy's complex-by-real division
        # multiplies by the reciprocal, which rounds differently
        zetas = [s / norm2 for s in _matvec(H, Z - center)[:, 0].tolist()]
        R = Z - (center + np.array(zetas, dtype=complex)[:, None] * half)
        # the norms of np.linalg.norm, relative to |z|, so the test keeps
        # its meaning on large bodies
        residual = np.sqrt(_rowdot(R.real, R.real) + _rowdot(R.imag, R.imag))
        size = np.sqrt(_rowdot(Z.real, Z.real) + _rowdot(Z.imag, Z.imag))
        if np.any(residual > 1e-9 * np.maximum(1.0, size)):
            raise ValueError("point is off the disc image")
        return zetas

    def evaluate(Z) -> np.ndarray:
        return np.array([abs(cmath.atanh(zeta).imag) for zeta in invert(Z)],
                        dtype=float)

    return Competitor(label="geodesic-disc", evaluate=evaluate, chart=chart)


@functools.lru_cache(maxsize=1)
def member_samples(model: Model, nsamples: int, seed: int):
    """Model samples k < nsamples, drawn by ``sample_member`` from
    ``substream(seed, k)``, and the model potential at each, cached
    read-only: (points, values)."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    points = model.sample_member_batch(substreams(seed, range(nsamples)))
    values = model.potential_batch(points)
    points.setflags(write=False)
    values.setflags(write=False)
    return points, values


@functools.lru_cache(maxsize=1)
def disc_samples(model: Model, nsamples: int, seed: int) -> np.ndarray:
    """Disc parameters k < nsamples, drawn by ``unit_disc_points`` from
    ``substream(seed, k)``, cached read-only. The draw does not depend on
    the model; keyed on it, as ``member_samples`` is, the cache serves
    one command and no other."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    zetas = unit_disc_points(substreams(seed, range(nsamples)))
    zetas.setflags(write=False)
    return zetas


def max_violation(model: Model, competitor: Competitor, nsamples: int,
                  seed: int) -> float:
    """Max over seeded samples of competitor(z) - potential(z); maximality
    requires a nonpositive result up to roundoff.

    A competitor on a disc is checked at its chart's images of
    ``disc_samples(model, nsamples, seed)``; the others on
    ``member_samples(model, nsamples, seed)``. The competitors of a
    battery share both draws.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    if competitor.chart is not None:
        ch = competitor.chart
        points = disc_points(ch.x1, ch.x2, disc_samples(model, nsamples, seed))
        values = model.potential_batch(points)
    else:
        points, values = member_samples(model, nsamples, seed)
    # np.max, not max: a NaN anywhere makes the violation NaN, which fails
    return float(np.max(competitor.evaluate(points) - values))


def violations(model: Model, competitors, nsamples: int, seed: int) -> list:
    """``max_violation`` of each of competitors, in order, bit for bit.

    The images of every disc competitor's chart take one ``disc_points``
    and one ``potential_batch`` call, made at the first disc competitor;
    each competitor is evaluated once, on its own rows.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    charts = [comp.chart for comp in competitors if comp.chart is not None]
    images = None
    found = []
    for comp in competitors:
        if comp.chart is None:
            points, values = member_samples(model, nsamples, seed)
        else:
            if images is None:
                zetas = disc_samples(model, nsamples, seed)
                X1, X2 = (np.repeat([getattr(ch, end) for ch in charts],
                                    nsamples, axis=0) for end in ("x1", "x2"))
                P = disc_points(X1, X2, np.tile(zetas, len(charts)))
                V = model.potential_batch(P)
                images = zip(P.reshape(len(charts), nsamples, -1),
                             V.reshape(len(charts), nsamples))
            points, values = next(images)
        found.append(float(np.max(comp.evaluate(points) - values)))
    return found
