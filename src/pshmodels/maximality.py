"""Competitor-based maximality testing.

Certified members of the tube's potential class are generated by pulling
back 1-D extremal potentials through holomorphic maps; maximality demands
each competitor stays below the model potential everywhere. Competitors
come only from constructions the closed forms certify, so any violation
indicates a real defect rather than an invalid test function.

A battery of competitors shares one cached draw of model samples and one
batched model potential call on them (``member_samples``), and one cached
draw of disc parameters (``disc_samples``) that each geodesic-disc
competitor maps through its own chart, and on which an elliptic tube's
geodesic witnesses check their discs too. ``violations`` checks a whole
battery in one pass per kind of competitor: the images of all its disc
competitors from one ``disc_points`` call and one ``potential_batch``
call; the slab and linear pullbacks, whose values are profiles of a . z
(|Im atanh| of the slab's affine image, |Im(c . z)|), from one broadcast
stacked matmul over all their rows (``_project``); any other competitor
by its own evaluator. It equals ``max_violation`` competitor
by competitor, bit for bit. A competitor's evaluator takes the rows of
an (N, n) array and agrees bit for bit with the scalar formula at each
row: row-wise products use the stacked-matmul kernel of ``np.dot``, and
the complex arithmetic and ``cmath.atanh`` run per value.

A battery certifies its competitors in batches as well: ``slab_pullbacks``
and ``linear_pullbacks`` take the support values of all their directions
from two ``support_batch`` calls and round the labels of all of them in
one call, and pass each competitor's to ``slab_pullback`` or
``linear_pullback``, which build it as for one direction. The module sits
below ``models``, whose models build their batteries here.
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

    `row` and `profile` (if set) make it a pullback through a linear map:
    its value at the rows z is ``profile`` of the complex values row . z,
    which ``evaluate`` computes, and ``violations`` computes for all such
    competitors of a battery at once.
    """
    label: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    chart: Optional[GeodesicChart] = None
    row: Optional[np.ndarray] = None
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _project(R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """r . z for every complex row r of R and z of Z, a (len(R), len(Z))
    array: one broadcast stacked matmul, which runs the kernel of
    ``_matvec`` at every pair, so a value does not depend on the rows
    beside it. A single ``Z @ R.T`` rounds differently."""
    return (R[:, None, None, :] @ Z[None, :, :, None])[:, :, 0, 0]


def _pullback(label: str, row: np.ndarray, profile) -> Competitor:
    """The competitor ``profile`` of row . z, for a real row."""
    row = row.astype(complex)

    def evaluate(Z) -> np.ndarray:
        return profile(_project(row[None], as_points(Z, len(row)))[0])
    return Competitor(label, evaluate, row=row, profile=profile)


def _imaginary_size(S: np.ndarray) -> np.ndarray:
    # Im(c . z) is c . Im z for a real c, whose zero imaginary parts add
    # only zeros; the complex and the real stacked matmul agreed in all of
    # 960,000 random entries (n = 1 to 3)
    return np.abs(S.imag)


def slab_pullback(body: ConvexBody, direction, bounds=None, *,
                  label=None) -> Competitor:
    """Pullback of the 1-D disc potential through z -> direction . z.

    The linear map sends the tube over the body into the tube over the
    slab (alpha, beta) of attained values, which is the disc model of that
    interval; support evaluations certify the slab bounds. ``bounds`` is
    (alpha, beta) and ``label`` the competitor's label when the caller
    has them already, as ``slab_pullbacks`` has.
    """
    a = _vector(direction, body.dim)
    if not a.any():
        raise SpecError("slab direction must be nonzero")
    alpha, beta = (bounds if bounds is not None
                   else (-body.support(-a), body.support(a)))
    width = beta - alpha
    if not (np.isfinite(width) and width > 0):
        raise SpecError("degenerate slab")

    def profile(S) -> np.ndarray:
        # cmath per value: NumPy's complex arctanh rounds differently
        return np.array([abs(cmath.atanh((2.0 * s - (alpha + beta))
                                         / width).imag)
                         for s in S.tolist()], dtype=float)

    if label is None:
        label = f"slab[{np.round(a, 6).tolist()}]"
    return _pullback(label, a, profile)


def slab_pullbacks(body: ConvexBody, D) -> list:
    """``slab_pullback`` along each row of D, the slabs certified by two
    ``support_batch`` calls and the labels rounded in one call."""
    D = _rows(D, body.dim)
    alphas = (-body.support_batch(-D)).tolist()
    betas = body.support_batch(D).tolist()
    return [slab_pullback(body, a, bounds, label=f"slab[{rounded}]")
            for a, bounds, rounded in zip(D, zip(alphas, betas),
                                          np.round(D, 6).tolist())]


def linear_pullback(gauge: Gauge, covector, reach=None, *,
                    label=None) -> Competitor:
    """Pullback |Im(c . z)| of the flat-strip potential through z -> c . z.

    Admissible when |c . y| <= gauge(y) for all y, certified by the
    closed-form support values of +/- c (sqrt(c^T Q^{-1} c) on an
    ellipsoid), whose larger one ``reach`` is, with ``label``, when the
    caller has it already, as ``linear_pullbacks`` has.
    """
    c = _vector(covector, gauge.dim)
    if reach is None:
        reach = max(gauge.body.support(c), gauge.body.support(-c))
    if reach > 1.0 + 1e-12:
        raise SpecError("covector exceeds the gauge on the body closure")
    if label is None:
        label = f"linear[{np.round(c, 6).tolist()}]"
    return _pullback(label, c, _imaginary_size)


def linear_pullbacks(gauge: Gauge, C) -> list:
    """``linear_pullback`` of each row of C, the rows certified by two
    ``support_batch`` calls and the labels rounded in one call."""
    C = _rows(C, gauge.dim)
    reach = np.maximum(gauge.body.support_batch(C),
                       gauge.body.support_batch(-C)).tolist()
    return [linear_pullback(gauge, c, r, label=f"linear[{rounded}]")
            for c, r, rounded in zip(C, reach, np.round(C, 6).tolist())]


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
        if (residual > 1e-9 * np.maximum(1.0, size)).any():
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
    ``substream(seed, k)``, cached read-only. The battery's disc
    competitors map them through their charts, and an elliptic tube's
    geodesic witnesses take their first rows, so that a command draws
    them once. The draw does not depend on the model; keyed on it, as
    ``member_samples`` is, the cache serves one command and no other."""
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
    and one ``potential_batch`` call; the pullbacks through a linear map
    (``Competitor.row``) take one ``_project`` call over all their rows;
    every other competitor is evaluated once, on its own rows.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    found = [0.0] * len(competitors)
    discs = [i for i, comp in enumerate(competitors) if comp.chart is not None]
    if discs:
        charts = [competitors[i].chart for i in discs]
        zetas = disc_samples(model, nsamples, seed)
        X1, X2 = (np.repeat([getattr(ch, end) for ch in charts], nsamples,
                            axis=0) for end in ("x1", "x2"))
        P = disc_points(X1, X2, np.tile(zetas, len(charts)))
        V = model.potential_batch(P)
        for i, points, values in zip(discs,
                                     P.reshape(len(charts), nsamples, -1),
                                     V.reshape(len(charts), nsamples)):
            found[i] = float(np.max(competitors[i].evaluate(points) - values))
    rest = [i for i, comp in enumerate(competitors) if comp.chart is None]
    if rest:
        points, values = member_samples(model, nsamples, seed)
        pullbacks = [i for i in rest if competitors[i].row is not None]
        if pullbacks:
            S = _project(np.array([competitors[i].row for i in pullbacks]),
                         points)
            E = np.array([competitors[i].profile(s)
                          for i, s in zip(pullbacks, S)])
            # np.max, not max: a NaN anywhere makes the violation NaN
            for i, worst in zip(pullbacks,
                                np.max(E - values, axis=1).tolist()):
                found[i] = worst
        for i in rest:
            if competitors[i].row is None:
                found[i] = float(np.max(competitors[i].evaluate(points)
                                        - values))
    return found
