"""Extremal discs of the tube models.

Every off-center point of an elliptic tube sits on a flat analytic disc
whose diameter is a chord of the body; the chart below recovers that disc
and reproduces the potential along it in closed form. Strip tubes carry
an analogous flat ray through each point.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Gauge, _vector
from .errors import OutsideDomainError
from .models import QUARTER_PI, EllipticTube, Model, as_point
from .sampling import substream, unit_disc_point


@dataclass(frozen=True)
class GeodesicChart:
    """Flat disc through an off-center tube point.

    The endpoints x1, x2 lie on the body boundary along the ray of the
    imaginary part; t1 t2 > 1 exactly when the point is a member, and the
    disc map sends zeta0 back to the point.
    """

    body: ConvexBody
    t1: float
    t2: float
    x1: np.ndarray
    x2: np.ndarray
    zeta0: complex

    def point(self, zeta) -> np.ndarray:
        """Disc map ((1 - zeta)/2) x1 + ((1 + zeta)/2) x2 for |zeta| < 1."""
        zeta = complex(zeta)
        if abs(zeta) >= 1.0:
            raise OutsideDomainError("disc parameter must satisfy |zeta| < 1")
        return 0.5 * (1.0 - zeta) * self.x1.astype(complex) \
            + 0.5 * (1.0 + zeta) * self.x2.astype(complex)

    def strip_point(self, eta) -> np.ndarray:
        """Strip reparameterization through tanh, for |Im eta| < pi/4."""
        eta = complex(eta)
        if abs(eta.imag) >= QUARTER_PI:
            raise OutsideDomainError("strip parameter must satisfy |Im eta| < pi/4")
        return self.point(cmath.tanh(eta))


def chart(body: ConvexBody, z) -> GeodesicChart:
    """Chart of the extremal disc through z = x + iy, y != 0."""
    tube = EllipticTube(body)
    z = as_point(z, body.dim)
    if not np.any(z.imag):
        raise OutsideDomainError("no disc chart through center points (y = 0)")
    if not tube.member(z):
        raise OutsideDomainError("point is not in the elliptic tube")
    p, q = tube.gauges(z)
    t1, t2 = 1.0 / p, 1.0 / q
    x, y = z.real, z.imag
    x1 = x + t1 * y
    x2 = x - t2 * y
    zeta0 = complex(t1 - t2, -2.0) / (t1 + t2)
    return GeodesicChart(body, t1, t2, x1, x2, zeta0)


def identity_residual(body: ConvexBody, z, nsamples: int, seed: int) -> float:
    """Worst gap between the tube potential on the disc and the disc's own
    hyperbolic height |Im atanh zeta|, over seeded samples of the disc,
    drawn one by one and evaluated in one batched potential call."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    return _chart_residual(chart(body, z), nsamples, seed)


def _chart_residual(ch: GeodesicChart, nsamples: int, seed: int) -> float:
    """identity_residual over an already built chart."""
    zetas = [unit_disc_point(substream(seed, k)) for k in range(nsamples)]
    values = EllipticTube(ch.body).potential_batch(
        np.array([ch.point(zeta) for zeta in zetas])).tolist()
    return max([0.0] + [abs(value - abs(cmath.atanh(zeta).imag))
                        for value, zeta in zip(values, zetas)])


def striptube_geodesic(gauge: Gauge, x, y, zeta) -> np.ndarray:
    """Point x + zeta * y / gauge(y) of the flat ray through a strip-tube
    point, for zeta in the upper half-strip 0 < Im zeta < pi/4."""
    x = _vector(x, gauge.dim)
    y = _vector(y, gauge.dim)
    if not np.any(y):
        raise OutsideDomainError("flat ray undefined for y = 0")
    zeta = complex(zeta)
    if not 0.0 < zeta.imag < QUARTER_PI:
        raise OutsideDomainError("zeta must lie in the open upper half-strip")
    direction = y / gauge(y)
    return x.astype(complex) + zeta * direction


def disc_upper_bound(model: Model, x, v) -> float:
    """Metric upper bound realized by an explicit analytic disc through
    (x, v); equality with the closed-form metric certifies extremality."""
    x = _vector(x, model.dim)
    v = _vector(v, model.dim)
    if not np.any(v):
        raise ValueError("no candidate disc for v = 0")
    if not model.in_center(x):
        raise OutsideDomainError(f"x is not in the {model.name} center")
    return model.disc_bound(x, v)
