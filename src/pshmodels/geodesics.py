"""Extremal discs of the tube models.

Every off-center point of an elliptic tube sits on a flat analytic disc
whose diameter is a chord of the body; the chart below recovers that disc
and reproduces the potential along it in closed form. Strip tubes carry
an analogous flat ray through each point.

``chart`` takes its gauge pair from two ``body.gauge`` calls, and
``chart_rows`` the charts of many points from one ``gauge_pair`` call;
``disc_points`` / ``strip_map`` map one parameter per chart, and agree
with ``chart`` and ``GeodesicChart.point`` bit for bit.
``striptube_geodesics`` maps many flat rays from one gauge call. The
module sits below ``models``, whose models build their discs here.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bodies import ConvexBody, Gauge, _rows, as_point, as_points
from .errors import OutsideDomainError
from .sampling import substreams, unit_disc_points

if TYPE_CHECKING:
    from .models import Model

QUARTER_PI = math.pi / 4  # half-width of the strip strip_map maps to a disc


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
        return disc_points(self.x1, self.x2, [complex(zeta)])[0]

    def strip_point(self, eta) -> np.ndarray:
        """Strip reparameterization through tanh, for |Im eta| < pi/4."""
        return strip_map(self.x1, self.x2, [eta])[0]


def disc_points(X1, X2, zetas) -> np.ndarray:
    """Row i of the disc map with endpoints X1[i], X2[i] at zetas[i]; a
    single endpoint pair of shape (n,) serves every row."""
    zetas = np.asarray(zetas, dtype=complex)
    # Python abs per value, which NumPy's complex abs may differ from
    if any(abs(zeta) >= 1.0 for zeta in zetas.tolist()):
        raise OutsideDomainError("disc parameter must satisfy |zeta| < 1")
    return (0.5 * (1.0 - zetas))[:, None] * X1.astype(complex) \
        + (0.5 * (1.0 + zetas))[:, None] * X2.astype(complex)


def strip_map(X1, X2, etas) -> np.ndarray:
    """``GeodesicChart.strip_point`` row by row, as ``disc_points``."""
    etas = [complex(eta) for eta in etas]
    if any(abs(eta.imag) >= QUARTER_PI for eta in etas):
        raise OutsideDomainError("strip parameter must satisfy |Im eta| < pi/4")
    # cmath per value: NumPy's complex tanh rounds differently
    return disc_points(X1, X2, [cmath.tanh(eta) for eta in etas])


def zeta0(t1: float, t2: float) -> complex:
    """The disc parameter at which the chart with these t1, t2 returns
    its base point."""
    return complex(t1 - t2, -2.0) / (t1 + t2)


def chart(body: ConvexBody, z) -> GeodesicChart:
    """Chart of the extremal disc through z = x + iy, y != 0."""
    z = as_point(z, body.dim)
    if not z.imag.any():
        raise OutsideDomainError("no disc chart through center points (y = 0)")
    x, y = z.real, z.imag
    refusal = OutsideDomainError("point is not in the elliptic tube")
    try:
        p, q = body.gauge(x, y), body.gauge(x, -y)
    except OutsideDomainError:
        raise refusal from None
    if not p * q < 1.0:
        raise refusal
    t1, t2 = 1.0 / p, 1.0 / q
    return GeodesicChart(body, t1, t2, x + t1 * y, x - t2 * y, zeta0(t1, t2))


def chart_rows(body: ConvexBody, Z):
    """(t1, t2, x1, x2) of ``chart(body, z)`` at each row z of Z, as
    arrays of shapes (N,), (N,), (N, n), (N, n), from one gauge_pair
    call; refused as ``chart`` refuses."""
    Z = as_points(Z, body.dim)
    if not Z.imag.any(axis=1).all():
        raise OutsideDomainError("no disc chart through center points (y = 0)")
    X, Y = Z.real, Z.imag
    refusal = OutsideDomainError("point is not in the elliptic tube")
    try:
        P, Q = body.gauge_pair(X, Y)
    except OutsideDomainError:
        raise refusal from None
    if not (P * Q < 1.0).all():
        raise refusal
    T1, T2 = 1.0 / P, 1.0 / Q
    return T1, T2, X + T1[:, None] * Y, X - T2[:, None] * Y


def identity_residual(body: ConvexBody, z, nsamples: int, seed: int) -> float:
    """Worst gap between the tube potential on the disc and the disc's own
    hyperbolic height |Im atanh zeta|, over seeded samples of the disc,
    drawn by ``unit_disc_points`` from ``substream(seed, k)``, k <
    nsamples, and evaluated in one batched potential call."""
    # the package's one deferred import: the residual is taken on the tube
    # over body, and models, which holds the tube, imports this module
    from .models import EllipticTube
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    ch = chart(body, z)
    zetas = unit_disc_points(substreams(seed, range(nsamples)))
    return chart_residuals(EllipticTube(body), ch.x1[None], ch.x2[None],
                           zetas)[0]


def chart_residuals(tube: Model, X1, X2, zetas) -> list:
    """identity_residual of the chart with endpoints X1[i], X2[i] over
    the disc parameters zetas, the same for every i, on the tube of the
    charts; all charts' images go to one batched potential call."""
    zetas = np.asarray(zetas, dtype=complex)
    count = len(zetas)
    points = disc_points(np.repeat(X1, count, axis=0),
                         np.repeat(X2, count, axis=0),
                         np.tile(zetas, len(X1)))
    values = tube.potential_batch(points).tolist()
    heights = [abs(cmath.atanh(zeta).imag) for zeta in zetas.tolist()]
    gaps = [abs(value - height)
            for value, height in zip(values, heights * len(X1))]
    # np.max, not max: Python's max drops a NaN that is not first
    return [float(np.max([0.0] + gaps[i:i + count]))
            for i in range(0, len(gaps), count)]


def striptube_geodesic(gauge: Gauge, x, y, zeta) -> np.ndarray:
    """Point x + zeta * y / gauge(y) of the flat ray through a strip-tube
    point, for zeta in the upper half-strip 0 < Im zeta < pi/4."""
    return striptube_geodesics(gauge, [x], [y], [zeta])[0]


def striptube_geodesics(gauge: Gauge, X, Y, zetas) -> np.ndarray:
    """``striptube_geodesic`` at each row of X and Y with zetas[i], from
    one ``Gauge.batch`` call."""
    X = _rows(X, gauge.dim)
    Y = _rows(Y, gauge.dim)
    if not Y.any(axis=1).all():
        raise OutsideDomainError("flat ray undefined for y = 0")
    zetas = np.array([complex(zeta) for zeta in zetas], dtype=complex)
    if not ((0.0 < zetas.imag) & (zetas.imag < QUARTER_PI)).all():
        raise OutsideDomainError("zeta must lie in the open upper half-strip")
    directions = Y / gauge.batch(Y)[:, None]
    return X.astype(complex) + zetas[:, None] * directions


def disc_upper_bound(model: Model, x, v) -> float:
    """Metric upper bound realized by an explicit analytic disc through
    (x, v); equality with the closed-form metric certifies extremality.
    At v = 0 the disc is constant and the bound 0.0."""
    return model._homogeneous(model.disc_bound, x, v)
