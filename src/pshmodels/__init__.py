"""Extremal plurisubharmonic models on tube domains.

Convex bodies and their centered Minkowski gauges, the catalog of
analytic-pair models (flat strip, unit disc, strip tubes over convex
gauges, elliptic tubes over bounded convex bodies) with closed-form
extremal potentials and center pseudo-metrics, the extremal discs
through tube points, finite-difference Levi/Monge-Ampere diagnostics,
and competitor-based maximality tests.
"""

from .bodies import (ConvexBody, Ellipsoid, Gauge, Polytope, SmoothBody,
                     Superellipse, body_from_spec, interval)
from .errors import ConvergenceError, OutsideDomainError, SpecError
from .geodesics import (GeodesicChart, chart, disc_upper_bound,
                        identity_residual, striptube_geodesic)
from .levi import (LeviReport, check_monge_ampere, check_plurisubharmonic,
                   gauge_identity_residuals, gauge_identity_residuals_batch,
                   levi_line, levi_matrices, levi_matrix, metric_levi_pair,
                   tube_levi_residual, tube_levi_residual_batch)
from .maximality import (Competitor, geodesic_pullback, linear_pullback,
                         max_violation, member_samples, slab_pullback)
from .models import (QUARTER_PI, Disc1D, EllipticTube, Model, SchwarzReport,
                     Strip1D, StripTube, as_point, conjugate,
                     model_from_spec, schwarz_excess)
from .sampling import substream, unit_disc_point, unit_vector

__version__ = "0.1.0"

__all__ = [
    "QUARTER_PI",
    "Competitor",
    "ConvergenceError",
    "ConvexBody",
    "Disc1D",
    "Ellipsoid",
    "EllipticTube",
    "Gauge",
    "GeodesicChart",
    "LeviReport",
    "Model",
    "OutsideDomainError",
    "Polytope",
    "SchwarzReport",
    "SmoothBody",
    "SpecError",
    "Strip1D",
    "StripTube",
    "Superellipse",
    "as_point",
    "body_from_spec",
    "chart",
    "check_monge_ampere",
    "check_plurisubharmonic",
    "conjugate",
    "disc_upper_bound",
    "gauge_identity_residuals",
    "gauge_identity_residuals_batch",
    "geodesic_pullback",
    "identity_residual",
    "interval",
    "levi_line",
    "levi_matrices",
    "levi_matrix",
    "linear_pullback",
    "max_violation",
    "member_samples",
    "metric_levi_pair",
    "model_from_spec",
    "schwarz_excess",
    "slab_pullback",
    "striptube_geodesic",
    "substream",
    "tube_levi_residual",
    "tube_levi_residual_batch",
    "unit_disc_point",
    "unit_vector",
]
