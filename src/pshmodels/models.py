"""The catalog of analytic-pair models and their extremal potentials.

Each model couples a complex tube domain with its totally real center and
provides the maximal plurisubharmonic potential (valued in [0, pi/4),
vanishing exactly on the center), the closed-form boundary-slope
pseudo-metric on the center, and a finite-difference slope estimator that
realizes the metric as the limit of potential(x + i t v)/t.

``potential_batch`` evaluates the potential at every row of an (N, n)
array in one call and agrees with ``potential`` bit for bit, so suites
may draw their samples one by one and evaluate them all at once;
``member_batch`` agrees with ``member`` in the same way.

Each model also carries its own part of every verification suite and CLI
record (see Model), so no caller branches on the model type.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import (ConvexBody, Ellipsoid, Gauge, _vector, body_from_spec,
                     interval)
from .errors import ConvergenceError, OutsideDomainError, SpecError
from .sampling import substream, unit_vector

QUARTER_PI = math.pi / 4  # 0.7853981633974483, the potential supremum

_DEFAULT_STEPS = (1e-2, 1e-3, 1e-4)


def as_point(z, dim: int) -> np.ndarray:
    """Coerce z to a complex vector of the given dimension."""
    v = np.atleast_1d(np.asarray(z, dtype=complex))
    if v.ndim != 1 or v.size != dim:
        raise ValueError(f"dimension mismatch: expected a point of C^{dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite entries")
    return v


def as_points(Z, dim: int) -> np.ndarray:
    """Coerce Z to a finite complex (N, dim) array, validated once."""
    m = np.asarray(Z, dtype=complex)
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) array of points of C^{dim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("points have non-finite entries")
    return m


def conjugate(z) -> np.ndarray:
    return np.conj(np.atleast_1d(np.asarray(z, dtype=complex)))


def pointwise(field: Callable[[np.ndarray], float]):
    """A scalar field lifted to the rows of an (N, n) array, one call each."""
    def batch(Z):
        return np.array([field(z) for z in Z], dtype=float)
    return batch


def _atan_mean(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # math.atan rather than np.arctan: NumPy's SIMD arctan differs from
    # libm in the last bit for about 0.2% of inputs, and the batched
    # potential must reproduce the scalar one exactly
    return np.array([0.5 * (math.atan(p) + math.atan(q))
                     for p, q in zip(P.tolist(), Q.tolist())], dtype=float)


class Model:
    """Base class: a tube domain with center and extremal potential.

    Each model also has ``member_batch`` and ``potential_batch``; the
    maximality battery ``competitors(seed)``; ``strip_point(w, rng)``, the
    image of w, |Im w| < pi/4, under a holomorphic strip map into the
    domain (drawn from rng on tubes); and ``geodesic_witnesses(seed,
    samples)``, a pair (gaps, reconstructions): per extremal disc or flat
    ray, the largest gap between the potential along it and its closed
    form, and per disc chart, its base point error over max(1, |z|).
    A model must not change after construction: the suites cache their
    sample draws on the model object (``functools.lru_cache``).
    """

    name: str
    dim: int
    body: ConvexBody | None = None  # the tube's body; None in dimension 1
    # the elliptic-tube identities (tube-levi, gauge-derivatives) tie the
    # potential to the centered gauges of the body; other models have none
    gauge_identities = False
    witness_tol = "geodesic"  # tolerance of the geodesics-suite witnesses

    def member(self, z) -> bool:
        raise NotImplementedError

    def potential(self, z) -> float:
        raise NotImplementedError

    def metric(self, x, v) -> float:
        raise NotImplementedError

    def in_center(self, x) -> bool:
        raise NotImplementedError

    def sample_member(self, rng) -> np.ndarray:
        raise NotImplementedError

    def sample_center(self, rng) -> np.ndarray:
        raise NotImplementedError

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        """Member point with enough interior margin for O(h^2) stencils."""
        raise NotImplementedError

    def disc_bound(self, x, v) -> float:
        """Metric bound at (x, v) realized by an explicit analytic disc,
        for validated x in the center and v != 0."""
        raise TypeError(f"no disc construction for model {self.name!r}")

    def eval_record(self, z) -> dict:
        """The record ``eval`` prints at a point z of matching dimension."""
        member = self.member(z)
        return {"member": member, "u": self.potential(z) if member else None,
                "p": None, "p_bar": None}

    def geodesic_record(self, z) -> dict:
        """The record ``geodesic`` prints: the extremal curve through z."""
        raise SpecError("geodesic charts require a tube model")

    def _require_member(self, z: np.ndarray) -> None:
        if not self.member(z):
            raise OutsideDomainError(f"point is not in the {self.name} domain")

    def metric_slope(self, x, v, steps=_DEFAULT_STEPS) -> float:
        """Slope of the potential along t -> x + i t v, extrapolated to t = 0+.

        Richardson-stabilized over a decreasing step ladder; the ladder is
        halved (up to 60 times) if its largest step leaves the domain.
        """
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        if not self.in_center(x):
            raise OutsideDomainError(f"x is not in the {self.name} center")
        if not np.any(v):
            return 0.0
        steps = np.asarray(steps, dtype=float)
        if steps.ndim != 1 or steps.size < 1 or np.any(steps <= 0):
            raise ValueError("steps must be positive")
        if np.any(np.diff(steps) >= 0):
            raise ValueError("steps must be strictly decreasing")
        for _ in range(60):
            if self.member(x + 1j * steps[0] * v):
                break
            steps = steps / 2.0
        else:
            raise OutsideDomainError("slope ladder cannot enter the domain")
        quotients = np.array(
            [self.potential(x + 1j * t * v) / t for t in steps])
        if steps.size == 1:
            return float(quotients[0])
        diffs = np.abs(np.diff(quotients))
        scale = max(1.0, float(np.max(np.abs(quotients))))
        if diffs.size >= 2 and diffs[-1] > diffs[0] + 1e-9 * scale:
            raise ConvergenceError("slope quotients are not settling")
        # the quotient has an even error expansion in t; fit in s = t^2
        s = steps ** 2
        vander = np.vander(s, increasing=True)
        coeffs = np.linalg.solve(vander, quotients)
        return float(coeffs[0])


class _PlaneDomain(Model):
    """A plane domain over a real interval: the image of the strip
    {|Im w| < pi/4} under the conformal map _to_plane, with inverse
    _to_strip. The potential is |Im w| at the preimage w, so the map is an
    extremal disc."""

    dim = 1

    def potential(self, z) -> float:
        z = as_point(z, 1)
        self._require_member(z)
        return abs(self._to_strip(z[0]).imag)

    def potential_batch(self, Z) -> np.ndarray:
        Z = as_points(Z, 1)
        if not np.all(self.member_batch(Z)):
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        # per value: NumPy's complex arctanh rounds differently from cmath
        return np.array([abs(self._to_strip(c).imag)
                         for c in Z[:, 0].tolist()], dtype=float)

    def strip_point(self, w: complex, rng) -> np.ndarray:
        return np.array([self._to_plane(w)])

    def geodesic_witnesses(self, seed: int, samples: int):
        gaps = []
        for k in range(samples):
            rng = substream(seed, k)
            eta = complex(rng.uniform(-1.0, 1.0),
                          rng.uniform(-0.95, 0.95) * QUARTER_PI)
            gaps.append(abs(self.potential(self.strip_point(eta, rng))
                            - abs(eta.imag)))
        return gaps, []


class Strip1D(_PlaneDomain):
    """The flat strip {|Im z| < pi/4} over the real line."""

    name = "strip1d"
    _to_plane = _to_strip = staticmethod(complex)  # the identity

    def member(self, z) -> bool:
        z = as_point(z, 1)
        return bool(abs(z[0].imag) < QUARTER_PI)

    def member_batch(self, Z) -> np.ndarray:
        return np.abs(as_points(Z, 1)[:, 0].imag) < QUARTER_PI

    def metric(self, x, v) -> float:
        x = _vector(x, 1)
        v = _vector(v, 1)
        if not self.in_center(x):
            raise OutsideDomainError("x is not a finite real point")
        return abs(float(v[0]))

    def in_center(self, x) -> bool:
        x = _vector(x, 1)
        return True

    def sample_member(self, rng) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(-0.95, 0.95) * QUARTER_PI
        return np.array([complex(x, y)])

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-1.0, 1.0)])

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(max(10.0 * h, 0.1 * QUARTER_PI), 0.9 * QUARTER_PI)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return np.array([complex(x, sign * y)])

    def competitors(self, seed: int) -> list:
        from .maximality import linear_pullback
        gauge = Gauge(interval(-1.0, 1.0))
        return [linear_pullback(gauge, [c]) for c in (1.0, -1.0, 0.5)]

    def disc_bound(self, x, v) -> float:
        return abs(float(v[0]))


class Disc1D(_PlaneDomain):
    """The unit disc over the interval (-1, 1)."""

    name = "disc1d"
    _to_plane, _to_strip = staticmethod(np.tanh), staticmethod(cmath.atanh)

    def member(self, z) -> bool:
        z = as_point(z, 1)
        return bool(abs(z[0]) < 1.0)

    def member_batch(self, Z) -> np.ndarray:
        # Python abs per value, as in member: NumPy's vectorized complex
        # abs differs from it in the last bit for about a third of inputs,
        # which decides membership on the unit circle
        w = as_points(Z, 1)[:, 0].tolist()
        return np.array([abs(c) < 1.0 for c in w], dtype=bool)

    def metric(self, x, v) -> float:
        x = _vector(x, 1)
        v = _vector(v, 1)
        if not self.in_center(x):
            raise OutsideDomainError("x is not in (-1, 1)")
        return abs(float(v[0])) / (1.0 - float(x[0]) ** 2)

    def in_center(self, x) -> bool:
        x = _vector(x, 1)
        return bool(abs(float(x[0])) < 1.0)

    def sample_member(self, rng) -> np.ndarray:
        r = 0.97 * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([r * cmath.exp(1j * theta)])

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-0.95, 0.95)])

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        # sample in strip coordinates; capping the window keeps the tanh
        # image away from the circle, where stencil truncation blows up
        s = rng.uniform(-0.45, 0.45)
        t = rng.uniform(max(0.3 * QUARTER_PI, 20.0 * h), 0.8 * QUARTER_PI)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return np.array([cmath.tanh(complex(s, sign * t))])

    def competitors(self, seed: int) -> list:
        from .geodesics import chart
        from .maximality import geodesic_pullback, slab_pullback
        body = interval(-1.0, 1.0)
        comps = [slab_pullback(body, [1.0])]
        for j in range(3):
            z = self.sample_member(substream(seed, 10 ** 6 + j))
            if abs(z[0].imag) > 1e-3:
                comps.append(geodesic_pullback(chart(body, z)))
        return comps

    def disc_bound(self, x, v) -> float:
        # Moebius reparameterization of the identity disc
        return abs(float(v[0])) / (1.0 - float(x[0]) ** 2)


class StripTube(Model):
    """Tube {gauge(Im z) < pi/4} over R^n, for a convex gauge."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.dim = gauge.dim

    name = "striptube"
    witness_tol = "flat_ray"

    @property
    def body(self) -> ConvexBody:
        return self.gauge.body

    def member(self, z) -> bool:
        z = as_point(z, self.dim)
        return bool(self.gauge(z.imag) < QUARTER_PI)

    def member_batch(self, Z) -> np.ndarray:
        return self.gauge.batch(as_points(Z, self.dim).imag) < QUARTER_PI

    def potential(self, z) -> float:
        z = as_point(z, self.dim)
        value = self.gauge(z.imag)
        if value >= QUARTER_PI:
            raise OutsideDomainError("point is not in the strip tube")
        return value

    def potential_batch(self, Z) -> np.ndarray:
        values = self.gauge.batch(as_points(Z, self.dim).imag)
        if np.any(values >= QUARTER_PI):
            raise OutsideDomainError("point is not in the strip tube")
        return values

    def metric(self, x, v) -> float:
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        return self.gauge(v)

    def in_center(self, x) -> bool:
        x = _vector(x, self.dim)
        return True

    def sample_member(self, rng) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0, self.dim)
        d = unit_vector(rng, self.dim)
        level = rng.uniform(0.0, 0.95) * QUARTER_PI
        y = level * d / self.gauge(d)
        return x + 1j * y

    def sample_center(self, rng) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.dim)

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0, self.dim)
        for _ in range(1000):
            d = unit_vector(rng, self.dim)
            # the level is dimensionless; the length test below keeps
            # |y| above the step
            level = rng.uniform(0.4 * QUARTER_PI, 0.9 * QUARTER_PI)
            y = level * d / self.gauge(d)
            if np.linalg.norm(y) >= max(0.5 * self.body.inradius(), 10.0 * h):
                return x + 1j * y
        raise ConvergenceError("strip-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        from .maximality import linear_pullback
        body, comps = self.body, []
        for j in range(16):
            d = unit_vector(substream(seed, 10 ** 6 + j), self.dim)
            if isinstance(body, Ellipsoid):
                c = (body.Q @ d) / math.sqrt(d @ body.Q @ d)
            else:
                c = d / max(body.support(d), body.support(-d))
            comps.append(linear_pullback(self.gauge, c))
        return comps

    def geodesic_witnesses(self, seed: int, samples: int):
        from .geodesics import striptube_geodesic
        gaps = []
        for k in range(samples):
            rng = substream(seed, k)
            d = unit_vector(rng, self.dim)
            y = d / self.gauge(d) * rng.uniform(0.1, 0.9) * QUARTER_PI
            x = rng.uniform(-1.0, 1.0, self.dim)
            zeta = complex(rng.uniform(-1.0, 1.0),
                           rng.uniform(0.05, 0.95) * QUARTER_PI)
            f = striptube_geodesic(self.gauge, x, y, zeta)
            gaps.append(abs(self.potential(f) - zeta.imag))
        return gaps, []

    def strip_point(self, w: complex, rng) -> np.ndarray:
        from .geodesics import striptube_geodesic
        d = unit_vector(rng, self.dim)
        y = d / self.gauge(d)
        x = rng.uniform(-1.0, 1.0, self.dim)
        return striptube_geodesic(self.gauge, x, y, w)

    def disc_bound(self, x, v) -> float:
        # flat ray of striptube_geodesic, reparameterized to unit speed
        return self.gauge(v)

    def geodesic_record(self, z) -> dict:
        y = as_point(z, self.dim).imag
        if not np.any(y):
            raise OutsideDomainError("no flat ray through center points")
        height = self.gauge(y)
        return {"direction": list(map(float, y / height)), "height": height,
                "u": self.potential(z)}


class EllipticTube(Model):
    """Union of flat discs over segments of a bounded convex body.

    Membership: Re z in the body and p(z) p(conj z) < 1, where p is the
    centered gauge of the imaginary part.
    """

    def __init__(self, body: ConvexBody):
        self.body = body
        self.dim = body.dim

    name = "elliptictube"
    gauge_identities = True

    def gauges(self, z) -> tuple[float, float]:
        """The pair (p(z), p(conj z)) at z = x + iy."""
        z = as_point(z, self.dim)
        x, y = z.real, z.imag
        return self.body._gauge(x, y), self.body._gauge(x, -y)

    def member(self, z) -> bool:
        z = as_point(z, self.dim)
        try:
            p, q = self.body._gauge(z.real, z.imag), \
                self.body._gauge(z.real, -z.imag)
        except OutsideDomainError:
            return False
        return bool(p * q < 1.0)

    def member_batch(self, Z) -> np.ndarray:
        Z = as_points(Z, self.dim)
        inside = self.body.gauge_centers(Z.real)
        X, Y = Z.real[inside], Z.imag[inside]
        member = np.zeros(len(Z), dtype=bool)
        member[inside] = (self.body.gauge_batch(X, Y)
                          * self.body.gauge_batch(X, -Y) < 1.0)
        return member

    def potential(self, z) -> float:
        z = as_point(z, self.dim)
        try:
            p = self.body._gauge(z.real, z.imag)
            q = self.body._gauge(z.real, -z.imag)
        except OutsideDomainError:
            raise OutsideDomainError(
                f"point is not in the {self.name} domain") from None
        if p * q >= 1.0:
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        return 0.5 * (math.atan(p) + math.atan(q))

    def potential_batch(self, Z) -> np.ndarray:
        Z = as_points(Z, self.dim)
        X, Y = Z.real, Z.imag
        try:
            P = self.body.gauge_batch(X, Y)
            Q = self.body.gauge_batch(X, -Y)
        except OutsideDomainError:
            raise OutsideDomainError(
                f"point is not in the {self.name} domain") from None
        if np.any(P * Q >= 1.0):
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        return _atan_mean(P, Q)

    def metric(self, x, v) -> float:
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        if not self.in_center(x):
            raise OutsideDomainError("x is not in the body")
        return 0.5 * (self.body.gauge(x, v) + self.body.gauge(x, -v))

    def in_center(self, x) -> bool:
        x = _vector(x, self.dim)
        return self.body.contains(x)

    def _sample_body_point(self, rng, shrink: float) -> np.ndarray:
        lo, hi = self.body.bounding_box()
        c = self.body.interior_point()
        for _ in range(10000):
            x = rng.uniform(lo, hi)
            if self.body.contains(c + (x - c) / shrink):
                return x
        raise ConvergenceError("body sampling starved")

    def sample_member(self, rng) -> np.ndarray:
        x = self._sample_body_point(rng, 0.97)
        d = unit_vector(rng, self.dim)
        pu = self.body._gauge(x, d)
        qu = self.body._gauge(x, -d)
        t = math.sqrt(rng.uniform(0.0, 0.9) / (pu * qu))
        return x + 1j * t * d

    def sample_center(self, rng) -> np.ndarray:
        return self._sample_body_point(rng, 0.97)

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        # margins chosen so the h^2 truncation of 5-point stencils stays
        # orders of magnitude below the degeneracy tolerances: x in the
        # half-shrunk body, both gauges <= 0.8, and |y| bounded below
        rin = self.body.inradius()
        for _ in range(10000):
            x = self._sample_body_point(rng, 0.5)
            d = unit_vector(rng, self.dim)
            pu = self.body._gauge(x, d)
            qu = self.body._gauge(x, -d)
            t_hi = 0.8 / max(pu, qu)
            t_lo = max(0.3 * rin, 0.6 * t_hi)
            if t_hi <= t_lo:
                continue
            t = rng.uniform(t_lo, t_hi)
            z = x + 1j * t * d
            # the potential is dimensionless, h a length: compare it with
            # the step relative to the body's scale
            if self.potential(z) >= 10.0 * h / rin:
                return z
        raise ConvergenceError("elliptic-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        from .geodesics import chart
        from .maximality import geodesic_pullback, slab_pullback
        comps = [slab_pullback(self.body,
                               unit_vector(substream(seed, 10 ** 6 + j),
                                           self.dim))
                 for j in range(12)]
        for j in range(4):
            z = self.sample_member(substream(seed, 2 * 10 ** 6 + j))
            if np.any(z.imag):
                comps.append(geodesic_pullback(chart(self.body, z)))
        return comps

    def geodesic_witnesses(self, seed: int, samples: int):
        from .geodesics import _chart_residual, chart
        gaps, reconstructions = [], []
        for j in range(10):
            z = self.sample_member(substream(seed, 3 * 10 ** 6 + j))
            if not np.any(z.imag):
                continue
            ch = chart(self.body, z)
            # relative to |z|, so rounding on a large body is no failure
            rec = float(np.linalg.norm(ch.point(ch.zeta0) - z))
            reconstructions.append(rec / max(1.0, float(np.linalg.norm(z))))
            gaps.append(_chart_residual(ch, max(samples // 10, 10), seed + j))
        return gaps, reconstructions

    def strip_point(self, w: complex, rng) -> np.ndarray:
        from .geodesics import chart
        z = self.sample_member(rng)
        while not np.any(z.imag):
            z = self.sample_member(rng)
        return chart(self.body, z).strip_point(w)

    def disc_bound(self, x, v) -> float:
        from .geodesics import chart
        # the chart disc depends only on the ray of v; scale v into the
        # tube, chart there, and undo the scaling on the realized bound
        p, q = self.gauges(x + 1j * v)
        tau = 0.5 / math.sqrt(p * q)
        ch = chart(self.body, x + 1j * tau * v)
        return 0.5 * (1.0 / ch.t1 + 1.0 / ch.t2) / tau

    def eval_record(self, z) -> dict:
        record = super().eval_record(z)
        if self.body.contains(as_point(z, self.dim).real):
            record["p"], record["p_bar"] = self.gauges(z)
        return record

    def geodesic_record(self, z) -> dict:
        from .geodesics import chart
        z = as_point(z, self.dim)
        ch = chart(self.body, z)
        return {"t1": ch.t1, "t2": ch.t2,
                "x1": list(map(float, ch.x1)), "x2": list(map(float, ch.x2)),
                "zeta0": [ch.zeta0.real, ch.zeta0.imag],
                "reconstruction_residual":
                    float(np.linalg.norm(ch.point(ch.zeta0) - z))}


@dataclass(frozen=True)
class SchwarzReport:
    """Worst excess of sampled values over the strip Schwarz bound."""
    max_excess: float
    worst_point: complex
    count: int


def schwarz_excess(samples, a: float, r: float) -> SchwarzReport:
    """Max of u - (a/r) Im z over samples (z, u) in the strip {0 < Im z < r}.

    A nonpositive maximum confirms the comparison bound for subharmonic
    functions valued in [0, a) that vanish on the real axis.
    """
    if a <= 0 or r <= 0:
        raise ValueError("a and r must be positive")
    slope = a / r
    worst = -math.inf
    worst_point = None
    count = 0
    for z, value in samples:
        z = complex(z)
        if not 0.0 < z.imag < r:
            raise OutsideDomainError("sample outside the strip {0 < Im z < r}")
        if not 0.0 <= value < a:
            raise ValueError("sample value outside [0, a)")
        excess = value - slope * z.imag
        if excess > worst:
            worst, worst_point = excess, z
        count += 1
    if count == 0:
        raise ValueError("no samples")
    return SchwarzReport(worst, worst_point, count)


def model_from_spec(spec: dict) -> Model:
    """Build a model from its JSON specification object."""
    if not isinstance(spec, dict) or "model" not in spec:
        raise SpecError("model spec must be an object with a 'model' field")
    kind = spec["model"]
    if kind == "strip1d":
        return Strip1D()
    if kind == "disc1d":
        return Disc1D()
    if kind in ("striptube", "elliptictube"):
        if "body" not in spec:
            raise SpecError(f"{kind} spec requires a 'body' field")
        body = body_from_spec(spec["body"])
        if kind == "striptube":
            return StripTube(Gauge(body))
        return EllipticTube(body)
    raise SpecError(f"unknown model kind: {kind!r}")
