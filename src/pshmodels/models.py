"""The catalog of analytic-pair models and their extremal potentials.

Each model couples a complex tube domain with its totally real center and
provides the maximal plurisubharmonic potential (valued in [0, pi/4),
vanishing exactly on the center), the closed-form boundary-slope
pseudo-metric on the center, and a finite-difference slope estimator that
realizes the metric as the limit of potential(x + i t v)/t.

A model defines one evaluation: ``member_potential_batch(Z)`` gives the
membership mask of the rows of an (N, n) array and the potential at its
member rows, in one pass. Everything else is defined once, on Model:
``member_batch`` is that mask, ``potential_batch`` those values (refused
with "point is not in the <name> domain" when any row is not a member),
and ``member`` and ``potential`` are batches of one row.

Every model samples in batches: ``sample_member_batch(rngs)``,
``sample_fd_safe_batch(rngs, h)`` and ``strip_points(W, rngs)`` draw row i
from ``rngs[i]`` alone, each row with its own Generator calls in a fixed
order, rejection retries in masked rounds over the rows still drawing.
The gauges and potentials of a draw site run after the draws, in one
batched call each. ``sample_member``, ``sample_fd_safe`` and
``strip_point`` are defined once, on Model, as batches of one row.

Each model also carries its own part of every verification suite and CLI
record (see Model), so no caller branches on the model type.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import (ConvexBody, Ellipsoid, Gauge, _rowdot, _vector,
                     body_from_spec, interval)
from .errors import ConvergenceError, OutsideDomainError, SpecError
from .sampling import substream, unit_vectors

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
    # libm in the last bit for about 0.2% of inputs, and the potential
    # must reproduce the closed form of libm arctangents exactly
    return np.array([0.5 * (math.atan(p) + math.atan(q))
                     for p, q in zip(P.tolist(), Q.tolist())], dtype=float)


def _uniform_rows(rngs, dim: int) -> np.ndarray:
    """``rng.uniform(-1.0, 1.0, dim)`` of each Generator of rngs, as rows."""
    return np.array([rng.uniform(-1.0, 1.0, dim)
                     for rng in rngs]).reshape(-1, dim)


class Model:
    """Base class: a tube domain with center and extremal potential.

    Each model defines ``member_potential_batch``, its domain and potential
    stated once; the maximality battery ``competitors(seed)``;
    ``strip_points(W, rngs)``, the images of the W[i], |Im W[i]| < pi/4,
    under holomorphic strip maps into the domain (drawn from rngs[i] on
    tubes); and ``geodesic_witnesses(seed, samples)``, a pair (gaps,
    reconstructions): per extremal disc or flat ray, the largest gap
    between the potential along it and its closed form, and per disc
    chart, its base point error over max(1, |z|).
    A subclass evaluates and draws only in batches
    (``member_potential_batch``, ``sample_member_batch``,
    ``sample_fd_safe_batch``, ``strip_points``). ``member_batch`` and
    ``potential_batch`` here are the mask and the values of
    ``member_potential_batch``; ``member``, ``potential`` and the one-point
    samplers are their batches of one row, validated by ``as_point``.
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
    # the safe sampler's window is empty for steps h at or above this
    fd_step_limit = math.inf

    def member(self, z) -> bool:
        return bool(self.member_batch(as_point(z, self.dim)[None])[0])

    def potential(self, z) -> float:
        return float(self.potential_batch(as_point(z, self.dim)[None])[0])

    def member_potential_batch(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """The membership mask of the rows of an (N, n) array, and the
        potential at its member rows, in row order."""
        raise NotImplementedError

    def member_batch(self, Z) -> np.ndarray:
        """The membership mask of the rows of an (N, n) array."""
        return self.member_potential_batch(Z)[0]

    def potential_batch(self, Z) -> np.ndarray:
        """The potential at every row of an (N, n) array; raises
        OutsideDomainError if any row is not a member."""
        member, values = self.member_potential_batch(Z)
        if not np.all(member):
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        return values

    def metric(self, x, v) -> float:
        raise NotImplementedError

    def in_center(self, x) -> bool:
        raise NotImplementedError

    def sample_center(self, rng) -> np.ndarray:
        raise NotImplementedError

    def sample_member_batch(self, rngs) -> np.ndarray:
        """A member point from each Generator of rngs, as (N, n) rows."""
        raise NotImplementedError

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        """As sample_member_batch, with the interior margin of O(h^2)
        stencils."""
        raise NotImplementedError

    def strip_points(self, W, rngs) -> np.ndarray:
        raise NotImplementedError

    def sample_member(self, rng) -> np.ndarray:
        return self.sample_member_batch([rng])[0]

    def sample_fd_safe(self, rng, h: float) -> np.ndarray:
        return self.sample_fd_safe_batch([rng], h)[0]

    def strip_point(self, w: complex, rng) -> np.ndarray:
        return self.strip_points([w], [rng])[0]

    def disc_bound(self, x, v) -> float:
        """Metric bound at (x, v) realized by an explicit analytic disc,
        for validated x in the center and v != 0."""
        raise TypeError(f"no disc construction for model {self.name!r}")

    def eval_record(self, z) -> dict:
        """The record ``eval`` prints at a point z of matching dimension."""
        member, u = self.member_potential_batch(as_point(z, self.dim)[None])
        return {"member": bool(member[0]),
                "u": float(u[0]) if member[0] else None,
                "p": None, "p_bar": None}

    def geodesic_record(self, z) -> dict:
        """The record ``geodesic`` prints: the extremal curve through z."""
        raise SpecError("geodesic charts require a tube model")

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
        quotients = self.potential_batch(x + 1j * steps[:, None] * v) / steps
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
    extremal disc. ``_members`` is the domain's mask over complex values."""

    dim = 1

    def member_potential_batch(self, Z) -> tuple[np.ndarray, np.ndarray]:
        w = as_points(Z, 1)[:, 0]
        member = self._members(w)
        # per value: NumPy's complex arctanh rounds differently from cmath
        return member, np.array([abs(self._to_strip(c).imag)
                                 for c in w[member].tolist()], dtype=float)

    def strip_points(self, W, rngs) -> np.ndarray:
        # the identity strip map, or tanh per value: no draw
        return np.array([self._to_plane(w) for w in W],
                        dtype=complex).reshape(-1, 1)

    @staticmethod
    def _strip_rows(rngs, a: float, lo: float, hi: float) -> list:
        """complex(s, +-t) from each Generator: s from (-a, a), then t from
        (lo, hi), then its sign, each with probability 1/2."""
        rows = []
        for rng in rngs:
            s = rng.uniform(-a, a)
            t = rng.uniform(lo, hi)
            rows.append(complex(s, t if rng.uniform() < 0.5 else -t))
        return rows

    def geodesic_witnesses(self, seed: int, samples: int):
        rngs = [substream(seed, k) for k in range(samples)]
        etas = [complex(rng.uniform(-1.0, 1.0),
                        rng.uniform(-0.95, 0.95) * QUARTER_PI)
                for rng in rngs]
        values = self.potential_batch(self.strip_points(etas, rngs))
        return [abs(u - abs(eta.imag))
                for u, eta in zip(values.tolist(), etas)], []


class Strip1D(_PlaneDomain):
    """The flat strip {|Im z| < pi/4} over the real line."""

    name = "strip1d"
    _to_plane = _to_strip = staticmethod(complex)  # the identity
    fd_step_limit = 0.9 * QUARTER_PI / 10.0  # the window 10 h < 0.9 pi/4

    @staticmethod
    def _members(w: np.ndarray) -> np.ndarray:
        return np.abs(w.imag) < QUARTER_PI

    def metric(self, x, v) -> float:
        x = _vector(x, 1)
        v = _vector(v, 1)
        if not self.in_center(x):
            raise OutsideDomainError("x is not a finite real point")
        return abs(float(v[0]))

    def in_center(self, x) -> bool:
        x = _vector(x, 1)
        return True

    def sample_member_batch(self, rngs) -> np.ndarray:
        # x, then y, from each Generator
        return np.array([complex(rng.uniform(-1.0, 1.0),
                                 rng.uniform(-0.95, 0.95) * QUARTER_PI)
                         for rng in rngs], dtype=complex).reshape(-1, 1)

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-1.0, 1.0)])

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        W = self._strip_rows(rngs, 1.0, max(10.0 * h, 0.1 * QUARTER_PI),
                             0.9 * QUARTER_PI)
        return np.array(W, dtype=complex).reshape(-1, 1)

    def competitors(self, seed: int) -> list:
        from .maximality import linear_pullbacks
        return linear_pullbacks(Gauge(interval(-1.0, 1.0)),
                                [[1.0], [-1.0], [0.5]])

    def disc_bound(self, x, v) -> float:
        return abs(float(v[0]))


class Disc1D(_PlaneDomain):
    """The unit disc over the interval (-1, 1)."""

    name = "disc1d"
    _to_plane, _to_strip = staticmethod(np.tanh), staticmethod(cmath.atanh)
    fd_step_limit = 0.8 * QUARTER_PI / 20.0  # the window 20 h < 0.8 pi/4

    @staticmethod
    def _members(w: np.ndarray) -> np.ndarray:
        # Python abs per value: NumPy's vectorized complex abs differs
        # from it in the last bit for about a third of inputs, which
        # decides membership on the unit circle
        return np.array([abs(c) < 1.0 for c in w.tolist()], dtype=bool)

    def metric(self, x, v) -> float:
        x = _vector(x, 1)
        v = _vector(v, 1)
        if not self.in_center(x):
            raise OutsideDomainError("x is not in (-1, 1)")
        return abs(float(v[0])) / (1.0 - float(x[0]) ** 2)

    def in_center(self, x) -> bool:
        x = _vector(x, 1)
        return bool(abs(float(x[0])) < 1.0)

    def sample_member_batch(self, rngs) -> np.ndarray:
        rows = []
        for rng in rngs:
            r = 0.97 * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rows.append(r * cmath.exp(1j * theta))
        return np.array(rows, dtype=complex).reshape(-1, 1)

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-0.95, 0.95)])

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # sample in strip coordinates; capping the window keeps the tanh
        # image away from the circle, where stencil truncation blows up
        W = self._strip_rows(rngs, 0.45, max(0.3 * QUARTER_PI, 20.0 * h),
                             0.8 * QUARTER_PI)
        return np.array([cmath.tanh(w) for w in W],
                        dtype=complex).reshape(-1, 1)

    def competitors(self, seed: int) -> list:
        from .geodesics import chart
        from .maximality import geodesic_pullback, slab_pullbacks
        body = interval(-1.0, 1.0)
        Z = self.sample_member_batch([substream(seed, 10 ** 6 + j)
                                      for j in range(3)])
        return slab_pullbacks(body, [[1.0]]) + [
            geodesic_pullback(chart(body, z)) for z in Z
            if abs(z[0].imag) > 1e-3]

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

    def member_potential_batch(self, Z) -> tuple[np.ndarray, np.ndarray]:
        values = self.gauge.batch(as_points(Z, self.dim).imag)
        member = values < QUARTER_PI
        return member, values[member]

    def metric(self, x, v) -> float:
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        return self.gauge(v)

    def in_center(self, x) -> bool:
        x = _vector(x, self.dim)
        return True

    # Each sampler draws, per row, the coordinates x, a unit direction d
    # and a level or scale along it, in the order of the Generator calls
    # noted below; the gauges at the directions, and at the rays of
    # striptube_geodesics, then take one Gauge.batch call each.

    def sample_member_batch(self, rngs) -> np.ndarray:
        # x, d, level
        X = _uniform_rows(rngs, self.dim)
        D = unit_vectors(rngs, self.dim)
        levels = np.array([rng.uniform(0.0, 0.95) * QUARTER_PI
                           for rng in rngs])
        return X + 1j * (levels[:, None] * D / self.gauge.batch(D)[:, None])

    def sample_center(self, rng) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.dim)

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # x, then (d, level) until the length test passes; the level is
        # dimensionless, and the length test keeps |y| above the step
        X = _uniform_rows(rngs, self.dim)
        Y = np.empty_like(X)
        floor = max(0.5 * self.body.inradius(), 10.0 * h)
        rows = np.arange(len(rngs))
        for _ in range(1000):
            active = [rngs[i] for i in rows.tolist()]
            D = unit_vectors(active, self.dim)
            levels = np.array([rng.uniform(0.4 * QUARTER_PI, 0.9 * QUARTER_PI)
                               for rng in active])
            Yr = levels[:, None] * D / self.gauge.batch(D)[:, None]
            # the norm of np.linalg.norm: the root of the dot product
            done = np.sqrt(_rowdot(Yr, Yr)) >= floor
            Y[rows[done]] = Yr[done]
            rows = rows[~done]
            if not len(rows):
                return X + 1j * Y
        raise ConvergenceError("strip-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        from .maximality import linear_pullbacks
        body = self.body
        D = unit_vectors([substream(seed, 10 ** 6 + j) for j in range(16)],
                         self.dim)
        if isinstance(body, Ellipsoid):
            C = [(body.Q @ d) / math.sqrt(d @ body.Q @ d) for d in D]
        else:
            C = D / np.maximum(body.support_batch(D),
                               body.support_batch(-D))[:, None]
        return linear_pullbacks(self.gauge, C)

    def geodesic_witnesses(self, seed: int, samples: int):
        from .geodesics import striptube_geodesics
        # d, scale, x, zeta
        rngs = [substream(seed, k) for k in range(samples)]
        D = unit_vectors(rngs, self.dim)
        scales = np.array([rng.uniform(0.1, 0.9) for rng in rngs])
        X = _uniform_rows(rngs, self.dim)
        zetas = [complex(rng.uniform(-1.0, 1.0),
                         rng.uniform(0.05, 0.95) * QUARTER_PI)
                 for rng in rngs]
        Y = D / self.gauge.batch(D)[:, None] * scales[:, None] * QUARTER_PI
        values = self.potential_batch(
            striptube_geodesics(self.gauge, X, Y, zetas))
        return [abs(u - zeta.imag)
                for u, zeta in zip(values.tolist(), zetas)], []

    def strip_points(self, W, rngs) -> np.ndarray:
        from .geodesics import striptube_geodesics
        # d, x
        D = unit_vectors(rngs, self.dim)
        X = _uniform_rows(rngs, self.dim)
        return striptube_geodesics(self.gauge, X,
                                   D / self.gauge.batch(D)[:, None], W)

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

    def member_potential_batch(self, Z) -> tuple[np.ndarray, np.ndarray]:
        # the gauge pair at the rows whose real part centers a gauge
        # decides membership and also gives the potential
        Z = as_points(Z, self.dim)
        inside = self.body.gauge_centers(Z.real)
        P, Q = self.body.gauge_pair(Z.real, Z.imag, inside)
        with np.errstate(over="ignore"):  # past the float range: outside
            keep = P * Q < 1.0
        member = np.zeros(len(Z), dtype=bool)
        member[inside] = keep
        return member, _atan_mean(P[keep], Q[keep])

    def metric(self, x, v) -> float:
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        if not self.in_center(x):
            raise OutsideDomainError("x is not in the body")
        return 0.5 * (self.body.gauge(x, v) + self.body.gauge(x, -v))

    def in_center(self, x) -> bool:
        x = _vector(x, self.dim)
        return self.body.contains(x)

    def _body_points(self, rngs, shrink: float) -> np.ndarray:
        """Uniform draws from the bounding box, each redrawn until the
        body shrunk by ``shrink`` about its interior point contains it."""
        lo, hi = self.body.bounding_box()
        c = self.body.interior_point()
        X = np.empty((len(rngs), self.dim))
        rows = np.arange(len(rngs))
        for _ in range(10000):
            # lo + (hi - lo) u is what rng.uniform(lo, hi) computes, at a
            # fraction of its cost for array bounds
            U = np.array([rngs[i].random(self.dim) for i in rows.tolist()])
            B = lo + (hi - lo) * U.reshape(-1, self.dim)
            inside = self.body.contains_batch(c + (B - c) / shrink)
            X[rows[inside]] = B[inside]
            rows = rows[~inside]
            if not len(rows):
                return X
        raise ConvergenceError("body sampling starved")

    def sample_member_batch(self, rngs) -> np.ndarray:
        X = self._body_points(rngs, 0.97)
        D = unit_vectors(rngs, self.dim)
        P, Q = self.body.gauge_pair(X, D)
        # rng.uniform(0.0, 0.9) is 0.9 u
        U = np.array([rng.random() for rng in rngs])
        T = np.sqrt(0.9 * U / (P * Q))
        return X + 1j * T[:, None] * D

    def sample_center(self, rng) -> np.ndarray:
        return self._body_points([rng], 0.97)[0]

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # margins chosen so the h^2 truncation of 5-point stencils stays
        # orders of magnitude below the degeneracy tolerances: x in the
        # half-shrunk body, both gauges <= 0.8, and |y| bounded below
        rin = self.body.inradius()
        # the potential is dimensionless, h a length: compare it with
        # the step relative to the body's scale
        floor = 10.0 * h / rin
        Z = np.empty((len(rngs), self.dim), dtype=complex)
        rows = np.arange(len(rngs))
        for _ in range(10000):
            active = [rngs[i] for i in rows.tolist()]
            X = self._body_points(active, 0.5)
            D = unit_vectors(active, self.dim)
            t_hi = 0.8 / np.maximum(*self.body.gauge_pair(X, D))
            t_lo = np.maximum(0.3 * rin, 0.6 * t_hi)
            # a row whose window is empty draws again next round
            drawn = np.flatnonzero(~(t_hi <= t_lo))
            if len(drawn):
                U = np.array([active[i].random() for i in drawn.tolist()])
                lo, hi = t_lo[drawn], t_hi[drawn]
                T = lo + (hi - lo) * U  # rng.uniform(lo, hi)
                Zd = X[drawn] + 1j * T[:, None] * D[drawn]
                done = self.potential_batch(Zd) >= floor
                Z[rows[drawn[done]]] = Zd[done]
                rows = np.delete(rows, drawn[done])
                if not len(rows):
                    return Z
        raise ConvergenceError("elliptic-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        from .geodesics import chart
        from .maximality import geodesic_pullback, slab_pullbacks
        D = unit_vectors([substream(seed, 10 ** 6 + j) for j in range(12)],
                         self.dim)
        comps = slab_pullbacks(self.body, D)
        Z = self.sample_member_batch([substream(seed, 2 * 10 ** 6 + j)
                                      for j in range(4)])
        comps += [geodesic_pullback(chart(self.body, z))
                  for z in Z if np.any(z.imag)]
        return comps

    def geodesic_witnesses(self, seed: int, samples: int):
        from .geodesics import chart_residuals, chart_rows, disc_points, zeta0
        Z = self.sample_member_batch([substream(seed, 3 * 10 ** 6 + j)
                                      for j in range(10)])
        witnesses = np.flatnonzero(np.any(Z.imag, axis=1))
        Z = Z[witnesses]
        T1, T2, X1, X2 = chart_rows(self.body, Z)
        R = disc_points(X1, X2, np.array(
            [zeta0(t1, t2) for t1, t2 in zip(T1.tolist(), T2.tolist())]))
        # relative to |z|, so rounding on a large body is no failure
        reconstructions = [float(np.linalg.norm(r - z))
                           / max(1.0, float(np.linalg.norm(z)))
                           for r, z in zip(R, Z)]
        gaps = chart_residuals(self.body, X1, X2, max(samples // 10, 10),
                               [seed + j for j in witnesses.tolist()])
        return gaps, reconstructions

    def strip_points(self, W, rngs) -> np.ndarray:
        from .geodesics import chart_rows, strip_map
        Z = self.sample_member_batch(rngs)
        rows = np.flatnonzero(~np.any(Z.imag, axis=1))
        while len(rows):
            Z[rows] = self.sample_member_batch([rngs[i]
                                                for i in rows.tolist()])
            rows = rows[~np.any(Z[rows].imag, axis=1)]
        _, _, X1, X2 = chart_rows(self.body, Z)
        return strip_map(X1, X2, W)

    def disc_bound(self, x, v) -> float:
        from .geodesics import chart
        # the chart disc depends only on the ray of v; scale v into the
        # tube, chart there, and undo the scaling on the realized bound.
        # v is first scaled by a power of two to max |v_i| in [1/2, 1),
        # exactly, so that p q stays in the float range for any v
        e = math.frexp(float(np.max(np.abs(v))))[1]
        v = np.ldexp(v, -e)
        p, q = self.gauges(x + 1j * v)
        tau = 0.5 / math.sqrt(p * q)
        ch = chart(self.body, x + 1j * tau * v)
        return math.ldexp(0.5 * (1.0 / ch.t1 + 1.0 / ch.t2) / tau, e)

    def eval_record(self, z) -> dict:
        z = as_point(z, self.dim)
        if not self.body.contains(z.real):
            return super().eval_record(z)
        # (p, p_bar) is reported, and the same pair gives membership and the
        # potential. Within 1e-12 of an ellipsoid's edge the gauge refuses
        # the center, and eval fails as a domain error
        P, Q = self.body.gauge_pair(z.real[None], z.imag[None])
        p, q = float(P[0]), float(Q[0])
        member = p * q < 1.0  # a Python product past the range is inf
        return {"member": member,
                "u": float(_atan_mean(P, Q)[0]) if member else None,
                "p": p, "p_bar": q}

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
