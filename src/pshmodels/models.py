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

An elliptic tube evaluates through one body call, ``gauge_pair(X, Y,
masked=True)``: one center pass over every row gives the mask of the
gauge centers and the terms of the pair (p(z), p(conj z)) at the rows it
keeps, which membership, the potential and the ``eval`` record all read.

A model's center rule ``_in_center`` (by default every real point; on an
elliptic tube its body's ``gauge_centers``, as in its membership) is
asked by ``in_center`` and by ``_center_args(x, v)``, which validates the
pair of every metric and refuses an x off the center, once, with "x is
not in the <name> center". The metric, its slope and the disc bound run
through ``Model._homogeneous``, which scales an extreme v and refuses a
value past the float range, once.

Every model samples in batches: ``sample_member_batch(rngs)``,
``sample_fd_safe_batch(rngs, h)`` and ``strip_points(W, rngs)`` draw row i
from ``rngs[i]`` alone, each row with its own Generator calls in a fixed
order. Each rejection retry is a ``draw`` function handed to
``sampling.redraw``, the package's one loop of masked rounds over the rows
still drawing, with the sampler's cap on the rounds and its starvation
message. The gauges and potentials of a draw site run after the draws, in
one batched call each. ``sample_member``, ``sample_fd_safe`` and
``strip_point`` are defined once, on Model, as batches of one row. A safe
sampler whose window cannot serve the step h refuses it itself, before
any draw (``Model._refuse_step``): ``_PlaneDomain`` from its ``_window``,
``EllipticTube`` from its gauge cap 0.8, ``StripTube`` from its level cap
0.9 pi/4 and the body's ``outer_radius``.

Each model also carries its own part of every verification suite and CLI
record (see Model), so no caller branches on the model type; ``suites``
turns its samples, competitors and witnesses into verdicts. Its discs
come from ``geodesics`` and its competitors from ``maximality``, which
sit below this module; ``QUARTER_PI`` and ``as_point`` are theirs.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .bodies import (ConvexBody, Gauge, _rowdot, _vector, as_point,
                     as_points, body_from_spec, interval)
from .errors import (ConvergenceError, OutsideDomainError, SpecError,
                     StepRefused)
from .geodesics import (QUARTER_PI, chart, chart_residuals, chart_rows,
                        disc_points, strip_map, striptube_geodesics, zeta0)
from .maximality import geodesic_pullback, linear_pullbacks, slab_pullbacks
from .sampling import redraw, substreams, uniform_rows, unit_vectors

_LADDER = (1e-2, 1e-3, 1e-4)  # metric_slope's steps, decreasing
_SLOPE_LEVEL = 0.1  # the largest potential at the slope ladder's top step


def conjugate(z) -> np.ndarray:
    return np.conj(np.atleast_1d(np.asarray(z, dtype=complex)))


def _atans(P: np.ndarray) -> np.ndarray:
    # math.atan rather than np.arctan: NumPy's SIMD arctan differs from
    # libm in the last bit for about 0.2% of inputs, and the potential
    # must reproduce the closed form of libm arctangents exactly
    return np.fromiter(map(math.atan, P.tolist()), dtype=float, count=len(P))


def _atan_mean(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return 0.5 * (_atans(P) + _atans(Q))


def _box_rows(rngs, dim: int) -> np.ndarray:
    """``rng.uniform(-1.0, 1.0, dim)`` of each Generator of rngs, as rows."""
    return uniform_rows(rngs, np.full(dim, -1.0), np.full(dim, 1.0))


class Model:
    """Base class: a tube domain with center and extremal potential.

    Each model defines ``member_potential_batch``, its domain and potential
    stated once; its closed-form metric ``_metric``, at the pair
    ``_homogeneous`` hands it; the maximality battery ``competitors(seed)``;
    ``strip_points(W, rngs)``, the images of the W[i], |Im W[i]| < pi/4,
    under holomorphic strip maps into the domain (drawn from rngs[i] on
    tubes); and ``geodesic_witnesses(seed, samples)``, a pair (gaps,
    reconstructions): per extremal disc or flat ray, the largest gap
    between the potential along it and its closed form, and per disc
    chart, its base point error over max(1, |z|). A subclass evaluates
    and draws only in batches; the one-row methods here validate by
    ``as_point``. A model must not change after construction: the suites
    cache their sample draws on the model object (``functools.lru_cache``).
    """

    name: str
    dim: int
    body: ConvexBody | None = None  # the tube's body; None in dimension 1
    # the elliptic-tube identities (tube-levi, gauge-derivatives) tie the
    # potential to the centered gauges of the body; other models have none
    gauge_identities = False
    witness_tol = "geodesic"  # tolerance of the geodesics-suite witnesses

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
        """The closed-form center metric E(x, v), by ``_homogeneous``."""
        return self._homogeneous(self._metric, x, v)

    def _metric(self, x: np.ndarray, v: np.ndarray) -> float:
        """The closed form at validated x in the center and v != 0."""
        raise NotImplementedError

    def in_center(self, x) -> bool:
        return self._in_center(_vector(x, self.dim))

    def _in_center(self, x: np.ndarray) -> bool:
        """The center rule at a validated x: by default every real point."""
        return True

    def _center_args(self, x, v):
        """(x, v) validated, x refused unless it is in the center."""
        x = _vector(x, self.dim)
        v = _vector(v, self.dim)
        if not self._in_center(x):
            raise OutsideDomainError(f"x is not in the {self.name} center")
        return x, v

    def _homogeneous(self, formula, x, v) -> float:
        """``formula(x, v)``, 1-homogeneous in v, at the pair
        ``_center_args`` validates; 0.0 at v = 0. A v with max |v_i|
        outside [2^-60, 2^60] runs at v / 2^e, max |v_i| in [1/2, 1), and
        the value is scaled back; a value past the float range is
        refused. The metric, its slope and its disc bound all run here."""
        x, v = self._center_args(x, v)
        if not np.any(v):
            return 0.0
        e = 0
        top = float(np.max(np.abs(v)))
        if not 2.0 ** -60 <= top <= 2.0 ** 60:
            e = math.frexp(top)[1]
            v = np.ldexp(v, -e)
        try:
            value = math.ldexp(formula(x, v), e)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise OutsideDomainError("metric is past the float range")
        return value

    def sample_center(self, rng) -> np.ndarray:
        raise NotImplementedError

    def sample_member_batch(self, rngs) -> np.ndarray:
        """A member point from each Generator of rngs, as (N, n) rows."""
        raise NotImplementedError

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        """As sample_member_batch, with the interior margin of O(h^2)
        stencils; a sampler whose window cannot serve h refuses it."""
        raise NotImplementedError

    def _refuse_step(self, h: float, limit: float) -> None:
        """Refuse, before any draw, a step the safe sampler cannot serve."""
        if h >= limit:
            raise StepRefused(self.name, h, limit)

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
        for validated x in the center and v != 0; ``_metric`` where the
        identity disc, its Moebius image or a flat ray realizes the metric."""
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

    def metric_slope(self, x, v) -> float:
        """Slope of the potential along t -> x + i t v, extrapolated to
        t = 0+, by ``_homogeneous``."""
        return self._homogeneous(self._slope, x, v)

    def _slope(self, x: np.ndarray, v: np.ndarray) -> float:
        """metric_slope at validated x in the center and v != 0.

        Richardson-stabilized over the step ladder _LADDER, halved (at
        most 120 times) until every step is a member and the potential at
        the largest is at most _SLOPE_LEVEL, linear even near the center's
        edge. 120 halvings reach the level for max |v_i| up to 2^60 and a
        unit-v slope up to 2^60.
        """
        steps = np.array(_LADDER)
        for _ in range(120):
            member, values = self.member_potential_batch(
                x + 1j * steps[:, None] * v)
            if np.all(member) and values[0] <= _SLOPE_LEVEL:
                break
            steps = steps / 2.0
        else:
            raise OutsideDomainError("slope ladder cannot enter the domain")
        quotients = values / steps
        diffs = np.abs(np.diff(quotients))
        scale = max(1.0, float(np.max(np.abs(quotients))))
        if diffs[-1] > diffs[0] + 1e-9 * scale:
            raise ConvergenceError("slope quotients are not settling")
        # the quotient has an even error expansion in t; fit in s = t^2
        s = steps ** 2
        vander = np.vander(s, increasing=True)
        return float(np.linalg.solve(vander, quotients)[0])


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

    @staticmethod
    def _strip_draws(rngs) -> np.ndarray:
        """complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.95, 0.95) pi/4)
        from each Generator of rngs: a point of the strip."""
        U = uniform_rows(rngs, [-1.0, -0.95], [1.0, 0.95])
        W = np.empty(len(U), dtype=complex)
        W.real, W.imag = U[:, 0], U[:, 1] * QUARTER_PI
        return W

    def strip_points(self, W, rngs) -> np.ndarray:
        # the identity strip map, or tanh per value: no draw
        return np.array([self._to_plane(w) for w in W],
                        dtype=complex).reshape(-1, 1)

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # w = s +- i t from _window, mapped by _safe_map: s from (-a, a),
        # t from (max(k h, lo pi/4), hi pi/4), its sign with probability 1/2
        a, k, lo, hi = self._window
        self._refuse_step(h, hi * QUARTER_PI / k)
        U = uniform_rows(rngs, [-a, max(k * h, lo * QUARTER_PI), 0.0],
                         [a, hi * QUARTER_PI, 1.0])
        T = np.where(U[:, 2] < 0.5, U[:, 1], -U[:, 1])
        return np.array([self._safe_map(complex(s, t))
                         for s, t in zip(U[:, 0].tolist(), T.tolist())],
                        dtype=complex).reshape(-1, 1)

    def geodesic_witnesses(self, seed: int, samples: int):
        rngs = substreams(seed, range(samples))
        etas = self._strip_draws(rngs).tolist()
        values = self.potential_batch(self.strip_points(etas, rngs))
        return [abs(u - abs(eta.imag))
                for u, eta in zip(values.tolist(), etas)], []


class Strip1D(_PlaneDomain):
    """The flat strip {|Im z| < pi/4} over the real line."""

    name = "strip1d"
    _to_plane = _to_strip = _safe_map = staticmethod(complex)  # the identity
    _window = (1.0, 10.0, 0.1, 0.9)

    @staticmethod
    def _members(w: np.ndarray) -> np.ndarray:
        return np.abs(w.imag) < QUARTER_PI

    def _metric(self, x, v) -> float:
        return abs(float(v[0]))

    disc_bound = _metric

    def sample_member_batch(self, rngs) -> np.ndarray:
        # x, then y, from each Generator
        return self._strip_draws(rngs).reshape(-1, 1)

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-1.0, 1.0)])

    def competitors(self, seed: int) -> list:
        return linear_pullbacks(Gauge(interval(-1.0, 1.0)),
                                [[1.0], [-1.0], [0.5]])


class Disc1D(_PlaneDomain):
    """The unit disc over the interval (-1, 1)."""

    name = "disc1d"
    _to_plane, _to_strip = staticmethod(np.tanh), staticmethod(cmath.atanh)
    # capping the window keeps the tanh image of a safe point away from
    # the circle, where stencil truncation blows up
    _safe_map, _window = staticmethod(cmath.tanh), (0.45, 20.0, 0.3, 0.8)

    @staticmethod
    def _members(w: np.ndarray) -> np.ndarray:
        # Python abs per value: NumPy's vectorized complex abs differs
        # from it in the last bit for about a third of inputs, which
        # decides membership on the unit circle
        return np.array([abs(c) < 1.0 for c in w.tolist()], dtype=bool)

    def _metric(self, x, v) -> float:
        return abs(float(v[0])) / (1.0 - float(x[0]) ** 2)

    disc_bound = _metric

    def _in_center(self, x) -> bool:
        return abs(float(x[0])) < 1.0

    def sample_member_batch(self, rngs) -> np.ndarray:
        # a radius from rng.uniform(), then an angle
        U = uniform_rows(rngs, [0.0, 0.0], [1.0, 2.0 * math.pi])
        R = 0.97 * np.sqrt(U[:, 0])
        return np.array([r * cmath.exp(1j * theta) for r, theta in
                         zip(R.tolist(), U[:, 1].tolist())],
                        dtype=complex).reshape(-1, 1)

    def sample_center(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-0.95, 0.95)])

    def competitors(self, seed: int) -> list:
        body = interval(-1.0, 1.0)
        Z = self.sample_member_batch(substreams(seed, range(10 ** 6,
                                                            10 ** 6 + 3)))
        return slab_pullbacks(body, [[1.0]]) + [
            geodesic_pullback(chart(body, z)) for z in Z
            if abs(z[0].imag) > 1e-3]


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

    def _metric(self, x, v) -> float:
        return self.gauge(v)

    disc_bound = _metric

    # Each sampler draws, per row, the coordinates x, a unit direction d
    # and a level or scale along it, in the order of the Generator calls
    # noted below; the gauges at the directions, and at the rays of
    # striptube_geodesics, then take one Gauge.batch call each.

    def sample_member_batch(self, rngs) -> np.ndarray:
        # x, d, level
        X = _box_rows(rngs, self.dim)
        D = unit_vectors(rngs, self.dim)
        levels = uniform_rows(rngs, [0.0], [0.95])[:, 0] * QUARTER_PI
        return X + 1j * (levels[:, None] * D / self.gauge.batch(D)[:, None])

    def sample_center(self, rng) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, self.dim)

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # x, then (d, level) until the length test passes; the level is
        # dimensionless, and the length test keeps |y| above the step.
        # |y| = level / gauge(d) < 0.9 (pi/4) R, R = sup |w| over the
        # body, so no draw passes once 10 h reaches that
        self._refuse_step(h, 0.9 * QUARTER_PI * self.body.outer_radius()
                          / 10.0)
        X = _box_rows(rngs, self.dim)
        floor = max(0.5 * self.body.inradius(), 10.0 * h)

        def draw(active):
            D = unit_vectors(active, self.dim)
            levels = uniform_rows(active, [0.4 * QUARTER_PI],
                                  [0.9 * QUARTER_PI])[:, 0]
            Y = levels[:, None] * D / self.gauge.batch(D)[:, None]
            # the norm of np.linalg.norm: the root of the dot product
            return Y, np.sqrt(_rowdot(Y, Y)) >= floor
        return X + 1j * redraw(rngs, draw, np.empty_like(X), 1000,
                               "strip-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        D = unit_vectors(substreams(seed, range(10 ** 6, 10 ** 6 + 16)),
                         self.dim)
        return linear_pullbacks(self.gauge, self.body.tight_covectors(D))

    def geodesic_witnesses(self, seed: int, samples: int):
        # d, then scale, x and zeta from one uniform draw
        rngs = substreams(seed, range(samples))
        D = unit_vectors(rngs, self.dim)
        n = self.dim
        U = uniform_rows(rngs, [0.1] + [-1.0] * n + [-1.0, 0.05],
                         [0.9] + [1.0] * n + [1.0, 0.95])
        X = U[:, 1:n + 1]
        heights = U[:, n + 2] * QUARTER_PI
        zetas = [complex(re, im) for re, im in
                 zip(U[:, n + 1].tolist(), heights.tolist())]
        Y = D / self.gauge.batch(D)[:, None] * U[:, :1] * QUARTER_PI
        values = self.potential_batch(
            striptube_geodesics(self.gauge, X, Y, zetas))
        return [abs(u - zeta.imag)
                for u, zeta in zip(values.tolist(), zetas)], []

    def strip_points(self, W, rngs) -> np.ndarray:
        # d, x
        D = unit_vectors(rngs, self.dim)
        X = _box_rows(rngs, self.dim)
        return striptube_geodesics(self.gauge, X,
                                   D / self.gauge.batch(D)[:, None], W)

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

    def _pairs(self, Z):
        """(inside, P, Q, keep): the rows of Z centering a gauge, the gauge
        pair there, and which have P Q < 1, the membership of the pair."""
        Z = as_points(Z, self.dim)
        inside, P, Q = self.body.gauge_pair(Z.real, Z.imag, masked=True)
        with np.errstate(over="ignore"):  # past the float range: outside
            keep = P * Q < 1.0
        return inside, P, Q, keep

    def member_potential_batch(self, Z) -> tuple[np.ndarray, np.ndarray]:
        inside, P, Q, keep = self._pairs(Z)
        member = np.zeros(len(inside), dtype=bool)
        member[inside] = keep
        return member, _atan_mean(P[keep], Q[keep])

    def _metric(self, x, v) -> float:
        P, Q = self.body.gauge_pair(x[None], v[None])
        return 0.5 * float(P[0] + Q[0])

    def _in_center(self, x) -> bool:
        # the gauge centers, as in member_potential_batch
        return bool(self.body.gauge_centers(x[None])[0])

    def _body_points(self, rngs, shrink: float) -> np.ndarray:
        """Uniform draws from the bounding box, each redrawn until the
        body shrunk by ``shrink`` about its interior point contains it."""
        lo, hi = self.body.bounding_box()
        c = self.body.interior_point()

        def draw(active):
            B = uniform_rows(active, lo, hi)
            return B, self.body.contains_batch(c + (B - c) / shrink)
        return redraw(rngs, draw, np.empty((len(rngs), self.dim)), 10000,
                      "body sampling starved")

    def sample_member_batch(self, rngs) -> np.ndarray:
        X = self._body_points(rngs, 0.97)
        D = unit_vectors(rngs, self.dim)
        P, Q = self.body.gauge_pair(X, D)
        T = np.sqrt(uniform_rows(rngs, [0.0], [0.9])[:, 0] / (P * Q))
        return X + 1j * T[:, None] * D

    def sample_center(self, rng) -> np.ndarray:
        return self._body_points([rng], 0.97)[0]

    def sample_fd_safe_batch(self, rngs, h: float) -> np.ndarray:
        # margins chosen so the h^2 truncation of 5-point stencils stays
        # orders of magnitude below the degeneracy tolerances: x in the
        # half-shrunk body, both gauges <= 0.8, and |y| bounded below
        rin = self.body.inradius()
        # the potential is dimensionless, h a length: compare it with
        # the step relative to the body's scale. Gauges <= 0.8 keep it
        # below atan(0.8), so no draw passes once 10 h / rin reaches that
        self._refuse_step(h, rin * math.atan(0.8) / 10.0)
        floor = 10.0 * h / rin

        def draw(active):
            X = self._body_points(active, 0.5)
            D = unit_vectors(active, self.dim)
            t_hi = 0.8 / np.maximum(*self.body.gauge_pair(X, D))
            t_lo = np.maximum(0.3 * rin, 0.6 * t_hi)
            Z = np.empty(X.shape, dtype=complex)
            accepted = np.zeros(len(active), dtype=bool)
            # a row whose window is empty makes no draw and is not accepted
            drawn = np.flatnonzero(~(t_hi <= t_lo))
            if len(drawn):
                T = uniform_rows([active[i] for i in drawn.tolist()],
                                 t_lo[drawn, None], t_hi[drawn, None])[:, 0]
                Zd = X[drawn] + 1j * T[:, None] * D[drawn]
                Z[drawn] = Zd
                accepted[drawn] = self.potential_batch(Zd) >= floor
            return Z, accepted
        return redraw(rngs, draw, np.empty((len(rngs), self.dim),
                                           dtype=complex), 10000,
                      "elliptic-tube safe sampling starved")

    def competitors(self, seed: int) -> list:
        D = unit_vectors(substreams(seed, range(10 ** 6, 10 ** 6 + 12)),
                         self.dim)
        comps = slab_pullbacks(self.body, D)
        Z = self.sample_member_batch(
            substreams(seed, range(2 * 10 ** 6, 2 * 10 ** 6 + 4)))
        comps += [geodesic_pullback(chart(self.body, z))
                  for z in Z if np.any(z.imag)]
        return comps

    def geodesic_witnesses(self, seed: int, samples: int):
        Z = self.sample_member_batch(
            substreams(seed, range(3 * 10 ** 6, 3 * 10 ** 6 + 10)))
        witnesses = np.flatnonzero(np.any(Z.imag, axis=1))
        Z = Z[witnesses]
        T1, T2, X1, X2 = chart_rows(self.body, Z)
        R = disc_points(X1, X2, np.array(
            [zeta0(t1, t2) for t1, t2 in zip(T1.tolist(), T2.tolist())]))
        # relative to |z|, so rounding on a large body is no failure
        reconstructions = [float(np.linalg.norm(r - z))
                           / max(1.0, float(np.linalg.norm(z)))
                           for r, z in zip(R, Z)]
        gaps = chart_residuals(self, X1, X2, max(samples // 10, 10),
                               [seed + j for j in witnesses.tolist()])
        return gaps, reconstructions

    def strip_points(self, W, rngs) -> np.ndarray:
        # member points off the center, where a disc chart is defined
        def draw(active):
            Z = self.sample_member_batch(active)
            return Z, np.any(Z.imag, axis=1)
        Z = redraw(rngs, draw, np.empty((len(rngs), self.dim), dtype=complex),
                   1000, "elliptic-tube strip sampling starved")
        _, _, X1, X2 = chart_rows(self.body, Z)
        return strip_map(X1, X2, W)

    def disc_bound(self, x, v) -> float:
        # the chart disc depends only on the ray of v; scale v into the
        # tube, chart there, and undo the scaling on the realized bound.
        # v is first scaled by a power of two to max |v_i| in [1/2, 1),
        # exactly, so that p q stays in the float range for any v
        e = math.frexp(float(np.max(np.abs(v))))[1]
        v = np.ldexp(v, -e)
        P, Q = self.body.gauge_pair(x[None], v[None])
        tau = 0.5 / math.sqrt(float(P[0]) * float(Q[0]))
        T1, T2, _, _ = chart_rows(self.body, (x + 1j * tau * v)[None])
        return math.ldexp(0.5 * (1.0 / T1[0] + 1.0 / T2[0]) / tau, e)

    def eval_record(self, z) -> dict:
        # one evaluation: off the gauge centers P, Q and keep are empty
        inside, P, Q, keep = self._pairs(as_point(z, self.dim)[None])
        member = bool(np.any(keep))
        record = {"member": member,
                  "u": float(_atan_mean(P, Q)[0]) if member else None,
                  "p": None, "p_bar": None}
        if inside[0]:
            # (p, p_bar) is reported, a gauge past the float range as null
            for key, value in (("p", float(P[0])), ("p_bar", float(Q[0]))):
                record[key] = value if math.isfinite(value) else None
        return record

    def geodesic_record(self, z) -> dict:
        z = as_point(z, self.dim)
        ch = chart(self.body, z)
        return {"t1": ch.t1, "t2": ch.t2,
                "x1": list(map(float, ch.x1)), "x2": list(map(float, ch.x2)),
                "zeta0": [ch.zeta0.real, ch.zeta0.imag],
                "reconstruction_residual":
                    float(np.linalg.norm(ch.point(ch.zeta0) - z))}


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
