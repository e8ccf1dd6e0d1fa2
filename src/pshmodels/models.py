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
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, Gauge, _vector, body_from_spec
from .errors import ConvergenceError, OutsideDomainError, SpecError
from .sampling import unit_vector

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


def batched_potential(model) -> Callable[[np.ndarray], np.ndarray]:
    """The model's potential over the rows of an (N, n) array.

    ``potential_batch(Z)`` where the model has one (each model here does:
    it raises OutsideDomainError if any row lies outside the domain); a
    model with only ``potential`` is evaluated row by row.
    """
    batch = getattr(model, "potential_batch", None)
    return batch if batch is not None else pointwise(model.potential)


def _atan_mean(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # math.atan rather than np.arctan: NumPy's SIMD arctan differs from
    # libm in the last bit for about 0.2% of inputs, and the batched
    # potential must reproduce the scalar one exactly
    return np.array([0.5 * (math.atan(p) + math.atan(q))
                     for p, q in zip(P.tolist(), Q.tolist())], dtype=float)


class Model:
    """Base class: a tube domain with center and extremal potential."""

    name: str
    dim: int

    def member(self, z) -> bool:
        raise NotImplementedError

    def member_batch(self, Z) -> np.ndarray:
        """``member`` at each row of an (N, n) array, as a bool (N,) array.

        Generic version: ``member`` row by row; the models here override
        it with array expressions that agree with ``member`` exactly.
        """
        return np.array([self.member(z) for z in as_points(Z, self.dim)],
                        dtype=bool)

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


class Strip1D(Model):
    """The flat strip {|Im z| < pi/4} over the real line."""

    name = "strip1d"
    dim = 1

    def member(self, z) -> bool:
        z = as_point(z, 1)
        return bool(abs(z[0].imag) < QUARTER_PI)

    def member_batch(self, Z) -> np.ndarray:
        return np.abs(as_points(Z, 1)[:, 0].imag) < QUARTER_PI

    def potential(self, z) -> float:
        z = as_point(z, 1)
        self._require_member(z)
        return abs(z[0].imag)

    def potential_batch(self, Z) -> np.ndarray:
        u = np.abs(as_points(Z, 1)[:, 0].imag)
        if np.any(u >= QUARTER_PI):
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        return u

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


class Disc1D(Model):
    """The unit disc over the interval (-1, 1)."""

    name = "disc1d"
    dim = 1

    def member(self, z) -> bool:
        z = as_point(z, 1)
        return bool(abs(z[0]) < 1.0)

    def member_batch(self, Z) -> np.ndarray:
        # Python abs per value, as in member: NumPy's vectorized complex
        # abs differs from it in the last bit for about a third of inputs,
        # which decides membership on the unit circle
        w = as_points(Z, 1)[:, 0].tolist()
        return np.array([abs(c) < 1.0 for c in w], dtype=bool)

    def potential(self, z) -> float:
        z = as_point(z, 1)
        self._require_member(z)
        return abs(cmath.atanh(z[0]).imag)

    def potential_batch(self, Z) -> np.ndarray:
        Z = as_points(Z, 1)
        if not np.all(self.member_batch(Z)):
            raise OutsideDomainError(f"point is not in the {self.name} domain")
        # cmath per value: NumPy's complex arctanh rounds differently
        return np.array([abs(cmath.atanh(c).imag) for c in Z[:, 0].tolist()],
                        dtype=float)

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


class StripTube(Model):
    """Tube {gauge(Im z) < pi/4} over R^n, for a convex gauge."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.dim = gauge.dim

    name = "striptube"

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
            if np.linalg.norm(y) >= max(0.5 * self.gauge.body.inradius(), 10.0 * h):
                return x + 1j * y
        raise ConvergenceError("strip-tube safe sampling starved")


class EllipticTube(Model):
    """Union of flat discs over segments of a bounded convex body.

    Membership: Re z in the body and p(z) p(conj z) < 1, where p is the
    centered gauge of the imaginary part.
    """

    def __init__(self, body: ConvexBody):
        self.body = body
        self.dim = body.dim

    name = "elliptictube"

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

    def sample_member(self, rng, margin: float = 0.9) -> np.ndarray:
        x = self._sample_body_point(rng, 0.97)
        d = unit_vector(rng, self.dim)
        pu = self.body._gauge(x, d)
        qu = self.body._gauge(x, -d)
        t = math.sqrt(rng.uniform(0.0, margin) / (pu * qu))
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
