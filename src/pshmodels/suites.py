"""The verification suites behind ``pshmodels verify``: the package's one
check layer, the only module that turns diagnostics into a CheckReport.

Each runner takes a model, the sweep seed, the sample count, the step h
and the tolerances by name, and returns a CheckReport, or raises
NotApplicable where the suite does not apply; no runner branches on a
model type. Samples come from the streams ``substreams(seed, range(N))``,
drawn once per command, one Generator call per row per stage: psh and ma
share one cached draw and its eigenvalues, tube-levi and
gauge-derivatives one of 20 samples safe at 2h, whose refusal by the
safe sampler names the step h. Each stage evaluates in one batched call:
a Richardson verdict takes its residuals at 2h and h from one residual
call, and the maximality battery its disc competitors' images from one
potential call (``maximality.violations``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable, OutsideDomainError, SpecError, StepRefused
from .levi import (gauge_identity_residuals_batch, levi_matrices,
                   tube_levi_residual_batch)
from .maximality import violations
from .models import QUARTER_PI, Model
from .sampling import substreams, uniform_rows

TOL_DEFAULTS = {
    "psh": 1e-6,
    "ma": 1e-4,
    "ma_abs": 1e-4,
    "metric_fd": 1e-6,
    "maximality": 1e-10,
    "geodesic": 1e-10,
    "reconstruction": 1e-12,
    "flat_ray": 1e-12,
    "schwarz": 1e-12,
    "ratio_lo": 3.5,
    "ratio_hi": 4.5,
    "residual_floor": 1e-12,
}

SUITES = ("psh", "ma", "tube-levi", "gauge-derivatives", "maximality",
          "geodesics", "schwarz")
FD_SUITES = ("psh", "ma", "tube-levi", "gauge-derivatives")
MIN_RELATIVE_STEP = 1e-5


@dataclass
class CheckReport:
    check: str
    model: str
    samples: int
    h: float
    tol: float
    worst_point: list | None
    worst_value: float
    passed: bool

    def to_dict(self) -> dict:
        # strict JSON has no NaN or infinity: a worst value that is not
        # finite is written as null, and its check fails
        finite = math.isfinite(self.worst_value)
        return {
            "check": self.check,
            "model": self.model,
            "samples": self.samples,
            "h": self.h,
            "tol": self.tol,
            "worst_point": self.worst_point,
            "worst_value": self.worst_value if finite else None,
            "pass": self.passed and finite,
        }


def point_to_list(z) -> list:
    """Complex point as [[re...], [im...]] for JSON output."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return [list(map(float, z.real)), list(map(float, z.imag))]


@dataclass(frozen=True)
class SchwarzReport:
    """Worst excess of sampled values over the strip Schwarz bound."""
    max_excess: float
    worst_point: complex
    count: int


def schwarz_excess(samples, a: float, r: float) -> SchwarzReport:
    """Max of u - (a/r) Im z over samples (z, u) in the strip {0 < Im z < r}.

    A nonpositive maximum confirms the comparison bound for subharmonic
    functions valued in [0, a) that vanish on the real axis. The first
    bad sample decides the error: a point off the strip raises
    OutsideDomainError, else a value outside [0, a) ValueError. The
    worst point is the first sample of the maximum.
    """
    if a <= 0 or r <= 0:
        raise ValueError("a and r must be positive")
    pairs = list(samples)
    if not pairs:
        raise ValueError("no samples")
    Z = np.array([z for z, _ in pairs], dtype=complex)
    U = np.array([u for _, u in pairs], dtype=float)
    off_strip = ~((0.0 < Z.imag) & (Z.imag < r))
    bad = np.flatnonzero(off_strip | ~((0.0 <= U) & (U < a)))
    if len(bad):
        if off_strip[bad[0]]:
            raise OutsideDomainError("sample outside the strip "
                                     "{0 < Im z < r}")
        raise ValueError("sample value outside [0, a)")
    excess = U - (a / r) * Z.imag
    i = int(np.argmax(excess))  # -inf everywhere (a / r overflows): no worst
    worst = complex(Z[i]) if excess[i] > -math.inf else None
    return SchwarzReport(float(excess[i]), worst, len(Z))


@functools.lru_cache(maxsize=1)
def _sampled_eigs(model: Model, nsamples: int, seed: int, h: float):
    """Safe-region samples k < nsamples and the extreme Levi eigenvalues
    of the potential at each, cached read-only: (points, lo, hi)."""
    if nsamples < 1:
        raise ValueError("nsamples must be positive")
    Z = model.sample_fd_safe_batch(substreams(seed, range(nsamples)), h)
    eigs = np.linalg.eigvalsh(levi_matrices(model.potential_batch, Z, h))
    Z.setflags(write=False)
    eigs.setflags(write=False)
    return Z, eigs[:, 0], eigs[:, -1]


def check_plurisubharmonic(model: Model, nsamples: int, seed: int,
                           h: float = 1e-3, tol: float = 1e-6) -> CheckReport:
    """All sampled Levi matrices satisfy min_eig >= -tol * max(1, max_eig)."""
    Z, lo, hi = _sampled_eigs(model, nsamples, seed, h)
    values = lo / np.maximum(1.0, hi)
    i = int(np.argmin(values))
    worst = float(values[i])
    return CheckReport(check="psh", model=model.name, samples=nsamples, h=h,
                       tol=tol, worst_point=point_to_list(Z[i]),
                       worst_value=worst, passed=bool(worst >= -tol))


def check_monge_ampere(model: Model, nsamples: int, seed: int,
                       h: float = 1e-3, rel_tol: float = 1e-4,
                       abs_floor: float = 1e-4) -> CheckReport:
    """One Levi eigenvalue vanishes at every sample (degenerate determinant).

    A sample passes if min_eig <= rel_tol * max_eig, or if min_eig is below
    abs_floor outright (covers dimension 1, where degeneracy means the
    whole form vanishes).
    """
    Z, lo, hi = _sampled_eigs(model, nsamples, seed, h)
    values = lo / np.maximum(hi, abs_floor)
    i = int(np.argmax(values))
    passed = np.all((lo <= rel_tol * hi) | (np.abs(lo) <= abs_floor))
    return CheckReport(check="ma", model=model.name, samples=nsamples, h=h,
                       tol=rel_tol, worst_point=point_to_list(Z[i]),
                       worst_value=float(values[i]), passed=bool(passed))


def check_step(model: Model, h: float, suite: str = "all") -> None:
    """Refuse (SpecError) a step that is not positive and finite, since
    every report echoes it, and, when the suite ("all" included) takes
    finite differences on a tube model, one below MIN_RELATIVE_STEP times
    the body inradius, where the Levi form's rounding noise, about
    1e-16 / (h / r)^2, swamps what the checks measure."""
    if not (math.isfinite(h) and h > 0):
        raise SpecError("--step must be positive and finite")
    if suite not in FD_SUITES + ("all",) or model.body is None:
        return
    r = model.body.inradius()
    if h / r < MIN_RELATIVE_STEP:
        raise SpecError(f"--step {h:g} is below {MIN_RELATIVE_STEP:g} times "
                        f"the body inradius {r:g}; finite differences at "
                        "that scale measure rounding noise")


def _smooth_body(model: Model):
    if model.body is not None and not model.body.c2:
        raise NotApplicable(f"suite requires a C2 body; {model.name} is "
                            "built over a polytope")
    return model.body


def _suite_psh(model, seed, samples, h, tols) -> CheckReport:
    _smooth_body(model)
    return check_plurisubharmonic(model, samples, seed, h, tols["psh"])


def _suite_ma(model, seed, samples, h, tols) -> CheckReport:
    _smooth_body(model)
    return check_monge_ampere(model, samples, seed, h, tols["ma"],
                              tols["ma_abs"])


@functools.lru_cache(maxsize=1)
def _richardson_points(model, seed, h):
    """The 20 samples safe at 2h of both Richardson suites, read-only; a
    2h the sampler refuses is refused as the step h, at half its limit."""
    try:
        Z = model.sample_fd_safe_batch(substreams(seed, range(20)), 2 * h)
    except StepRefused as exc:
        raise StepRefused(model.name, h, exc.limit / 2) from None
    Z.setflags(write=False)
    return Z


def _richardson(check, residuals, model, seed, h, tols) -> CheckReport:
    """Ratios of each residual at 2h to its value at h over the 20 samples
    safe at 2h; an O(h^2) residual gives about 4. A residual at h below
    the noise floor counts as converged, but the check fails if no
    residual is above it. The worst ratio is the first, in row order over
    samples x residuals, farthest from 4; a NaN ratio is never the worst,
    but fails the check. ``residuals(body, Z, (2 * h, h))`` gives the
    residuals at both steps, stacked, from one call."""
    body = _smooth_body(model)
    if not model.gauge_identities:
        raise NotApplicable(f"{check} suite requires an elliptic tube")
    Z = _richardson_points(model, seed, h)
    res_2h, res_h = residuals(body, Z, (2 * h, h)).reshape(2, len(Z), -1)
    lo, hi = tols["ratio_lo"], tols["ratio_hi"]
    # not "above the floor": a NaN residual is compared, and fails
    rows, cols = np.nonzero(~(res_h <= tols["residual_floor"]))
    ratios = res_2h[rows, cols] / res_h[rows, cols]
    dev = np.abs(ratios - 4.0)
    worst_point, worst_ratio = None, 4.0
    if not np.all(np.isnan(dev)):
        i = int(np.nanargmax(dev))
        worst_point, worst_ratio = point_to_list(Z[rows[i]]), float(ratios[i])
    # with every residual below the floor no ratio was compared, and a
    # check that compared nothing has shown nothing
    passed = len(ratios) > 0 and np.all((lo <= ratios) & (ratios <= hi))
    return CheckReport(check=check, model=model.name, samples=res_h.size,
                       h=h, tol=lo, worst_point=worst_point,
                       worst_value=worst_ratio, passed=bool(passed))


def _suite_tube_levi(model, seed, samples, h, tols) -> CheckReport:
    return _richardson("tube-levi", tube_levi_residual_batch, model, seed,
                       h, tols)


def _gauge_residuals(body, Z, steps):
    return gauge_identity_residuals_batch(body, Z.real, Z.imag, steps)


def _suite_gauge_derivatives(model, seed, samples, h, tols) -> CheckReport:
    return _richardson("gauge-derivatives", _gauge_residuals, model, seed,
                       h, tols)


def _suite_maximality(model, seed, samples, h, tols) -> CheckReport:
    comps = model.competitors(seed)
    # np.max, not max: Python's max drops a NaN that is not first
    worst = float(np.max(violations(model, comps, samples, seed)))
    tol = tols["maximality"]
    return CheckReport(check="maximality", model=model.name,
                       samples=len(comps) * samples, h=h, tol=tol,
                       worst_point=None, worst_value=worst,
                       passed=bool(worst <= tol))


def _suite_geodesics(model, seed, samples, h, tols) -> CheckReport:
    tol = tols[model.witness_tol]
    gaps, reconstructions = model.geodesic_witnesses(seed, samples)
    worst = float(np.max([0.0] + gaps))  # a NaN gap fails, as above
    passed = worst <= tol and all(rec <= tols["reconstruction"]
                                  for rec in reconstructions)
    return CheckReport(check="geodesics", model=model.name, samples=len(gaps),
                       h=h, tol=tol, worst_point=None,
                       worst_value=worst, passed=bool(passed))


def _suite_schwarz(model, seed, samples, h, tols) -> CheckReport:
    rngs = substreams(seed, range(samples))
    # eta, and the strip map at eta or at eta with its height halved:
    # either way the pulled-back potential stays at or below Im eta
    U = uniform_rows(rngs, [-1.0, 0.05, 0.0], [1.0, 0.95, 1.0])
    heights = U[:, 1] * QUARTER_PI
    contractions = np.where(U[:, 2] < 0.5, 0.5, 1.0)
    etas = [complex(x, y) for x, y in zip(U[:, 0].tolist(), heights.tolist())]
    targets = [complex(x, y) for x, y in
               zip(U[:, 0].tolist(), (contractions * heights).tolist())]
    values = model.potential_batch(model.strip_points(targets, rngs))
    report = schwarz_excess(zip(etas, values.tolist()), QUARTER_PI,
                            QUARTER_PI)
    tol = tols["schwarz"]
    return CheckReport(check="schwarz", model=model.name, samples=samples,
                       h=h, tol=tol,
                       worst_point=[report.worst_point.real,
                                    report.worst_point.imag],
                       worst_value=report.max_excess,
                       passed=bool(report.max_excess <= tol))


# verify looks runners up here at call time, so a wrapped entry runs
RUNNERS = {
    "psh": _suite_psh,
    "ma": _suite_ma,
    "tube-levi": _suite_tube_levi,
    "gauge-derivatives": _suite_gauge_derivatives,
    "maximality": _suite_maximality,
    "geodesics": _suite_geodesics,
    "schwarz": _suite_schwarz,
}


def verify(model: Model, suite: str, seed: int, samples: int, h: float,
           tols: dict) -> dict:
    """The report of one suite as a dict, or for suite "all" every suite's
    report, a suite that does not apply (NotApplicable) listed as skipped,
    and the overall pass flag; any other refusal propagates."""
    check_step(model, h, suite)
    if suite != "all":
        return RUNNERS[suite](model, seed, samples, h, tols).to_dict()
    reports = []
    for name in SUITES:
        try:
            reports.append(RUNNERS[name](model, seed, samples, h,
                                         tols).to_dict())
        except NotApplicable as exc:
            reports.append({"check": name, "model": model.name,
                            "skipped": str(exc)})
    return {"model": model.name, "suites": reports,
            "pass": all(r.get("pass", True) for r in reports)}
