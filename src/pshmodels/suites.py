"""The verification suites behind ``pshmodels verify``.

Each runner takes a model, the sweep seed, the sample count, the step h
and the tolerances by name, and returns a CheckReport. What differs
between models (body, competitors, witnesses, strip map) comes from the
model, so no runner branches on a model type.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SpecError
from .levi import (check_monge_ampere, check_plurisubharmonic,
                   gauge_identity_residuals_batch, tube_levi_residual_batch)
from .maximality import max_violation
from .models import QUARTER_PI, Model, schwarz_excess
from .reports import CheckReport, point_to_list
from .sampling import substream

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


def check_step(model: Model, h: float, suite: str = "all") -> None:
    """Refuse (SpecError) a step that is not positive and finite, since
    every report echoes it, and, when the suite ("all" included) takes
    finite differences, one at or above the model's ``fd_step_limit``,
    where its safe sampler has no room left, or, on a tube model, one
    below MIN_RELATIVE_STEP times the body inradius: there the rounding
    noise of the Levi form, about 1e-16 / (h / r)^2, swamps what the
    checks measure."""
    if not (math.isfinite(h) and h > 0):
        raise SpecError("--step must be positive and finite")
    if suite not in FD_SUITES + ("all",):
        return
    if h >= model.fd_step_limit:
        raise SpecError(f"--step {h:g} leaves the {model.name} safe sampler "
                        "no room; finite differences need a step below "
                        f"{model.fd_step_limit:g}")
    if model.body is None:
        return
    r = model.body.inradius()
    if h / r < MIN_RELATIVE_STEP:
        raise SpecError(f"--step {h:g} is below {MIN_RELATIVE_STEP:g} times "
                        f"the body inradius {r:g}; finite differences at "
                        "that scale measure rounding noise")


def _smooth_body(model: Model):
    if model.body is not None and not model.body.c2:
        raise SpecError(f"suite requires a C2 body; {model.name} is built "
                        "over a polytope")
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
    """The 20 samples safe at 2h of both Richardson suites, read-only."""
    Z = model.sample_fd_safe_batch([substream(seed, k) for k in range(20)],
                                   2 * h)
    Z.setflags(write=False)
    return Z


def _richardson(check, residuals, model, seed, h, tols) -> CheckReport:
    """Ratios of each residual at 2h to its value at h over the 20 samples
    safe at 2h; an O(h^2) residual gives about 4. A residual at h below
    the noise floor counts as converged, but the check fails if no
    residual is above it."""
    body = _smooth_body(model)
    if not model.gauge_identities:
        raise SpecError(f"{check} suite requires an elliptic tube")
    Z = _richardson_points(model, seed, h)
    res_2h = residuals(body, Z, 2 * h).reshape(len(Z), -1)
    res_h = residuals(body, Z, h).reshape(len(Z), -1)
    lo, hi = tols["ratio_lo"], tols["ratio_hi"]
    worst_dev, worst_point, worst_ratio = -1.0, None, 4.0
    compared = 0
    passed = True
    for z, r_2h, r_h in zip(Z, res_2h.tolist(), res_h.tolist()):
        for a, b in zip(r_2h, r_h):
            if b <= tols["residual_floor"]:
                continue
            compared += 1
            ratio = a / b
            passed = passed and lo <= ratio <= hi
            dev = abs(ratio - 4.0)
            if dev > worst_dev:
                worst_dev, worst_ratio = dev, ratio
                worst_point = point_to_list(z)
    # with every residual below the floor no ratio was compared, and a
    # check that compared nothing has shown nothing
    return CheckReport(check=check, model=model.name, samples=res_h.size,
                       h=h, tol=lo, worst_point=worst_point,
                       worst_value=worst_ratio, passed=passed and compared > 0)


def _suite_tube_levi(model, seed, samples, h, tols) -> CheckReport:
    return _richardson("tube-levi", tube_levi_residual_batch, model, seed,
                       h, tols)


def _gauge_residuals(body, Z, h):
    return gauge_identity_residuals_batch(body, Z.real, Z.imag, h)


def _suite_gauge_derivatives(model, seed, samples, h, tols) -> CheckReport:
    return _richardson("gauge-derivatives", _gauge_residuals, model, seed,
                       h, tols)


def _suite_maximality(model, seed, samples, h, tols) -> CheckReport:
    comps = model.competitors(seed)
    # np.max, not max: Python's max drops a NaN that is not first
    worst = float(np.max([max_violation(model, comp, samples, seed)
                          for comp in comps]))
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
    rngs = [substream(seed, k) for k in range(samples)]
    etas, targets = [], []
    for rng in rngs:
        # the strip map at eta, or at eta with its height halved: either
        # way the pulled-back potential stays at or below Im eta
        eta = complex(rng.uniform(-1.0, 1.0),
                      rng.uniform(0.05, 0.95) * QUARTER_PI)
        contraction = 0.5 if rng.uniform() < 0.5 else 1.0
        etas.append(eta)
        targets.append(complex(eta.real, contraction * eta.imag))
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
    report, with a suite that does not apply to the model (SpecError)
    listed as skipped, and the overall pass flag."""
    check_step(model, h, suite)
    if suite != "all":
        return RUNNERS[suite](model, seed, samples, h, tols).to_dict()
    reports = []
    for name in SUITES:
        try:
            reports.append(RUNNERS[name](model, seed, samples, h,
                                         tols).to_dict())
        except SpecError as exc:
            reports.append({"check": name, "model": model.name,
                            "skipped": str(exc)})
    return {"model": model.name, "suites": reports,
            "pass": all(r.get("pass", True) for r in reports)}
