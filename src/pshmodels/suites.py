"""The verification suites behind ``pshmodels verify``.

Each runner takes a model, the sweep seed, the sample count, the step h
and the tolerances by name, and returns a CheckReport. What differs
between models (body, competitors, witnesses, strip map) comes from the
model, so no runner branches on a model type.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SpecError
from .levi import (check_monge_ampere, check_plurisubharmonic,
                   gauge_identity_residuals_batch, tube_levi_residual_batch)
from .maximality import max_violation, member_samples
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
    finite differences on a tube model, one below MIN_RELATIVE_STEP times
    the body inradius: there the rounding noise of the Levi form, about
    1e-16 / (h / r)^2, swamps what the checks measure."""
    if not (math.isfinite(h) and h > 0):
        raise SpecError("--step must be positive and finite")
    if model.body is None or suite not in FD_SUITES + ("all",):
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


def _richardson(check, residuals, model, seed, h, tols) -> CheckReport:
    """Ratios of each residual at 2h to its value at h over the 20 samples
    safe at 2h; an O(h^2) residual gives about 4. A residual at h below
    the noise floor counts as converged."""
    body = _smooth_body(model)
    if not model.gauge_identities:
        raise SpecError(f"{check} suite requires an elliptic tube")
    Z = np.array([model.sample_fd_safe(substream(seed, k), 2 * h)
                  for k in range(20)])
    res_2h = residuals(body, Z, 2 * h).reshape(len(Z), -1).tolist()
    res_h = residuals(body, Z, h).reshape(len(Z), -1).tolist()
    lo, hi = tols["ratio_lo"], tols["ratio_hi"]
    worst_dev, worst_point, worst_ratio = -1.0, None, None
    passed, count = True, 0
    for z, r_2h, r_h in zip(Z, res_2h, res_h):
        for a, b in zip(r_2h, r_h):
            count += 1
            if b <= tols["residual_floor"]:
                continue
            ratio = a / b
            if not lo <= ratio <= hi:
                passed = False
            dev = abs(ratio - 4.0)
            if dev > worst_dev:
                worst_dev, worst_point, worst_ratio = dev, z, ratio
    return CheckReport(check=check, model=model.name, samples=count, h=h,
                       tol=lo,
                       worst_point=point_to_list(worst_point)
                       if worst_point is not None else None,
                       worst_value=worst_ratio if worst_ratio is not None
                       else 4.0, passed=passed)


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
    shared = member_samples(model, samples, seed)
    worst = max(max_violation(model, comp, samples, seed, shared)
                for comp in comps)
    tol = tols["maximality"]
    return CheckReport(check="maximality", model=model.name,
                       samples=len(comps) * samples, h=h, tol=tol,
                       worst_point=None, worst_value=worst,
                       passed=bool(worst <= tol))


def _suite_geodesics(model, seed, samples, h, tols) -> CheckReport:
    tol = tols[model.witness_tol]
    gaps, reconstructions = model.geodesic_witnesses(seed, samples)
    worst = max([0.0] + gaps)
    passed = worst <= tol and all(rec <= tols["reconstruction"]
                                  for rec in reconstructions)
    return CheckReport(check="geodesics", model=model.name, samples=len(gaps),
                       h=h, tol=tol, worst_point=None,
                       worst_value=worst, passed=bool(passed))


def _suite_schwarz(model, seed, samples, h, tols) -> CheckReport:
    pairs = []
    for k in range(samples):
        # the strip map at eta, or at eta with its height halved: either
        # way the pulled-back potential stays at or below Im eta
        rng = substream(seed, k)
        eta = complex(rng.uniform(-1.0, 1.0),
                      rng.uniform(0.05, 0.95) * QUARTER_PI)
        contraction = 0.5 if rng.uniform() < 0.5 else 1.0
        z = model.strip_point(complex(eta.real, contraction * eta.imag), rng)
        pairs.append((eta, model.potential(z)))
    report = schwarz_excess(pairs, QUARTER_PI, QUARTER_PI)
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
