"""Command-line surface: evaluate potentials and metrics, emit geodesic
charts, run verification suites with machine-readable reports, and dump
CSV grids for external plotting.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error,
3 domain error, 4 an iterative routine (gauge root find, sampler) failed
to converge.

The finite-difference suites refuse (exit 2) a step h below
MIN_RELATIVE_STEP times the inradius of a tube model's body: there the
rounding noise of the Levi form, about 1e-16 / (h / r)^2, swamps what the
checks measure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .bodies import Ellipsoid, Gauge, Polytope, interval
from .errors import ConvergenceError, OutsideDomainError, SpecError
from .geodesics import chart, identity_residual, striptube_geodesic
from .levi import (check_monge_ampere, check_plurisubharmonic,
                   gauge_identity_residuals_batch, tube_levi_residual_batch)
from .maximality import (Competitor, geodesic_pullback, linear_pullback,
                         max_violation, member_samples, slab_pullback)
from .models import (QUARTER_PI, Disc1D, EllipticTube, Model, Strip1D,
                     StripTube, model_from_spec, schwarz_excess)
from .reports import CheckReport, point_to_list
from .sampling import substream, unit_vector

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


def _parse_tols(pairs) -> dict:
    tols = dict(TOL_DEFAULTS)
    for item in pairs or []:
        name, _, value = item.partition("=")
        if not _ or name not in tols:
            raise SpecError(f"unknown tolerance assignment: {item!r}")
        tols[name] = float(value)
        if not (math.isfinite(tols[name]) and tols[name] > 0):
            raise SpecError("tolerances must be positive and finite")
    return tols


def _parse_reals(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"malformed real vector {text!r}") from exc


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([complex(p.replace(" ", "")) for p in text.split(",")])
    except ValueError as exc:
        raise SpecError(f"malformed complex point {text!r}") from exc


def _load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read model spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"model spec is not valid JSON: {exc}") from exc
    return model_from_spec(spec)


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _tube_body(model: Model):
    if isinstance(model, EllipticTube):
        return model.body
    if isinstance(model, StripTube):
        return model.gauge.body
    return None


def _check_step(model: Model, h: float) -> None:
    body = _tube_body(model)
    if body is None:
        return
    if not (math.isfinite(h) and h > 0):
        raise SpecError("--step must be positive and finite")
    r = body.inradius()
    if h / r < MIN_RELATIVE_STEP:
        raise SpecError(f"--step {h:g} is below {MIN_RELATIVE_STEP:g} times "
                        f"the body inradius {r:g}; finite differences at "
                        "that scale measure rounding noise")


def _smooth_tube_body(model: Model):
    body = _tube_body(model)
    if body is None:
        return None
    if isinstance(body, Polytope):
        raise SpecError(f"suite requires a C2 body; {model.name} is built "
                        "over a polytope")
    return body


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    z = _parse_point(args.point)
    if z.size != model.dim:
        raise SpecError(f"point dimension {z.size} does not match model "
                        f"dimension {model.dim}")
    member = model.member(z)
    record = {"member": member, "u": None, "p": None, "p_bar": None}
    if isinstance(model, EllipticTube) and model.body.contains(z.real):
        p, q = model.gauges(z)
        record["p"], record["p_bar"] = p, q
    if member:
        record["u"] = model.potential(z)
    print(json.dumps(record, sort_keys=True))
    return 0 if member else 3


def cmd_metric(args) -> int:
    model = _load_model(args.model)
    tols = _parse_tols(args.tol)
    x = _parse_reals(args.x)
    v = _parse_reals(args.xi)
    if not model.in_center(x):
        raise OutsideDomainError("x is not in the model center")
    if not np.any(v):
        record = {"E_closed": 0.0, "E_fd": 0.0, "F_upper": 0.0}
    else:
        from .geodesics import disc_upper_bound
        closed = model.metric(x, v)
        fd = model.metric_slope(x, v)
        record = {"E_closed": closed, "E_fd": fd,
                  "F_upper": disc_upper_bound(model, x, v)}
        if abs(closed - fd) > tols["metric_fd"]:
            print(f"warning: closed-form and FD metrics differ by "
                  f"{abs(closed - fd):.3e}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_geodesic(args) -> int:
    model = _load_model(args.model)
    z = _parse_point(args.point)
    if z.size != model.dim:
        raise SpecError("point dimension does not match model dimension")
    if isinstance(model, EllipticTube):
        ch = chart(model.body, z)
        rec = ch.point(ch.zeta0)
        record = {
            "t1": ch.t1, "t2": ch.t2,
            "x1": list(map(float, ch.x1)), "x2": list(map(float, ch.x2)),
            "zeta0": [ch.zeta0.real, ch.zeta0.imag],
            "reconstruction_residual": float(np.linalg.norm(rec - z)),
        }
    elif isinstance(model, StripTube):
        y = z.imag
        if not np.any(y):
            raise OutsideDomainError("no flat ray through center points")
        height = model.gauge(y)
        record = {
            "direction": list(map(float, y / height)),
            "height": height,
            "u": model.potential(z) if model.member(z) else None,
        }
    else:
        raise SpecError("geodesic charts require a tube model")
    print(json.dumps(record, sort_keys=True))
    return 0


def _suite_psh(model, cfg) -> CheckReport:
    _smooth_tube_body(model)
    return check_plurisubharmonic(model, cfg.samples, cfg.seed, cfg.step,
                                  cfg.tols["psh"])


def _suite_ma(model, cfg) -> CheckReport:
    _smooth_tube_body(model)
    return check_monge_ampere(model, cfg.samples, cfg.seed, cfg.step,
                              cfg.tols["ma"], cfg.tols["ma_abs"])


def _ratio_report(check, model, points_and_ratios, cfg) -> CheckReport:
    lo, hi = cfg.tols["ratio_lo"], cfg.tols["ratio_hi"]
    worst_dev, worst_point, worst_ratio = -1.0, None, None
    passed = True
    for z, ratio, res_h in points_and_ratios:
        if res_h <= cfg.tols["residual_floor"]:
            continue  # converged below noise; treated as pass
        if not lo <= ratio <= hi:
            passed = False
        dev = abs(ratio - 4.0)
        if dev > worst_dev:
            worst_dev, worst_point, worst_ratio = dev, z, ratio
    return CheckReport(check=check, model=model.name,
                       samples=len(points_and_ratios), h=cfg.step, tol=lo,
                       worst_point=point_to_list(worst_point)
                       if worst_point is not None else None,
                       worst_value=worst_ratio if worst_ratio is not None
                       else 4.0, passed=passed)


def _fd_samples(model: Model, cfg) -> np.ndarray:
    """The 20 safe samples of the Richardson suites, safe at step 2h."""
    return np.array([model.sample_fd_safe(substream(cfg.seed, k),
                                          2 * cfg.step) for k in range(20)])


def _suite_tube_levi(model, cfg) -> CheckReport:
    body = _smooth_tube_body(model)
    if not isinstance(model, EllipticTube):
        raise SpecError("tube-levi suite requires an elliptic tube")
    Z = _fd_samples(model, cfg)
    res_2h = tube_levi_residual_batch(body, Z, 2 * cfg.step).tolist()
    res_h = tube_levi_residual_batch(body, Z, cfg.step).tolist()
    rows = [(z, a / b if b > 0 else 4.0, b)
            for z, a, b in zip(Z, res_2h, res_h)]
    return _ratio_report("tube-levi", model, rows, cfg)


def _suite_gauge_derivatives(model, cfg) -> CheckReport:
    body = _smooth_tube_body(model)
    if not isinstance(model, EllipticTube):
        raise SpecError("gauge-derivatives suite requires an elliptic tube")
    Z = _fd_samples(model, cfg)
    X, Y = Z.real, Z.imag
    res_2h = gauge_identity_residuals_batch(body, X, Y, 2 * cfg.step).tolist()
    res_h = gauge_identity_residuals_batch(body, X, Y, cfg.step).tolist()
    rows = [(z, a / b if b > 0 else 4.0, b)
            for z, r_2h, r_h in zip(Z, res_2h, res_h)
            for a, b in zip(r_2h, r_h)]
    return _ratio_report("gauge-derivatives", model, rows, cfg)


def _competitor_battery(model: Model, seed: int) -> list[Competitor]:
    comps: list[Competitor] = []
    if isinstance(model, EllipticTube):
        for j in range(12):
            d = unit_vector(substream(seed, 10 ** 6 + j), model.dim)
            comps.append(slab_pullback(model.body, d))
        for j in range(4):
            z = model.sample_member(substream(seed, 2 * 10 ** 6 + j))
            if np.any(z.imag):
                comps.append(geodesic_pullback(chart(model.body, z)))
    elif isinstance(model, StripTube):
        body = model.gauge.body
        for j in range(16):
            d = unit_vector(substream(seed, 10 ** 6 + j), model.dim)
            if isinstance(body, Ellipsoid):
                c = (body.Q @ d) / math.sqrt(d @ body.Q @ d)
            else:
                c = d / max(body.support(d), body.support(-d))
            comps.append(linear_pullback(model.gauge, c))
    elif isinstance(model, Strip1D):
        gauge = Gauge(interval(-1.0, 1.0))
        for c in (1.0, -1.0, 0.5):
            comps.append(linear_pullback(gauge, [c]))
    elif isinstance(model, Disc1D):
        body = interval(-1.0, 1.0)
        comps.append(slab_pullback(body, [1.0]))
        for j in range(3):
            z = Disc1D().sample_member(substream(seed, 10 ** 6 + j))
            if abs(z[0].imag) > 1e-3:
                comps.append(geodesic_pullback(chart(body, z)))
    return comps


def _suite_maximality(model, cfg) -> CheckReport:
    comps = _competitor_battery(model, cfg.seed)
    shared = member_samples(model, cfg.samples, cfg.seed)
    worst = max(max_violation(model, comp, cfg.samples, cfg.seed, shared)
                for comp in comps)
    tol = cfg.tols["maximality"]
    return CheckReport(check="maximality", model=model.name,
                       samples=len(comps) * cfg.samples, h=cfg.step, tol=tol,
                       worst_point=None, worst_value=worst,
                       passed=bool(worst <= tol))


def _suite_geodesics(model, cfg) -> CheckReport:
    tol = cfg.tols["geodesic"]
    worst = 0.0
    passed = True
    count = 0
    if isinstance(model, EllipticTube):
        rec_tol = cfg.tols["reconstruction"]
        for j in range(10):
            z = model.sample_member(substream(cfg.seed, 3 * 10 ** 6 + j))
            if not np.any(z.imag):
                continue
            ch = chart(model.body, z)
            # relative to |z|, so rounding on a large body is no failure
            rec = float(np.linalg.norm(ch.point(ch.zeta0) - z))
            if rec > rec_tol * max(1.0, float(np.linalg.norm(z))):
                passed = False
            res = identity_residual(model.body, z, max(cfg.samples // 10, 10),
                                    cfg.seed + j)
            worst = max(worst, res)
            count += 1
        if worst > tol:
            passed = False
    elif isinstance(model, StripTube):
        tol = cfg.tols["flat_ray"]
        for k in range(cfg.samples):
            rng = substream(cfg.seed, k)
            d = unit_vector(rng, model.dim)
            y = d / model.gauge(d) * rng.uniform(0.1, 0.9) * QUARTER_PI
            x = rng.uniform(-1.0, 1.0, model.dim)
            zeta = complex(rng.uniform(-1.0, 1.0),
                           rng.uniform(0.05, 0.95) * QUARTER_PI)
            f = striptube_geodesic(model.gauge, x, y, zeta)
            worst = max(worst, abs(model.potential(f) - zeta.imag))
            count += 1
        passed = worst <= tol
    elif isinstance(model, (Disc1D, Strip1D)):
        for k in range(cfg.samples):
            rng = substream(cfg.seed, k)
            eta = complex(rng.uniform(-1.0, 1.0),
                          rng.uniform(-0.95, 0.95) * QUARTER_PI)
            z = np.array([np.tanh(eta)]) if isinstance(model, Disc1D) \
                else np.array([eta])
            worst = max(worst, abs(model.potential(z) - abs(eta.imag)))
            count += 1
        passed = worst <= tol
    return CheckReport(check="geodesics", model=model.name, samples=count,
                       h=cfg.step, tol=tol, worst_point=None,
                       worst_value=worst, passed=bool(passed))


def _strip_samples_through(model: Model, rng) -> tuple[complex, float]:
    """One sample (eta, u at the image) of a holomorphic strip pullback."""
    eta = complex(rng.uniform(-1.0, 1.0),
                  rng.uniform(0.05, 0.95) * QUARTER_PI)
    contraction = 0.5 if rng.uniform() < 0.5 else 1.0
    w = complex(eta.real, contraction * eta.imag)
    if isinstance(model, Strip1D):
        z = np.array([w])
    elif isinstance(model, Disc1D):
        z = np.array([np.tanh(w)])
    elif isinstance(model, StripTube):
        d = unit_vector(rng, model.dim)
        y = d / model.gauge(d)
        x = rng.uniform(-1.0, 1.0, model.dim)
        z = striptube_geodesic(model.gauge, x, y, w)
    else:
        z_base = model.sample_member(rng)
        while not np.any(z_base.imag):
            z_base = model.sample_member(rng)
        ch = chart(model.body, z_base)
        z = ch.strip_point(w)
    return eta, model.potential(z)


def _suite_schwarz(model, cfg) -> CheckReport:
    samples = []
    for k in range(cfg.samples):
        samples.append(_strip_samples_through(model, substream(cfg.seed, k)))
    report = schwarz_excess(samples, QUARTER_PI, QUARTER_PI)
    tol = cfg.tols["schwarz"]
    return CheckReport(check="schwarz", model=model.name, samples=cfg.samples,
                       h=cfg.step, tol=tol,
                       worst_point=[report.worst_point.real,
                                    report.worst_point.imag],
                       worst_value=report.max_excess,
                       passed=bool(report.max_excess <= tol))


_SUITE_RUNNERS = {
    "psh": _suite_psh,
    "ma": _suite_ma,
    "tube-levi": _suite_tube_levi,
    "gauge-derivatives": _suite_gauge_derivatives,
    "maximality": _suite_maximality,
    "geodesics": _suite_geodesics,
    "schwarz": _suite_schwarz,
}


class _VerifyConfig:
    def __init__(self, args):
        self.seed = args.seed
        self.samples = args.samples
        self.step = args.step
        self.tols = _parse_tols(args.tol)


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise SpecError("--samples must be at least 1")
    model = _load_model(args.model)
    cfg = _VerifyConfig(args)
    if args.suite in FD_SUITES + ("all",):
        _check_step(model, cfg.step)
    if args.suite == "all":
        reports = []
        for name in SUITES:
            try:
                reports.append(_SUITE_RUNNERS[name](model, cfg).to_dict())
            except SpecError as exc:
                reports.append({"check": name, "model": model.name,
                                "skipped": str(exc)})
        overall = all(r.get("pass", True) for r in reports)
        _emit({"model": model.name, "suites": reports, "pass": overall},
              args.out)
        return 0 if overall else 1
    report = _SUITE_RUNNERS[args.suite](model, cfg)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_slice(args) -> int:
    model = _load_model(args.model)
    i, j = (int(p) for p in args.plane.split(","))
    n = model.dim
    if not (0 <= i < 2 * n and 0 <= j < 2 * n) or i == j:
        raise SpecError("plane indices must be distinct and in [0, 2n)")
    if i < n and j < n:
        raise SpecError("plane must involve at least one imaginary coordinate")
    center = (_parse_reals(args.center) if args.center
              else np.zeros(2 * n))
    if center.size != 2 * n:
        raise SpecError(f"center must have {2 * n} coordinates")
    if not np.all(np.isfinite(center)):
        raise SpecError("--center must be finite")
    if args.resolution < 0:
        raise SpecError("--resolution must be >= 0")
    if not (math.isfinite(args.half_width) and args.half_width > 0):
        raise SpecError("--half-width must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        ticks = (np.linspace(-args.half_width, args.half_width,
                             args.resolution + 1)
                 if args.resolution else np.array([0.0]))
        # rows run c2 fastest; each coordinate is center + tick, the same
        # addition the CSV column reports
        coords = np.tile(center, (ticks.size ** 2, 1))
        coords[:, i] += np.repeat(ticks, ticks.size)
        coords[:, j] += np.tile(ticks, ticks.size)
    if not np.all(np.isfinite(coords)):
        raise SpecError("slice grid overflows: --center plus --half-width "
                        "is not finite")
    Z = coords[:, :n] + 1j * coords[:, n:]
    member = model.member_batch(Z)
    u = np.full(len(Z), "", dtype=object)
    u[member] = model.potential_batch(Z[member]).tolist()
    columns = (coords[:, i].tolist(), coords[:, j].tolist(),
               member.astype(int).tolist(), u.tolist())
    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out \
        else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(["c1", "c2", "member", "u"])
        writer.writerows(zip(*columns))
    finally:
        if args.out:
            handle.close()
    return 0


def _add_common(parser):
    parser.add_argument("--model", required=True,
                        help="path to the model spec JSON")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--step", type=float, default=1e-3,
                        help="finite-difference step h")
    parser.add_argument("--tol", action="append", metavar="NAME=V",
                        help="override a named tolerance")
    parser.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pshmodels",
        description="Extremal plurisubharmonic tube models: evaluation, "
                    "geodesic charts, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the potential at a point")
    _add_common(p_eval)
    p_eval.add_argument("--point", required=True,
                        help="comma-separated complex coordinates, e.g. "
                             "'0.1+0.2j,0.3'")
    p_eval.set_defaults(func=cmd_eval)

    p_metric = sub.add_parser("metric", help="evaluate the center metric")
    _add_common(p_metric)
    p_metric.add_argument("--x", required=True, help="center point")
    p_metric.add_argument("--xi", required=True, help="tangent direction")
    p_metric.set_defaults(func=cmd_metric)

    p_geo = sub.add_parser("geodesic", help="emit the geodesic chart "
                                            "through a point")
    _add_common(p_geo)
    p_geo.add_argument("--point", required=True)
    p_geo.set_defaults(func=cmd_geodesic)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", required=True,
                          choices=SUITES + ("all",))
    p_verify.set_defaults(func=cmd_verify)

    p_slice = sub.add_parser("slice", help="dump a CSV grid of the potential "
                                           "over an affine 2-plane")
    _add_common(p_slice)
    p_slice.add_argument("--plane", required=True, metavar="I,J",
                         help="two of the 2n real coordinates (0..n-1 real "
                              "parts, n..2n-1 imaginary parts)")
    p_slice.add_argument("--center", default=None,
                         help="2n comma-separated coordinates of the plane "
                              "base point (default: origin)")
    p_slice.add_argument("--half-width", type=float, default=1.0,
                         dest="half_width")
    p_slice.add_argument("--resolution", type=int, default=100)
    p_slice.set_defaults(func=cmd_slice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutsideDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
