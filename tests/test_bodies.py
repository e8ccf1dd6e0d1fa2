import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pshmodels

from pshmodels import (Ellipsoid, Gauge, OutsideDomainError, Polytope,
                       SmoothBody, SpecError, Superellipse, body_from_spec,
                       interval, substream, unit_vector)

from conftest import bisect_gauge, fd_hessian
from pshmodels.bodies import _rowdot


def sample_interior(body, rng):
    lo, hi = body.bounding_box()
    while True:
        x = rng.uniform(lo, hi)
        if body.contains(x):
            return x


class TestContains:
    def test_square_origin(self, unit_square):
        assert unit_square.contains([0.0, 0.0])

    def test_square_boundary_excluded(self, unit_square):
        assert not unit_square.contains([1.0, 0.0])

    def test_ball_boundary_excluded(self, unit_ball):
        assert not unit_ball.contains([0.6, 0.8])

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.contains([0.0, 0.0, 0.0])


class TestGaugeClosedForms:
    def test_square_example(self, unit_square):
        p = unit_square.gauge([0.0, 0.0], [0.5, 0.25])
        assert p == pytest.approx(0.5, abs=1e-15)
        oracle = bisect_gauge(unit_square.contains, [0.0, 0.0], [0.5, 0.25])
        assert abs(p - oracle) <= 1e-12

    def test_ball_gauge_is_norm(self, unit_ball):
        rng = substream(0, 0)
        for _ in range(50):
            y = rng.normal(size=2)
            assert unit_ball.gauge([0.0, 0.0], y) == pytest.approx(
                np.linalg.norm(y), rel=1e-14)

    def test_interval_offcenter(self, interval_sym):
        assert interval_sym.gauge([0.5], [1.0]) == pytest.approx(2.0, abs=1e-14)
        assert interval_sym.gauge([0.5], [-1.0]) == pytest.approx(2.0 / 3.0,
                                                                  abs=1e-14)
        for y in (1.0, -1.0):
            oracle = bisect_gauge(interval_sym.contains, [0.5], [y])
            assert abs(interval_sym.gauge([0.5], [y]) - oracle) <= 1e-12

    def test_zero_direction(self, unit_square, unit_ball):
        assert unit_square.gauge([0.2, 0.1], [0.0, 0.0]) == 0.0
        assert unit_ball.gauge([0.2, 0.1], [0.0, 0.0]) == 0.0

    def test_center_outside_rejected(self, unit_square, unit_ball):
        with pytest.raises(OutsideDomainError):
            unit_square.gauge([1.5, 0.0], [1.0, 0.0])
        with pytest.raises(OutsideDomainError):
            unit_ball.gauge([1.0, 0.0], [1.0, 0.0])

    def test_ellipsoid_near_boundary_guard(self, unit_ball):
        x = [np.nextafter(1.0, 0.0), 0.0]
        with pytest.raises(OutsideDomainError):
            unit_ball.gauge(x, [1.0, 0.0])


class TestGaugeAgainstOracle:
    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball",
                                         "ellipsoid14", "interval_sym",
                                         "interval_asym", "squircle",
                                         "zero_gradient_disc"])
    def test_closed_form_matches_bisection(self, fixture, request):
        body = request.getfixturevalue(fixture)
        for k in range(150):
            rng = substream(100, k)
            x = sample_interior(body, rng)
            y = rng.normal(size=body.dim) * rng.uniform(0.1, 3.0)
            p = body.gauge(x, y)
            oracle = bisect_gauge(body.contains, x, y)
            assert abs(p - oracle) <= 1e-10

    @pytest.mark.parametrize("power", [2, 4, 8])
    def test_superellipse_offcentre_near_boundary(self, power):
        body = Superellipse([1.0, 0.7], power=power)
        origin = np.zeros(2)
        for k in range(60):
            rng = substream(109, k)
            d = unit_vector(rng, 2)
            x = rng.uniform(0.9, 0.999) * d / body.gauge(origin, d)
            y = unit_vector(rng, 2) * 10.0 ** rng.uniform(-3.0, 3.0)
            p = body.gauge(x, y)
            oracle = bisect_gauge(body.contains, x, y)
            # gauges reach 1e6 here, so the bound is relative above 1
            assert abs(p - oracle) <= 1e-10 * max(1.0, oracle)

    @staticmethod
    def _squircle_rays(squircle):
        """400 rays, half from the origin and half from centers reaching
        out to 0.99 of the way to the boundary."""
        origin = np.zeros(2)
        rays = []
        for k in range(200):
            rng = substream(111, k)
            d = unit_vector(rng, 2)
            x = rng.uniform(0.0, 0.99) * d / squircle.gauge(origin, d)
            y = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            rays.extend([(origin, y), (x, y)])
        return rays

    def test_squircle_oracle_calls_per_gauge(self, squircle):
        rays = self._squircle_rays(squircle)
        body = Superellipse(squircle.radii, power=squircle.power)
        calls = [0]

        def counting(w):
            calls[0] += 1
            return squircle.oracle(w)

        body.oracle = counting
        for x, y in rays:
            body.gauge(x, y)
        assert calls[0] <= 20 * len(rays)

    def test_squircle_gauge_batch_is_one_root_find(self, squircle):
        rays = self._squircle_rays(squircle)
        X, Y = (np.array(rows) for rows in zip(*rays))
        body = Superellipse(squircle.radii, power=squircle.power)
        calls = {"batch": 0, "scalar": 0}

        def counting_batch(W):
            calls["batch"] += 1
            return squircle.oracle_batch(W)

        def counting(w):
            calls["scalar"] += 1
            return squircle.oracle(w)

        body.oracle_batch, body.oracle = counting_batch, counting
        gauges = body.gauge_batch(X, Y)
        assert calls["batch"] <= 40 and calls["scalar"] == 0
        np.testing.assert_array_equal(
            gauges, [squircle.gauge(x, y) for x, y in zip(X, Y)])

    def test_superellipse_against_root_equation(self, squircle):
        # second independent route: the gauge solves sum((x+y/t)/r)^m = 1
        from scipy.optimize import brentq
        r = squircle.radii
        m = squircle.power
        rng = substream(101, 0)
        for _ in range(30):
            x = sample_interior(squircle, rng)
            y = rng.normal(size=2)

            def level(t):
                return float(np.sum(((x + y / t) / r) ** m) - 1.0)

            hi = 1.0
            while level(hi) > 0:
                hi *= 2
            lo = hi
            while level(lo) < 0:
                lo /= 2
            root = brentq(level, lo, hi, xtol=1e-15)
            assert squircle.gauge(x, y) == pytest.approx(root, abs=1e-10)


class TestGaugeProperties:
    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball",
                                         "ellipsoid14", "interval_asym",
                                         "squircle"])
    def test_positive_homogeneity(self, fixture, request):
        body = request.getfixturevalue(fixture)
        for k in range(60):
            rng = substream(102, k)
            x = sample_interior(body, rng)
            y = rng.normal(size=body.dim)
            p = body.gauge(x, y)
            for t in (0.5, 2.0, 7.0):
                assert body.gauge(x, t * y) == pytest.approx(t * p, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball",
                                         "ellipsoid14", "interval_asym"])
    def test_power_of_two_scaling_is_exact(self, fixture, request):
        # also where y Q y would leave the float range: an ellipsoid
        # evaluates those rows rescaled
        body = request.getfixturevalue(fixture)
        rng = substream(105, 0)
        X = np.array([sample_interior(body, rng) for _ in range(40)])
        Y = rng.normal(size=X.shape) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        P = body.gauge_batch(X, Y)
        for k in (-900, -600, 600, 900):
            np.testing.assert_array_equal(
                body.gauge_batch(X, np.ldexp(Y, k)), np.ldexp(P, k))

    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball",
                                         "ellipsoid14", "squircle"])
    def test_membership_duality(self, fixture, request):
        body = request.getfixturevalue(fixture)
        hits = 0
        for k in range(1000):
            rng = substream(103, k)
            x = sample_interior(body, rng)
            y = rng.normal(size=body.dim) * rng.uniform(0.05, 2.5)
            inside = body.contains(x + y)
            p = body.gauge(x, y)
            if abs(p - 1.0) < 1e-12:
                continue  # numerically on the boundary; strictness undecidable
            assert inside == (p < 1.0)
            hits += 1
        assert hits > 900

    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball",
                                         "ellipsoid14", "interval_asym"])
    def test_convexity_in_y(self, fixture, request):
        body = request.getfixturevalue(fixture)
        for k in range(200):
            rng = substream(104, k)
            x = sample_interior(body, rng)
            y1 = rng.normal(size=body.dim)
            y2 = rng.normal(size=body.dim)
            lam = rng.uniform()
            lhs = body.gauge(x, lam * y1 + (1 - lam) * y2)
            rhs = lam * body.gauge(x, y1) + (1 - lam) * body.gauge(x, y2)
            assert lhs <= rhs + 1e-10


class TestGaugeHessian:
    def test_ball_norm_hessian(self, unit_ball):
        rng = substream(105, 0)
        for _ in range(20):
            y = rng.normal(size=2)
            yhat = y / np.linalg.norm(y)
            expected = (np.eye(2) - np.outer(yhat, yhat)) / np.linalg.norm(y)
            H = unit_ball.gauge_hessian([0.0, 0.0], y)
            assert np.max(np.abs(H - expected)) <= 1e-12

    def test_ball_axis_direction(self, unit_ball):
        H = unit_ball.gauge_hessian([0.0, 0.0], [1.0, 0.0])
        assert np.max(np.abs(H - np.diag([0.0, 1.0]))) <= 1e-14

    def test_ellipsoid_matches_fd_with_richardson_ratio(self, ellipsoid14):
        x = np.array([0.1, 0.2])
        y = np.array([0.3, 0.5])
        H = ellipsoid14.gauge_hessian(x, y)
        res = {}
        for h in (2e-3, 1e-3):
            Hfd = fd_hessian(lambda w: ellipsoid14.gauge(x, w), y, h)
            res[h] = np.max(np.abs(Hfd - H))
        assert res[1e-3] <= 5e-6
        assert 3.0 <= res[2e-3] / res[1e-3] <= 5.0

    def test_smooth_body_fd_hessian(self, squircle):
        # power-2 superellipse is an ellipsoid; its FD Hessian must match
        body2 = Superellipse([1.0, 0.7], power=2)
        ell = Ellipsoid(np.diag([1.0, 1.0 / 0.49]))
        x = np.array([0.2, -0.1])
        y = np.array([0.4, 0.3])
        H_fd = body2.gauge_hessian(x, y)
        H_exact = ell.gauge_hessian(x, y)
        assert np.max(np.abs(H_fd - H_exact)) <= 1e-5

    def test_apex_and_polytope_rejected(self, unit_ball, unit_square):
        with pytest.raises(ValueError):
            unit_ball.gauge_hessian([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            unit_square.gauge_hessian([0.0, 0.0], [1.0, 0.0])


class TestSupport:
    def test_square_support(self, unit_square):
        assert unit_square.support([1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
        assert unit_square.support([1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_ellipsoid_support(self, ellipsoid14):
        a = np.array([0.0, 2.0])
        assert ellipsoid14.support(a) == pytest.approx(1.0, abs=1e-12)

    def test_superellipse_support_dominates_samples(self, squircle):
        rng = substream(106, 0)
        for _ in range(40):
            a = rng.normal(size=2)
            h = squircle.support(a)
            for _ in range(60):
                d = unit_vector(rng, 2)
                w = d / squircle.gauge(np.zeros(2), d)
                assert a @ w <= h + 1e-9

    def test_generic_smooth_body_has_no_certified_support(
            self, zero_gradient_disc):
        with pytest.raises(SpecError, match="no certified support"):
            zero_gradient_disc.support([1.0, 0.0])


class TestValidation:
    def test_unbounded_polytope_rejected(self):
        with pytest.raises(SpecError):
            Polytope([[1.0, 0.0]], [1.0])

    def test_empty_polytope_rejected(self):
        with pytest.raises(SpecError):
            Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -2, 1, 1])

    def test_nonsymmetric_q_rejected(self):
        with pytest.raises(SpecError):
            Ellipsoid([[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_q_rejected(self):
        with pytest.raises(SpecError):
            Ellipsoid(np.diag([1.0, -1.0]))

    def test_superellipse_odd_power_rejected(self):
        with pytest.raises(SpecError):
            Superellipse([1.0, 1.0], power=3)

    def test_generic_oracle_is_spot_checked(self):
        # a saddle Hessian: any generic oracle is checked for convexity
        def oracle(w):
            return (float(w[0] ** 2 - w[1] ** 2 - 1.0),
                    np.array([2.0 * w[0], -2.0 * w[1]]), np.diag([2.0, -2.0]))
        with pytest.raises(SpecError, match="not convex"):
            SmoothBody(oracle, 2, bounding_radius=1.5)

    def test_superellipse_oracle_builds_no_hessian(self, squircle):
        # convex by construction, so nothing reads a Hessian
        assert squircle.oracle(np.array([0.3, -0.2]))[2] is None

    def test_interval_requires_order(self):
        with pytest.raises(SpecError):
            interval(1.0, -1.0)


class TestGaugeWrapper:
    def test_origin_and_positivity(self, unit_ball):
        g = Gauge(unit_ball)
        assert g(np.zeros(2)) == 0.0
        rng = substream(107, 0)
        for _ in range(50):
            y = rng.normal(size=2)
            assert g(y) > 0.0

    def test_subadditivity(self, unit_square, interval_asym):
        for body in (unit_square, interval_asym):
            g = Gauge(body)
            for k in range(200):
                rng = substream(108, k)
                y1 = rng.normal(size=body.dim)
                y2 = rng.normal(size=body.dim)
                assert g(y1 + y2) <= g(y1) + g(y2) + 1e-10

    def test_asymmetric_gauge(self, interval_asym):
        g = Gauge(interval_asym)
        assert g([1.0]) == pytest.approx(0.5, abs=1e-14)
        assert g([-1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_requires_origin_inside(self):
        shifted = interval(1.0, 2.0)
        with pytest.raises(SpecError):
            Gauge(shifted)


class TestBodySpec:
    def test_polytope_roundtrip(self):
        body = body_from_spec({
            "type": "polytope",
            "halfspaces": [{"a": [1.0], "b": 1.0}, {"a": [-1.0], "b": 1.0}],
        })
        assert isinstance(body, Polytope)
        assert body.gauge([0.0], [1.0]) == pytest.approx(1.0)

    def test_ellipsoid_roundtrip(self):
        body = body_from_spec({"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 4.0]]})
        assert isinstance(body, Ellipsoid)

    def test_superellipse_roundtrip(self):
        body = body_from_spec({"type": "smooth", "kind": "superellipse",
                               "params": {"radii": [1.0, 0.7], "power": 4}})
        assert isinstance(body, Superellipse)

    @pytest.mark.parametrize("spec", [
        {"type": "torus"},
        {"halfspaces": []},
        {"type": "polytope"},
        {"type": "smooth", "kind": "blob"},
        {"type": "ellipsoid"},
        "not a dict",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(SpecError):
            body_from_spec(spec)


class TestGeometryHelpers:
    def test_polytope_chebyshev(self, unit_square):
        assert np.allclose(unit_square.interior_point(), [0.0, 0.0], atol=1e-9)
        assert unit_square.inradius() == pytest.approx(1.0, abs=1e-9)

    def test_ellipsoid_inradius(self, ellipsoid14):
        assert ellipsoid14.inradius() == pytest.approx(0.5, abs=1e-12)

    def test_smooth_inradius_is_the_former_loop(self, zero_gradient_disc):
        # the former loop: one one-row origin gauge per direction, over the
        # axes and 64 normal draws of the same stream
        def former(body):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(2)))
            origin = np.zeros(body.dim)
            dirs = list(np.eye(body.dim)) + list(-np.eye(body.dim))
            for _ in range(64):
                v = rng.normal(size=body.dim)
                dirs.append(v / np.linalg.norm(v))
            return 0.9 * min(1.0 / body.gauge(origin, d) for d in dirs)

        def oracle(w):  # the ellipsoid w1^2 + 2 w2^2 + 3 w3^2 < 1
            q = np.array([1.0, 2.0, 3.0])
            return float(w @ (q * w) - 1.0), 2.0 * q * w, 2.0 * np.diag(q)
        for body in (zero_gradient_disc, SmoothBody(oracle, 3, 1.5)):
            assert body.inradius() == former(body)

    def test_outer_radii(self, unit_square, ellipsoid14, squircle,
                         zero_gradient_disc):
        # sup |w|: a vertex, the longest semi-axis, Hoelder's bound on a
        # superellipse (its closed form on the squircle is
        # (1 + 0.7^4)^(1/4)), and a generic smooth body's stated bound
        assert unit_square.outer_radius() == pytest.approx(2.0 ** 0.5,
                                                           rel=1e-12)
        assert ellipsoid14.outer_radius() == pytest.approx(1.0, rel=1e-12)
        assert squircle.outer_radius() == pytest.approx(
            (1.0 + 0.7 ** 4) ** 0.25, rel=1e-14)
        assert Superellipse([0.5, 2.0], power=2).outer_radius() == 2.0
        assert zero_gradient_disc.outer_radius() == (
            zero_gradient_disc.bounding_radius)
        # huge radii, whose powers leave the float range unscaled
        assert Superellipse([1e100, 1e100], power=4).outer_radius() == (
            pytest.approx(2.0 ** 0.25 * 1e100, rel=1e-14))

    def test_bounding_radius_of_extreme_superellipses(self):
        # |r| as np.linalg.norm gives it wherever that is positive and
        # finite; past it (|r|^2 overflows or underflows to 0), over max r_i
        for radii in ([1.0, 0.7], [3.0, 7.0, 1e-3], [1e-160, 2e-160],
                      [1e150, 1e-150]):
            assert Superellipse(radii).bounding_radius == (
                float(np.linalg.norm(radii)) * 1.0001)
        for radii in ([1e200, 1e200], [1e-200, 1e-200], [1e308, 1e308]):
            top = radii[0]
            assert Superellipse(radii).bounding_radius == (
                top * float(np.linalg.norm(np.array(radii) / top)) * 1.0001)

    @pytest.mark.parametrize("body", [
        Polytope([[1.0, 0.2], [-1.0, 0.5], [0.1, 1.0], [0.3, -1.0]],
                 [1.0, 2.0, 0.7, 1.5]),
        Ellipsoid([[2.0, 0.6], [0.6, 1.0]]),
        Superellipse([1.0, 0.7], power=4),
        Superellipse([0.5, 1.3, 2.0], power=8)],
        ids=["polytope", "ellipsoid", "squircle", "superellipse8"])
    def test_outer_radius_is_the_farthest_boundary_point(self, body):
        # 1 / gauge(d) is the length of the boundary ray of a unit d: none
        # exceeds the outer radius, and the longest of many comes close
        rng = np.random.default_rng(5)
        D = rng.normal(size=(4000, body.dim))
        D /= np.linalg.norm(D, axis=1)[:, None]
        reach = 1.0 / Gauge(body).batch(D)
        assert np.max(reach) <= body.outer_radius() * (1.0 + 1e-12)
        assert np.max(reach) >= body.outer_radius() * (1.0 - 1e-2)

    def test_bounding_boxes(self, unit_square, ellipsoid14):
        lo, hi = unit_square.bounding_box()
        assert np.allclose(lo, [-1, -1], atol=1e-9)
        assert np.allclose(hi, [1, 1], atol=1e-9)
        lo, hi = ellipsoid14.bounding_box()
        assert np.allclose(hi, [1.0, 0.5], atol=1e-12)


SPEC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "specs")


def _run_fresh(script: str):
    """Run script in a new interpreter with this package importable."""
    src = os.path.dirname(os.path.dirname(pshmodels.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLazyScipy:
    def test_squircle_commands_never_load_scipy(self, tmp_path):
        spec = tmp_path / "squircle.json"
        spec.write_text(json.dumps({
            "model": "striptube",
            "body": {"type": "smooth", "kind": "superellipse",
                     "params": {"radii": [1.0, 0.7], "power": 4}}}))
        _run_fresh(f"""
            import contextlib, io, sys
            from pshmodels.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify", "--model", {str(spec)!r}, "--suite",
                             "all", "--samples", "2", "--step", "2e-4"])
            assert code == 0, code
            assert "scipy" not in sys.modules, "a squircle command loaded SciPy"
            """)

    def test_polytope_commands_never_load_scipy(self):
        # every spec in specs/ over a closed-form body, 1-D models included
        specs = sorted(str(path) for path in Path(SPEC_DIR).glob("*.json")
                       if json.loads(path.read_text()).get(
                           "body", {}).get("type") != "smooth")
        assert len(specs) == 8
        _run_fresh(f"""
            import contextlib, io, sys
            import pshmodels
            from pshmodels.cli import main
            assert abs(pshmodels.interval(-1.0, 1.0).inradius() - 1.0) < 1e-12
            square = pshmodels.Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                        [1, 1, 1, 1])
            assert square.support([1.0, 1.0]) == 2.0
            assert "scipy" not in sys.modules, "building a polytope loaded SciPy"
            for spec in {specs!r}:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["verify", "--model", spec, "--suite", "all",
                                 "--samples", "20"])
                assert code == 0, (spec, code)
                assert "scipy" not in sys.modules, spec + " loaded SciPy"
            """)


class TestLazyNumpyRandom:
    def test_import_and_slice_never_load_numpy_random(self, tmp_path):
        # substream builds its seed sequence class on first use; a slice
        # draws nothing, so it must not pay for loading numpy.random
        out = tmp_path / "slice.csv"
        _run_fresh(f"""
            import contextlib, io, sys
            import pshmodels
            from pshmodels.cli import main
            assert "numpy.random" not in sys.modules, "import loaded it"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["slice", "--model",
                             {os.path.join(SPEC_DIR, "square_tube.json")!r},
                             "--plane", "0,3", "--half-width", "1.5",
                             "--out", {str(out)!r}])
            assert code == 0, code
            assert "numpy.random" not in sys.modules, "a slice loaded it"
            """)


class FormerSuperellipse(Superellipse):
    """The reference for the shared smooth-body kernels: the superellipse
    as it was before one closed form served both oracles and membership
    read the value alone. Its scalar oracle sums with np.sum, and its
    membership tests the norm under np.errstate, by np.linalg.norm for a
    point and the square root of a row's dot product for rows, and then
    reads the oracle's value, gradient and all."""

    def __init__(self, radii, power=4):
        super().__init__(radii, power)
        radii, power = self.radii, self.power

        def oracle(w):
            s = w / radii
            value = float(np.sum(s ** power) - 1.0)
            grad = power * s ** (power - 1) / radii
            return value, grad, None
        self.oracle = oracle

    def oracle_batch(self, W):
        S = W / self.radii
        m = self.power
        return (np.add.reduce(S ** m, axis=1) - 1.0,
                m * S ** (m - 1) / self.radii)

    def _member(self, x):
        with np.errstate(over="ignore"):
            far = np.linalg.norm(x) > self.bounding_radius
        if far:
            return False
        value, _, _ = self.oracle(x)
        return bool(value < 0.0)

    def _members(self, W):
        with np.errstate(over="ignore"):
            near = np.sqrt(_rowdot(W, W)) <= self.bounding_radius
        member = np.zeros(len(W), dtype=bool)
        member[near] = self.oracle_batch(W[near])[0] < 0.0
        return member


SMOOTH_KERNEL_BODIES = {"squircle": ([1.0, 0.7], 4),
                        "superellipse6": ([0.5, 1.3, 2.0], 6)}


def _kernel_points(body, rng):
    """Points at which the shared kernels must give the former bits:
    random points over many scales, +-0 and subnormals, boundary points
    and the points 1 ulp either side of them, and points on the sphere of
    the bounding radius and 1 ulp either side of it."""
    n, R = body.dim, body.bounding_radius
    scale = 10.0 ** rng.uniform(-300.0, 150.0, (200, 1))
    D = rng.normal(size=(400, n))
    D /= np.hypot.reduce(D, axis=1)[:, None]
    boundary = D / Gauge(body).batch(D)[:, None]
    sphere = R * D
    axes = np.vstack([R * np.eye(n), -R * np.eye(n)])
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3])
    special = rng.choice(tiny, (50, n))
    special[:2] = [[0.0] * n, [-0.0] * n]
    rings = [W for P in (boundary, sphere, axes)
             for W in (P, np.nextafter(P, 0.0), np.nextafter(P, 2.0 * P))]
    return np.vstack([rng.uniform(-1.5, 1.5, (500, n)) * R,
                      rng.normal(size=(200, n)) * scale, special, *rings])


def _squircle_counting_rays(body, count):
    """count rays, half from the origin and half from centers reaching out
    to 0.99 of the way to the boundary, as in _squircle_rays."""
    origin = np.zeros(body.dim)
    rays = []
    for k in range(count // 2):
        rng = substream(111, k)
        d = unit_vector(rng, body.dim)
        x = rng.uniform(0.0, 0.99) * d / body.gauge(origin, d)
        y = rng.normal(size=body.dim) * rng.uniform(0.1, 3.0)
        rays.extend([(origin, y), (x, y)])
    return rays


@pytest.mark.parametrize("name", sorted(SMOOTH_KERNEL_BODIES))
class TestSharedSmoothKernels:
    """One superellipse formula for both oracles, membership by the value
    alone and one bounding-radius test: the former bits and counts."""

    @staticmethod
    def _bodies(name):
        radii, power = SMOOTH_KERNEL_BODIES[name]
        return Superellipse(radii, power), FormerSuperellipse(radii, power)

    def test_oracles_and_membership_are_the_former_bits(self, name):
        body, former = self._bodies(name)
        W = _kernel_points(body, np.random.default_rng(28))
        # the oracles within their power's float range; membership up to
        # where the former's squared norm overflows
        top = np.abs(W).max(axis=1)
        finite, inside = W[top <= 1e40], W[top <= 1e150]
        for w in finite:
            value, grad, hess = body.oracle(w)
            ref = former.oracle(w)
            assert type(value) is float and hess is None
            assert value == ref[0]
            np.testing.assert_array_equal(grad, ref[1])
        for got, ref in zip(body.oracle_batch(finite),
                            former.oracle_batch(finite)):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(body._values(finite),
                                      former.oracle_batch(finite)[0])
        assert [body.contains(w) for w in inside] == [
            former.contains(w) for w in inside]
        np.testing.assert_array_equal(body.contains_batch(inside),
                                      former.contains_batch(inside))
        np.testing.assert_array_equal(
            body.contains_batch(inside), [body.contains(w) for w in inside])

    def test_radius_test_is_the_former_on_the_axes(self, name):
        # on an axis a norm is exact, so the radius test has one answer
        # at R and 1 ulp either side of it, whatever its kernel
        body, _ = self._bodies(name)
        R = body.bounding_radius
        for r, near in ((np.nextafter(R, 0.0), True), (R, True),
                        (np.nextafter(R, np.inf), False)):
            W = np.vstack([r * np.eye(body.dim), -r * np.eye(body.dim)])
            assert body._near(W).tolist() == [near] * len(W)
            assert [body._near(w) for w in W] == [near] * len(W)
            with np.errstate(over="ignore"):
                assert all(bool(np.linalg.norm(w) <= R) == near for w in W)

    def test_gauges_are_the_former_bits(self, name):
        body, former = self._bodies(name)
        rays = _squircle_counting_rays(body, 200)
        X, Y = (np.array(rows) for rows in zip(*rays))
        scalar = [body._gauge_bisect(x, y) for x, y in rays]
        assert scalar == [former._gauge_bisect(x, y) for x, y in rays]
        # the masked root find and the former's, on all rows at once and
        # in batches past _SCALAR_ROWS
        np.testing.assert_array_equal(1.0 / body._roots(X, Y), scalar)
        np.testing.assert_array_equal(body._roots(X, Y),
                                      former._roots(X, Y))
        np.testing.assert_array_equal(
            np.concatenate([body.gauge_batch(X[i:i + 3], Y[i:i + 3])
                            for i in range(0, len(X), 3)]),
            former.gauge_batch(X, Y))

    def test_scalar_root_find_makes_the_former_calls(self, name):
        # perfbench reads the contains calls per root (bodies.bisect). The
        # former root find made these contains calls and Newton steps on
        # these rays, and its membership also called the oracle (1,547 and
        # 1,785 oracle calls in all); the oracle now runs for the Newton
        # steps alone, membership reading the value
        body, _ = self._bodies(name)
        contains_calls, newton_calls = {"squircle": (590, 1193),
                                        "superellipse6": (632, 1296)}[name]
        rays = _squircle_counting_rays(body, 200)
        calls = {"contains": 0, "oracle": 0}
        contains, oracle = body.contains, body.oracle

        def counting_contains(x):
            calls["contains"] += 1
            return contains(x)

        def counting_oracle(w):
            calls["oracle"] += 1
            return oracle(w)
        body.contains, body.oracle = counting_contains, counting_oracle
        for x, y in rays:
            body._gauge_bisect(x, y)
        assert calls == {"contains": contains_calls, "oracle": newton_calls}


class TestSmoothBodyPastTheSquaredNormRange:
    """Membership within the bounding radius, where w . w overflows: the
    former radius test read every such point as outside."""

    def test_huge_superellipse_gauge_is_the_closed_form(self):
        body = Superellipse([1e200, 1e200], power=4)
        origin = np.zeros(2)
        for y, closed in (([1e199, 0.0], 0.1), ([0.0, -1e199], 0.1),
                          ([1e150, 0.0], 1e-50),
                          ([-1e199, 3e199], 0.0082 ** 0.25)):
            g = body.gauge(origin, y)
            assert abs(g - closed) <= 4 * math.ulp(closed), (y, g)
            assert body.gauge_batch([origin] * 3, [y] * 3).tolist() == [g] * 3

    def test_membership_past_the_squared_norm_range(self, squircle):
        huge = Superellipse([1e308, 1e308], power=4)
        W = np.array([[7e307, 7e307], [9e307, 0.0], [1e308, 1e308],
                      [-1.7e308, 1.7e308], [0.0, 0.0]])
        assert huge.contains_batch(W).tolist() == [True, True, False,
                                                    False, True]
        assert [huge.contains(w) for w in W] == [True, True, False, False,
                                                 True]
        # far past a small body's radius: outside, with no overflow
        W = np.array([[1.7e308, 1.7e308], [0.1, 0.2], [-1.7e308, 0.0]])
        assert squircle.contains_batch(W).tolist() == [False, True, False]
        assert [squircle.contains(w) for w in W] == [False, True, False]

    def test_radius_test_at_extreme_radii(self):
        # the largest and subnormal radii: the clip and the scale stay
        # floats, and the rows past the radius are far without a warning.
        # At the least subnormal R the hypot of (R, R) rounds to R, so the
        # point test, correctly rounded there, reads it as near
        def inside(w):
            return -1.0, np.zeros_like(w), np.zeros((2, 2))
        for R in (np.finfo(float).max, 1e-310, 5e-324, 1.0):
            body = SmoothBody(inside, 2, R)
            W = np.array([[R, 0.0], [0.0, -R], [R, R],
                          [1.7e308, 1.7e308], [0.0, 5e-324]])
            expected = [True, True, False, False, True]
            assert body._near(W).tolist() == expected
            expected[2] = R == 5e-324
            assert [body._near(w) for w in W] == expected
