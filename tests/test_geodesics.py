import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pshmodels import models
from pshmodels.geodesics import chart_rows
from pshmodels import (QUARTER_PI, Disc1D, EllipticTube, Gauge,
                       OutsideDomainError, Strip1D, StripTube, chart,
                       disc_upper_bound, identity_residual, model_from_spec,
                       striptube_geodesic, substream, unit_disc_point)
from pshmodels.suites import TOL_DEFAULTS, verify

SPEC_PATHS = sorted((Path(__file__).resolve().parents[1] / "specs")
                    .glob("*.json"))


class TestChart:
    def test_interval_pure_imaginary(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        assert ch.t1 == pytest.approx(2.0, rel=1e-14)
        assert ch.t2 == pytest.approx(2.0, rel=1e-14)
        assert ch.x1[0] == pytest.approx(1.0, abs=1e-14)
        assert ch.x2[0] == pytest.approx(-1.0, abs=1e-14)
        assert ch.zeta0 == pytest.approx(-0.5j, abs=1e-14)
        assert abs(ch.point(ch.zeta0)[0] - 0.5j) <= 1e-15

    def test_ball_axis_point(self, unit_ball):
        z = np.array([0.3j, 0.0])
        ch = chart(unit_ball, z)
        assert ch.t1 == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert ch.t2 == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert np.allclose(ch.x1, [1.0, 0.0], atol=1e-14)
        assert np.allclose(ch.x2, [-1.0, 0.0], atol=1e-14)
        assert ch.zeta0 == pytest.approx(-0.3j, abs=1e-14)

    def test_interval_generic_point(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5 + 0.25j]))
        assert ch.t1 == pytest.approx(2.0, rel=1e-14)
        assert ch.t2 == pytest.approx(6.0, rel=1e-14)
        assert ch.x1[0] == pytest.approx(1.0, abs=1e-14)
        assert ch.x2[0] == pytest.approx(-1.0, abs=1e-14)
        assert ch.zeta0 == pytest.approx(-0.5 - 0.25j, abs=1e-14)
        assert abs(ch.zeta0) ** 2 == pytest.approx(0.3125, rel=1e-13)

    def test_center_point_rejected(self, unit_ball):
        with pytest.raises(OutsideDomainError):
            chart(unit_ball, np.array([0.1 + 0j, 0.2 + 0j]))

    def test_nonmember_rejected(self, interval_sym):
        with pytest.raises(OutsideDomainError):
            chart(interval_sym, np.array([1.5j]))

    def test_real_part_outside_the_body_rejected(self, interval_sym):
        # the gauges themselves refuse a real part outside the body
        z = np.array([1.5 + 0.1j])
        with pytest.raises(OutsideDomainError) as one:
            chart(interval_sym, z)
        with pytest.raises(OutsideDomainError) as rows:
            chart_rows(interval_sym, z[None])
        assert str(one.value) == str(rows.value) \
            == "point is not in the elliptic tube"

    @pytest.mark.parametrize("fixture", ["interval_sym", "unit_ball",
                                         "unit_square", "ellipsoid14"])
    def test_reconstruction_residual(self, fixture, request):
        body = request.getfixturevalue(fixture)
        tube = EllipticTube(body)
        checked = 0
        for k in range(250):
            z = tube.sample_member(substream(300, k))
            if not np.any(z.imag):
                continue
            ch = tube.chart(z) if hasattr(tube, "chart") else chart(body, z)
            assert np.linalg.norm(ch.point(ch.zeta0) - z) <= 1e-12
            checked += 1
        assert checked > 200

    def test_endpoints_on_boundary(self, unit_square, ellipsoid14):
        for body in (unit_square, ellipsoid14):
            tube = EllipticTube(body)
            for k in range(100):
                z = tube.sample_member(substream(301, k))
                if not np.any(z.imag):
                    continue
                ch = chart(body, z)
                for endpoint in (ch.x1, ch.x2):
                    # boundary residual: gauge from the anchor equals 1
                    anchor = body.interior_point()
                    assert body.gauge(anchor, endpoint - anchor) == \
                        pytest.approx(1.0, abs=1e-10)

    def test_zeta0_inside_iff_member(self, interval_sym):
        # compute zeta0 directly from the gauges on both sides of the
        # membership boundary
        body = interval_sym
        x = np.array([0.2])
        for t, expect_member in ((0.5, True), (0.95, True), (1.2, False)):
            y = t * np.array([1.0])
            p = body.gauge(x, y)
            q = body.gauge(x, -y)
            t1, t2 = 1.0 / p, 1.0 / q
            zeta0 = complex(t1 - t2, -2.0) / (t1 + t2)
            scaled = y / max(p * q, 1e-30) ** 0.5
            assert (abs(zeta0) < 1.0) == (p * q < 1.0)
            if expect_member:
                assert p * q < 1.0
            else:
                assert p * q > 1.0


class TestDiscEval:
    def test_disc_center_is_midpoint(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        z = ch.point(0.0)
        assert np.allclose(z.imag, 0.0)
        assert z[0].real == pytest.approx(0.0, abs=1e-14)

    def test_real_parameters_land_on_center(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.2 + 0.1j]))
        tube = EllipticTube(unit_ball)
        for s in np.linspace(-0.99, 0.99, 21):
            z = ch.point(s)
            assert np.allclose(z.imag, 0.0, atol=1e-15)
            assert tube.body.contains(z.real)

    def test_parameter_domain(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        with pytest.raises(OutsideDomainError):
            ch.point(1.0)
        with pytest.raises(OutsideDomainError):
            ch.point(1.0 + 0.5j)


class TestIdentityResidual:
    def test_interval_is_exact(self, interval_sym):
        residual = identity_residual(interval_sym, np.array([0.5j]), 500, 7)
        assert residual <= 1e-12

    def test_ball_example(self, unit_ball):
        z = np.array([0.3j, 0.0])
        residual = identity_residual(unit_ball, z, 1000, 11)
        assert residual <= 1e-10

    @pytest.mark.parametrize("nsamples", [0, -1])
    def test_no_samples_rejected(self, unit_ball, nsamples):
        # a residual over no samples would read 0.0, a vacuous pass
        with pytest.raises(ValueError):
            identity_residual(unit_ball, np.array([0.3j, 0.0]), nsamples, 11)

    def test_witnesses_build_each_chart_once(self, unit_ball, monkeypatch):
        # the ten witness charts come from one batched chart_rows call
        built, scalar = [], []

        def counting_rows(body, Z):
            built.append(np.array(Z))
            return chart_rows(body, Z)

        # models binds both names at import, and looks them up there
        monkeypatch.setattr(models, "chart_rows", counting_rows)
        monkeypatch.setattr(models, "chart", lambda body, z:
                            scalar.append(z) or chart(body, z))
        gaps, reconstructions = EllipticTube(unit_ball).geodesic_witnesses(
            42, 20)
        assert len(gaps) == len(reconstructions) == 10
        assert len(built) == 1 and len(built[0]) == 10 and scalar == []
        # the shared charts give the residuals identity_residual computes
        assert gaps == [identity_residual(unit_ball, z, 10, 42 + j)
                        for j, z in enumerate(built[0])]

    def test_real_zeta_trivial(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.0]))
        tube = EllipticTube(unit_ball)
        for s in (-0.7, 0.0, 0.4):
            assert tube.potential(ch.point(s)) == 0.0
            assert abs(cmath.atanh(s).imag) == 0.0


class TestNaNWitnessFails:
    def test_nan_gap_fails_the_suite(self, unit_ball, monkeypatch):
        # a NaN that is not the first gap: Python's max would drop it
        tube = EllipticTube(unit_ball)
        monkeypatch.setattr(tube, "geodesic_witnesses", lambda seed, samples:
                            ([0.0, math.nan, 1e-20], []))
        report = verify(tube, "geodesics", 42, 20, 1e-3, TOL_DEFAULTS)
        assert report["pass"] is False

    def test_nan_potential_on_a_disc_fails_the_suite(self, unit_ball,
                                                     monkeypatch):
        # a NaN potential at the second disc sample of the first chart
        potential_batch = EllipticTube.potential_batch

        def nan_at_row_one(self, Z):
            values = potential_batch(self, Z)
            values[1] = math.nan
            return values
        monkeypatch.setattr(EllipticTube, "potential_batch", nan_at_row_one)
        tube = EllipticTube(unit_ball)
        gaps, _ = tube.geodesic_witnesses(42, 20)
        assert math.isnan(gaps[0])
        report = verify(tube, "geodesics", 42, 20, 1e-3, TOL_DEFAULTS)
        assert report["pass"] is False


class TestStripEval:
    def test_real_eta_in_body(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        z = ch.strip_point(0.3)
        assert np.allclose(z.imag, 0.0)
        assert abs(z[0].real) < 1.0

    def test_height_identity(self, interval_sym):
        tube = EllipticTube(interval_sym)
        ch = chart(interval_sym, np.array([0.5j]))
        assert tube.potential(ch.strip_point(0.3j)) == pytest.approx(
            0.3, abs=1e-12)
        for k in range(200):
            rng = substream(302, k)
            eta = complex(rng.uniform(-1, 1),
                          rng.uniform(-0.95, 0.95) * QUARTER_PI)
            value = tube.potential(ch.strip_point(eta))
            assert value == pytest.approx(abs(eta.imag), abs=1e-12)

    def test_strip_boundary_rejected(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        with pytest.raises(OutsideDomainError):
            ch.strip_point(complex(0.0, QUARTER_PI))


class TestStripTubeGeodesic:
    def test_euclidean_example(self, unit_ball):
        gauge = Gauge(unit_ball)
        z = striptube_geodesic(gauge, [0.0, 0.0], [0.0, 1.0], 0.1 + 0.2j)
        assert np.allclose(z.real, [0.0, 0.1], atol=1e-15)
        assert np.allclose(z.imag, [0.0, 0.2], atol=1e-15)
        tube = StripTube(gauge)
        assert tube.potential(z) == pytest.approx(0.2, abs=1e-15)

    def test_vertical_ray(self, unit_ball):
        gauge = Gauge(unit_ball)
        tube = StripTube(gauge)
        y = np.array([0.3, -0.4])
        for t in (0.1, 0.3, 0.7):
            z = striptube_geodesic(gauge, [0.2, 0.2], y, 1j * t * QUARTER_PI)
            assert tube.potential(z) == pytest.approx(t * QUARTER_PI,
                                                      rel=1e-14)

    def test_asymmetric_gauge(self, interval_asym):
        gauge = Gauge(interval_asym)
        z = striptube_geodesic(gauge, [0.0], [-1.0], 0.3j)
        assert z[0] == pytest.approx(-0.3j, abs=1e-15)
        tube = StripTube(gauge)
        assert tube.potential(z) == pytest.approx(0.3, abs=1e-15)

    def test_height_identity_incl_asymmetric(self, unit_ball, interval_asym):
        for body in (unit_ball, interval_asym):
            gauge = Gauge(body)
            tube = StripTube(gauge)
            for k in range(200):
                rng = substream(303, k)
                d = rng.normal(size=gauge.dim)
                x = rng.uniform(-1, 1, gauge.dim)
                zeta = complex(rng.uniform(-1, 1),
                               rng.uniform(0.02, 0.98) * QUARTER_PI)
                z = striptube_geodesic(gauge, x, d, zeta)
                assert tube.potential(z) == pytest.approx(zeta.imag,
                                                          abs=1e-12)

    def test_domain_checks(self, unit_ball):
        gauge = Gauge(unit_ball)
        with pytest.raises(OutsideDomainError):
            striptube_geodesic(gauge, [0.0, 0.0], [0.0, 0.0], 0.1j)
        with pytest.raises(OutsideDomainError):
            striptube_geodesic(gauge, [0.0, 0.0], [1.0, 0.0], 0.5 - 0.1j)
        with pytest.raises(OutsideDomainError):
            striptube_geodesic(gauge, [0.0, 0.0], [1.0, 0.0],
                               complex(0.0, QUARTER_PI))


class TestDiscUpperBound:
    def test_interval_tube_example(self, interval_sym):
        tube = EllipticTube(interval_sym)
        bound = disc_upper_bound(tube, [0.5], [1.0])
        assert bound == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_striptube(self, interval_asym):
        tube = StripTube(Gauge(interval_asym))
        assert disc_upper_bound(tube, [0.0], [-1.0]) == pytest.approx(1.0)

    def test_strip_identity_disc(self):
        assert disc_upper_bound(Strip1D(), [0.0], [1.0]) == 1.0

    def test_disc_model(self):
        assert disc_upper_bound(Disc1D(), [0.5], [1.0]) == pytest.approx(
            4.0 / 3.0)

    @pytest.mark.parametrize("fixture", ["interval_sym", "unit_ball",
                                         "unit_square", "ellipsoid14"])
    def test_metric_bound_pinching(self, fixture, request):
        body = request.getfixturevalue(fixture)
        tube = EllipticTube(body)
        for k in range(150):
            rng = substream(304, k)
            x = tube.sample_center(rng)
            v = rng.normal(size=body.dim)
            if not np.any(v):
                continue
            e = tube.metric(x, v)
            f = disc_upper_bound(tube, x, v)
            assert e <= f + 1e-12
            assert f <= e + 1e-10

    @pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
    def test_zero_direction_is_the_constant_disc(self, path):
        model = model_from_spec(json.loads(path.read_text()))
        x = np.full(model.dim, 0.1)
        assert disc_upper_bound(model, x, np.zeros(model.dim)) == 0.0
