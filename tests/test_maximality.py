import math

import numpy as np
import pytest

from pshmodels import (QUARTER_PI, Competitor, Disc1D, Ellipsoid,
                       EllipticTube, Gauge, SpecError, Strip1D, StripTube,
                       chart, geodesic_pullback, interval, linear_pullback,
                       max_violation, slab_pullback, substream,
                       unit_disc_point)
from pshmodels.suites import TOL_DEFAULTS, verify


class TestSlabPullback:
    def test_interval_identity_saturates(self, interval_sym):
        tube = EllipticTube(interval_sym)
        comp = slab_pullback(interval_sym, [1.0])
        v = max_violation(tube, comp, 1000, 21)
        assert abs(v) <= 1e-13  # slab equals the body: w = u exactly

    def test_square_coordinate_slab(self, unit_square):
        tube = EllipticTube(unit_square)
        comp = slab_pullback(unit_square, [1.0, 0.0])
        assert max_violation(tube, comp, 1000, 22) <= 1e-10

    def test_ball_diagonal_slab(self, unit_ball):
        tube = EllipticTube(unit_ball)
        a = np.array([1.0, 1.0]) / math.sqrt(2.0)
        comp = slab_pullback(unit_ball, a)
        assert max_violation(tube, comp, 1000, 23) <= 1e-10

    def test_zero_direction_rejected(self, unit_ball):
        with pytest.raises(SpecError):
            slab_pullback(unit_ball, [0.0, 0.0])

    def test_vanishes_on_center_and_in_range(self, unit_square):
        comp = slab_pullback(unit_square, [0.3, -0.8])
        tube = EllipticTube(unit_square)
        for k in range(300):
            rng = substream(240, k)
            x = tube.sample_center(rng)
            assert comp.evaluate(x.astype(complex)) <= 1e-14
            z = tube.sample_member(rng)
            assert 0.0 <= comp.evaluate(z) < QUARTER_PI


class TestCompetitorClassConstraints:
    def test_linear_pullback(self, ellipsoid14):
        gauge = Gauge(ellipsoid14)
        tube = StripTube(gauge)
        comp = linear_pullback(gauge, [0.0, 2.0])
        for k in range(300):
            rng = substream(241, k)
            x = tube.sample_center(rng)
            assert comp.evaluate(x.astype(complex)) == 0.0
            z = tube.sample_member(rng)
            assert 0.0 <= comp.evaluate(z) < QUARTER_PI

    def test_geodesic_pullback(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.1 + 0.0j]))
        comp = geodesic_pullback(ch)
        for k in range(300):
            rng = substream(242, k)
            z = comp.sample(rng)
            assert 0.0 <= comp.evaluate(z) < QUARTER_PI
        # real chart parameters are center points of the tube
        for s in (-0.9, -0.2, 0.6):
            assert comp.evaluate(ch.point(s)) <= 1e-14


class TestLinearPullback:
    def test_euclidean_coordinate(self, unit_ball):
        gauge = Gauge(unit_ball)
        tube = StripTube(gauge)
        comp = linear_pullback(gauge, [1.0, 0.0])
        assert max_violation(tube, comp, 1000, 24) <= 1e-12

    def test_anisotropic_boundary_covector(self, ellipsoid14):
        gauge = Gauge(ellipsoid14)
        comp = linear_pullback(gauge, [0.0, 2.0])  # c^T Q^-1 c = 1 exactly
        tube = StripTube(gauge)
        assert max_violation(tube, comp, 1000, 25) <= 1e-12

    def test_oversized_covector_rejected(self, unit_ball):
        with pytest.raises(SpecError):
            linear_pullback(Gauge(unit_ball), [2.0, 0.0])

    def test_polytope_gauge_certification(self, interval_asym):
        gauge = Gauge(interval_asym)
        # support over the closure of (-1, 2) is max(2c, -c); c = 0.5 passes
        comp = linear_pullback(gauge, [0.5])
        tube = StripTube(gauge)
        assert max_violation(tube, comp, 500, 26) <= 1e-12
        with pytest.raises(SpecError):
            linear_pullback(gauge, [0.6])


    def test_generic_smooth_gauge_not_certified(self, zero_gradient_disc):
        with pytest.raises(SpecError, match="no certified support"):
            linear_pullback(Gauge(zero_gradient_disc), [0.5, 0.0])

    def test_generic_smooth_tube_skips_maximality(self, zero_gradient_disc):
        tube = StripTube(Gauge(zero_gradient_disc))
        report = verify(tube, "all", 42, 3, 1e-3, TOL_DEFAULTS)
        suites = {r["check"]: r for r in report["suites"]}
        assert suites["maximality"] == {
            "check": "maximality", "model": "striptube",
            "skipped": "no certified support for SmoothBody"}
        assert suites["schwarz"]["pass"] is True

class TestGeodesicPullback:
    def test_interval_equality_witness(self, interval_sym):
        tube = EllipticTube(interval_sym)
        ch = chart(interval_sym, np.array([0.5j]))
        comp = geodesic_pullback(ch)
        worst = 0.0
        for k in range(1000):
            zeta = unit_disc_point(substream(27, k))
            z = ch.point(zeta)
            worst = max(worst, abs(comp.evaluate(z) - tube.potential(z)))
        assert worst <= 1e-12

    def test_ball_equality_witness(self, unit_ball):
        tube = EllipticTube(unit_ball)
        ch = chart(unit_ball, np.array([0.3j, 0.0]))
        comp = geodesic_pullback(ch)
        assert abs(max_violation(tube, comp, 1000, 28)) <= 1e-10

    def test_real_parameter_vanishes(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        comp = geodesic_pullback(ch)
        assert comp.evaluate(ch.point(0.3)) == pytest.approx(0.0, abs=1e-15)

    def test_off_disc_rejected(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.0]))
        comp = geodesic_pullback(ch)
        with pytest.raises(ValueError):
            comp.evaluate(np.array([0.1 + 0.1j, 0.5 + 0.0j]))

    def test_off_disc_test_scales_with_the_body(self):
        # inradius 1e15: disc points pass, a point 1e-6 |z| off fails
        ball = Ellipsoid(1e-30 * np.eye(2))
        ch = chart(ball, np.array([0.3e15j, 0.1e15]))
        comp = geodesic_pullback(ch)
        assert abs(max_violation(EllipticTube(ball), comp, 200, 29)) <= 1e-10
        z = ch.point(0.2 + 0.4j)
        with pytest.raises(ValueError):
            comp.evaluate(z + 1e-6 * np.linalg.norm(z) * np.array([0, 1j]))


class TestCompare:
    def test_corrupted_competitor_detected(self, interval_sym):
        tube = EllipticTube(interval_sym)
        base = slab_pullback(interval_sym, [1.0])
        bad = Competitor(label="corrupted",
                         evaluate=lambda z: 1.01 * base.evaluate(z))
        violation = max_violation(tube, bad, 1000, 29)
        assert violation > 1e-3

    @pytest.mark.parametrize("nsamples", [0, -3])
    def test_no_samples_rejected(self, unit_ball, nsamples):
        # a maximum over no samples would be -inf, a vacuous pass
        comp = slab_pullback(unit_ball, [1.0, 0.0])
        with pytest.raises(ValueError):
            max_violation(EllipticTube(unit_ball), comp, nsamples, 30)

    def test_battery_draws_member_samples_once(self, unit_square,
                                               monkeypatch):
        # competitors without a sampler share one cached draw, with the
        # values a fresh model (a cache miss) draws for each of them
        tube = EllipticTube(unit_square)
        draw, calls = tube.sample_member, []
        monkeypatch.setattr(tube, "sample_member",
                            lambda rng: calls.append(rng) or draw(rng))
        comps = [slab_pullback(unit_square, a)
                 for a in ([0.6, 0.8], [1.0, -0.3], [0.0, 1.0])]
        worst = [max_violation(tube, comp, 200, 34) for comp in comps]
        assert len(calls) == 200
        assert worst == [max_violation(EllipticTube(unit_square), comp, 200,
                                       34) for comp in comps]

    def test_deterministic_given_seed(self, unit_square):
        tube = EllipticTube(unit_square)
        comp = slab_pullback(unit_square, [0.6, 0.8])
        v1 = max_violation(tube, comp, 200, 30)
        v2 = max_violation(tube, comp, 200, 30)
        assert v1 == v2
        v3 = max_violation(tube, comp, 200, 31)
        assert v1 != v3

    def test_strip_and_disc_competitors(self):
        strip = Strip1D()
        gauge = Gauge(interval(-1.0, 1.0))
        for c in (1.0, -1.0, 0.5):
            comp = linear_pullback(gauge, [c])
            assert max_violation(strip, comp, 500, 32) <= 1e-12
        disc = Disc1D()
        comp = slab_pullback(interval(-1.0, 1.0), [1.0])
        assert abs(max_violation(disc, comp, 500, 33)) <= 1e-12


class TestSlabMonotonicity:
    def test_narrower_slab_dominates_on_grid(self):
        # pullback through the slab (-1, 1) versus the wider (-2, 2): the
        # narrower slab gives the larger competitor where both are defined
        narrow = slab_pullback(interval(-1.0, 1.0), [1.0])
        wide = slab_pullback(interval(-2.0, 2.0), [1.0])
        for x in np.linspace(-0.7, 0.7, 15):
            for y in np.linspace(-0.6, 0.6, 13):
                z = np.array([complex(x, y)])
                if x * x + y * y >= 0.96:
                    continue
                assert narrow.evaluate(z) >= wide.evaluate(z) - 1e-14
