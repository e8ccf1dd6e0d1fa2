import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pshmodels import maximality
from pshmodels import (QUARTER_PI, Competitor, Disc1D, Ellipsoid,
                       EllipticTube, Gauge, Polytope, SpecError, Strip1D,
                       StripTube, Superellipse, chart, geodesic_pullback,
                       interval, linear_pullback, max_violation,
                       model_from_spec, slab_pullback, substream,
                       unit_disc_point, unit_vector)
from pshmodels.errors import NotApplicable
from pshmodels.geodesics import disc_points
from pshmodels.maximality import violations
from pshmodels.suites import TOL_DEFAULTS, verify

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))


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
            assert comp.evaluate(x.astype(complex)[None])[0] <= 1e-14
            z = tube.sample_member(rng)
            assert 0.0 <= comp.evaluate(z[None])[0] < QUARTER_PI


class TestCompetitorClassConstraints:
    def test_linear_pullback(self, ellipsoid14):
        gauge = Gauge(ellipsoid14)
        tube = StripTube(gauge)
        comp = linear_pullback(gauge, [0.0, 2.0])
        for k in range(300):
            rng = substream(241, k)
            x = tube.sample_center(rng)
            assert comp.evaluate(x.astype(complex)[None])[0] == 0.0
            z = tube.sample_member(rng)
            assert 0.0 <= comp.evaluate(z[None])[0] < QUARTER_PI

    def test_geodesic_pullback(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.1 + 0.0j]))
        comp = geodesic_pullback(ch)
        for k in range(300):
            rng = substream(242, k)
            z = comp.chart.point(unit_disc_point(rng))
            assert 0.0 <= comp.evaluate(z[None])[0] < QUARTER_PI
        # real chart parameters are center points of the tube
        for s in (-0.9, -0.2, 0.6):
            assert comp.evaluate(ch.point(s)[None])[0] <= 1e-14


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

    def test_faulty_support_is_not_skipped(self):
        # a support formula of the wrong sign makes every slab degenerate:
        # a fault of the body, not a suite that does not apply, so "all"
        # refuses as the suite run alone does
        class Flipped(Polytope):
            def _supports(self, A):
                return -super()._supports(A)

        tube = EllipticTube(Flipped([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                    [1, 1, 1, 1]))
        for suite in ("all", "maximality"):
            with pytest.raises(SpecError, match="^degenerate slab$") as info:
                verify(tube, suite, 42, 3, 1e-3, TOL_DEFAULTS)
            assert not isinstance(info.value, NotApplicable)

    def test_applicability_refusals(self, unit_square, zero_gradient_disc):
        # the three refusals "all" lists as skipped: a polytope body, no
        # elliptic tube, no certified support
        refusals = [
            lambda: verify(EllipticTube(unit_square), "psh", 42, 3, 1e-3,
                           TOL_DEFAULTS),
            lambda: verify(Strip1D(), "tube-levi", 42, 3, 1e-3,
                           TOL_DEFAULTS),
            lambda: zero_gradient_disc.support([1.0, 0.0])]
        for refusal in refusals:
            with pytest.raises(NotApplicable):
                refusal()

class TestGeodesicPullback:
    def test_interval_equality_witness(self, interval_sym):
        tube = EllipticTube(interval_sym)
        ch = chart(interval_sym, np.array([0.5j]))
        comp = geodesic_pullback(ch)
        worst = 0.0
        for k in range(1000):
            zeta = unit_disc_point(substream(27, k))
            z = ch.point(zeta)
            worst = max(worst, abs(comp.evaluate(z[None])[0]
                                   - tube.potential(z)))
        assert worst <= 1e-12

    def test_ball_equality_witness(self, unit_ball):
        tube = EllipticTube(unit_ball)
        ch = chart(unit_ball, np.array([0.3j, 0.0]))
        comp = geodesic_pullback(ch)
        assert abs(max_violation(tube, comp, 1000, 28)) <= 1e-10

    def test_real_parameter_vanishes(self, interval_sym):
        ch = chart(interval_sym, np.array([0.5j]))
        comp = geodesic_pullback(ch)
        assert comp.evaluate(ch.point(0.3)[None])[0] == pytest.approx(
            0.0, abs=1e-15)

    def test_off_disc_rejected(self, unit_ball):
        ch = chart(unit_ball, np.array([0.3j, 0.0]))
        comp = geodesic_pullback(ch)
        with pytest.raises(ValueError):
            comp.evaluate(np.array([[0.1 + 0.1j, 0.5 + 0.0j]]))

    def test_off_disc_test_scales_with_the_body(self):
        # inradius 1e15: disc points pass, a point 1e-6 |z| off fails
        ball = Ellipsoid(1e-30 * np.eye(2))
        ch = chart(ball, np.array([0.3e15j, 0.1e15]))
        comp = geodesic_pullback(ch)
        assert abs(max_violation(EllipticTube(ball), comp, 200, 29)) <= 1e-10
        z = ch.point(0.2 + 0.4j)
        off = z + 1e-6 * np.linalg.norm(z) * np.array([0, 1j])
        with pytest.raises(ValueError):
            comp.evaluate(off[None])


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
        # competitors off a disc share one cached draw, with the values a
        # fresh model (a cache miss) draws for each of them; calls holds
        # the rows the batched sampler draws
        tube = EllipticTube(unit_square)
        draw, calls = tube.sample_member_batch, []
        monkeypatch.setattr(tube, "sample_member_batch",
                            lambda rngs: calls.extend(rngs) or draw(rngs))
        comps = [slab_pullback(unit_square, a)
                 for a in ([0.6, 0.8], [1.0, -0.3], [0.0, 1.0])]
        worst = [max_violation(tube, comp, 200, 34) for comp in comps]
        assert len(calls) == 200
        assert worst == [max_violation(EllipticTube(unit_square), comp, 200,
                                       34) for comp in comps]

    def test_battery_draws_each_disc_parameter_once(self, unit_ball,
                                                    monkeypatch):
        # the geodesic-disc competitors map one cached draw of N disc
        # parameters through their own charts; each used to draw its own
        # N, so a battery of four made 4 N draws of N distinct values
        draw, rows = maximality.unit_disc_points, []
        monkeypatch.setattr(maximality, "unit_disc_points",
                            lambda rngs: rows.extend(rngs) or draw(rngs))
        tube = EllipticTube(unit_ball)
        comps = tube.competitors(42)
        assert sum(comp.chart is not None for comp in comps) == 4
        assert verify(tube, "maximality", 42, 25, 1e-3, TOL_DEFAULTS)["pass"]
        assert len(rows) == 25

    @pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.stem)
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    def test_battery_is_max_violation_of_each_competitor(self, spec, seed):
        # the disc images of a battery come from one potential call, the
        # reference one call per competitor; in reverse order, the disc
        # competitors come first
        model = model_from_spec(json.loads(spec.read_text()))
        comps = model.competitors(seed)
        for battery in (comps, comps[::-1]):
            want = [max_violation(model, comp, 25, seed) for comp in battery]
            got = violations(model, battery, 25, seed)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_battery_evaluates_each_competitor_once_on_its_rows(self,
                                                                unit_ball):
        tube = EllipticTube(unit_ball)
        comps = tube.competitors(5)
        seen = []
        for comp in comps:
            comp.evaluate = (lambda f, label: lambda Z: seen.append(
                (label, Z.copy())) or f(Z))(comp.evaluate, comp.label)
        violations(tube, comps, 30, 5)
        assert [label for label, _ in seen] == [c.label for c in comps]
        zetas = maximality.disc_samples(tube, 30, 5)
        for comp, (_, Z) in zip(comps, seen):
            want = (maximality.member_samples(tube, 30, 5)[0]
                    if comp.chart is None
                    else disc_points(comp.chart.x1, comp.chart.x2, zetas))
            assert Z.tobytes() == want.tobytes()

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


def _slab_row(a, alpha, beta, z):
    """The former one-point slab competitor."""
    s = complex(np.dot(a, np.asarray(z, dtype=complex)))
    phi = (2.0 * s - (alpha + beta)) / (beta - alpha)
    return abs(cmath.atanh(phi).imag)


def _linear_row(c, z):
    """The former one-point linear competitor."""
    return abs(float(np.dot(c, np.asarray(z, dtype=complex).imag)))


def _geodesic_row(ch, z):
    """The former one-point geodesic-disc competitor."""
    center = 0.5 * (ch.x1 + ch.x2)
    half = 0.5 * (ch.x2 - ch.x1)
    zeta = complex(np.dot(half, z - center)) / float(half @ half)
    return abs(cmath.atanh(zeta).imag)


class TestBatchedCompetitors:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_the_one_point_formulas(self, dim):
        # bit for bit: maximality reports rest on these values
        Q = np.diag([1.0, 4.0, 0.25][:dim])
        body = Ellipsoid(Q)
        tube = EllipticTube(body)
        Z = tube.sample_member_batch([substream(250 + dim, k)
                                      for k in range(400)])
        for j in range(4):
            a = unit_vector(substream(251, j), dim)
            comp = slab_pullback(body, a)
            beta, alpha = body.support(a), -body.support(-a)
            assert comp.evaluate(Z).tolist() == \
                [_slab_row(a, alpha, beta, z) for z in Z]
            c = (Q @ a) / math.sqrt(a @ Q @ a)
            comp = linear_pullback(Gauge(body), c)
            assert comp.evaluate(Z).tolist() == [_linear_row(c, z) for z in Z]
            ch = chart(body, Z[j])
            comp = geodesic_pullback(ch)
            zetas = [unit_disc_point(substream(252, k)) for k in range(400)]
            P = disc_points(ch.x1, ch.x2, zetas)
            assert comp.evaluate(P).tolist() == \
                [_geodesic_row(ch, z) for z in P]


class TestBatchCertifiedCompetitors:
    @pytest.mark.parametrize("body", [
        Ellipsoid(np.diag([1.0, 4.0])),
        Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                 [1, 2, 0.5, 1, 1.2]),
        Superellipse([1.0, 0.7], 4)], ids=["ellipsoid", "polytope",
                                           "superellipse"])
    def test_batteries_equal_the_one_direction_factories(self, body):
        # the same labels and values as slab_pullback and linear_pullback
        # with their own support calls, row by row
        D = np.array([unit_vector(substream(253, j), 2) for j in range(8)])
        Z = StripTube(Gauge(body)).sample_member_batch(
            [substream(254, k) for k in range(50)])
        Z *= 0.5 * body.inradius()  # inside the elliptic tube too
        reach = np.array([max(body.support(d), body.support(-d)) for d in D])
        C = D / reach[:, None]
        for batch, one in (
                (maximality.slab_pullbacks(body, D),
                 [slab_pullback(body, d) for d in D]),
                (maximality.linear_pullbacks(Gauge(body), C),
                 [linear_pullback(Gauge(body), c) for c in C])):
            assert [c.label for c in batch] == [c.label for c in one]
            for b, o in zip(batch, one):
                assert b.evaluate(Z).tobytes() == o.evaluate(Z).tobytes()

    def test_batch_certificate_refuses_a_long_covector(self, unit_square):
        gauge = Gauge(unit_square)
        with pytest.raises(SpecError, match="exceeds the gauge"):
            maximality.linear_pullbacks(gauge, [[0.5, 0.0], [0.6, 0.6]])


class TestNaNFails:
    def test_nan_row_of_a_competitor_fails_maximality(self, unit_square,
                                                      monkeypatch):
        # one NaN row in a competitor that is not the battery's first,
        # where Python's max would drop it at both levels
        tube = EllipticTube(unit_square)
        comps = tube.competitors(42)
        base = comps[3]

        def evaluate(Z):
            values = base.evaluate(Z)
            values[1] = math.nan
            return values
        comps[3] = Competitor(label="nan-row", evaluate=evaluate)
        monkeypatch.setattr(tube, "competitors", lambda seed: comps)
        assert math.isnan(max_violation(tube, comps[3], 25, 42))
        report = verify(tube, "maximality", 42, 25, 1e-3, TOL_DEFAULTS)
        assert report["pass"] is False


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
                assert (narrow.evaluate(z[None])[0]
                        >= wide.evaluate(z[None])[0] - 1e-14)
