import cmath
import math

import numpy as np
import pytest

from pshmodels import (QUARTER_PI, Disc1D, EllipticTube, Gauge,
                       OutsideDomainError, SpecError, Strip1D, StripTube,
                       disc_upper_bound, model_from_spec, schwarz_excess,
                       substream)

STRIP = Strip1D()
DISC = Disc1D()


@pytest.fixture(scope="module")
def catalog(request):
    square = request.getfixturevalue("unit_square")
    ball = request.getfixturevalue("unit_ball")
    asym = request.getfixturevalue("interval_asym")
    return [
        STRIP,
        DISC,
        StripTube(Gauge(ball)),
        StripTube(Gauge(asym)),
        EllipticTube(square),
        EllipticTube(ball),
    ]


class TestMembership:
    def test_square_tube_example(self, unit_square):
        tube = EllipticTube(unit_square)
        z = np.array([0.0 + 0.5j, 0.0])
        (p,), (q,) = tube.body.gauge_pair(z.real[None], z.imag[None])
        assert p * q == pytest.approx(0.25, abs=1e-14)
        assert tube.member(z)

    def test_interval_tube_boundary_probe(self, interval_sym):
        tube = EllipticTube(interval_sym)
        # at x = 0, y = 1 both gauges are exactly 1: on the boundary, excluded
        z = np.array([1.0j])
        (p,), (q,) = tube.body.gauge_pair(z.real[None], z.imag[None])
        assert p * q == 1.0
        assert not tube.member(z)
        assert tube.member(np.array([0.999j]))

    def test_striptube_boundary_excluded(self, unit_ball):
        tube = StripTube(Gauge(unit_ball))
        z = np.array([0.3, -0.1]) + 1j * np.array([QUARTER_PI, 0.0])
        assert not tube.member(z)

    def test_strip_disc_membership(self):
        assert STRIP.member(0.3 + 0.2j)
        assert not STRIP.member(0.0 + QUARTER_PI * 1j)
        assert DISC.member(0.5j)
        assert not DISC.member(1.0 + 0.0j)

    def test_dimension_mismatch(self, unit_ball):
        tube = EllipticTube(unit_ball)
        with pytest.raises(ValueError):
            tube.member(np.array([0.1 + 0.1j]))


def test_scalar_error_surface(unit_ball, interval_sym):
    # (model, a point outside its domain, the refusal of potential); the
    # last real part lies outside the body, where the gauges refuse
    cases = [
        (STRIP, [1.0j], "point is not in the strip1d domain"),
        (DISC, [1.5], "point is not in the disc1d domain"),
        (StripTube(Gauge(unit_ball)), [0.0, 1.0j],
         "point is not in the striptube domain"),
        (EllipticTube(unit_ball), [0.0, 1.5j],
         "point is not in the elliptictube domain"),
        (EllipticTube(interval_sym), [1.5 + 0.1j],
         "point is not in the elliptictube domain"),
    ]
    for model, outside, message in cases:
        for method in (model.member, model.potential):
            with pytest.raises(ValueError, match="dimension mismatch"):
                method(np.zeros(model.dim + 1, dtype=complex))
            with pytest.raises(ValueError, match="non-finite"):
                method(np.full(model.dim, complex(math.nan, 0.0)))
        assert model.member(outside) is False
        with pytest.raises(OutsideDomainError) as refusal:
            model.potential(outside)
        assert str(refusal.value) == message


class TestPotential:
    def test_strip_example(self):
        assert STRIP.potential(0.3 + 0.2j) == pytest.approx(0.2, abs=1e-16)

    def test_interval_tube_example(self, interval_sym):
        tube = EllipticTube(interval_sym)
        value = tube.potential(np.array([0.5j]))
        assert value == pytest.approx(0.4636476090008061, abs=1e-15)
        assert value == pytest.approx(math.atan(0.5), abs=1e-16)

    @pytest.mark.parametrize("kind", ["strip", "disc", "striptube", "tube"])
    def test_vanishes_on_center(self, kind, unit_ball):
        if kind == "strip":
            assert STRIP.potential(0.7 + 0.0j) == 0.0
        elif kind == "disc":
            assert DISC.potential(0.7 + 0.0j) == 0.0
        elif kind == "striptube":
            tube = StripTube(Gauge(unit_ball))
            assert tube.potential(np.array([0.3, -0.4])) == 0.0
        else:
            tube = EllipticTube(unit_ball)
            assert tube.potential(np.array([0.3, -0.4])) == 0.0

    def test_interval_tube_equals_disc_model(self, interval_sym):
        tube = EllipticTube(interval_sym)
        for k in range(300):
            rng = substream(200, k)
            z = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(
                1j * rng.uniform(0, 2 * math.pi))
            gap = abs(tube.potential(np.array([z])) - abs(cmath.atanh(z).imag))
            assert gap <= 1e-13

    def test_nonmember_rejected(self, unit_ball):
        with pytest.raises(OutsideDomainError):
            STRIP.potential(0.0 + 1.0j)
        with pytest.raises(OutsideDomainError):
            EllipticTube(unit_ball).potential(np.array([2.0, 0.0]))

    def test_range_invariant(self, catalog):
        # the batched draw has the rows of the scalar sample_member loop
        for model in catalog:
            Z = model.sample_member_batch([substream(201, k)
                                           for k in range(10000)])
            for value in model.potential_batch(Z).tolist():
                assert 0.0 <= value < QUARTER_PI

    def test_center_characterization(self, catalog):
        for model in catalog:
            for k in range(100):
                rng = substream(202, k)
                x = model.sample_center(rng)
                # exactly on the center
                assert model.potential(x.astype(complex)) <= 1e-14
                # a whisker off the center: the potential must see it
                y = 1e-10 * np.ones(model.dim)
                value = model.potential(x + 1j * y)
                assert value > 1e-14


class TestMetric:
    def test_disc_example(self):
        assert DISC.metric([0.5], [1.0]) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_interval_tube_matches_disc(self, interval_sym):
        tube = EllipticTube(interval_sym)
        assert tube.metric([0.5], [1.0]) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_asymmetric_striptube(self, interval_asym):
        tube = StripTube(Gauge(interval_asym))
        assert tube.metric([0.0], [1.0]) == pytest.approx(0.5, abs=1e-15)
        assert tube.metric([0.0], [-1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_positive_homogeneity(self, catalog):
        for model in catalog:
            for k in range(50):
                rng = substream(203, k)
                x = model.sample_center(rng)
                v = rng.normal(size=model.dim)
                e = model.metric(x, v)
                for t in (0.5, 2.0, 7.0):
                    assert model.metric(x, t * v) == pytest.approx(
                        t * e, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["unit_square", "unit_ball"])
    def test_disc_bound_scales_exactly(self, fixture, request):
        # the disc is charted at v scaled by a power of two, so a v whose
        # gauges multiply past the float range has its bound too
        tube = EllipticTube(request.getfixturevalue(fixture))
        for k in range(20):
            rng = substream(205, k)
            x = tube.sample_center(rng)
            v = rng.normal(size=2)
            bound = tube.disc_bound(x, v)
            for e in (-900, -500, 500, 900):
                assert tube.disc_bound(x, np.ldexp(v, e)) == math.ldexp(
                    bound, e)

    @pytest.mark.parametrize("cls", [Strip1D, Disc1D, StripTube])
    def test_disc_bound_is_the_metric(self, cls):
        # the identity disc, its Moebius image and the flat ray realize
        # the metric exactly, so the bound is the closed form itself
        assert vars(cls)["disc_bound"] is vars(cls)["_metric"]

    def test_center_required(self, unit_ball):
        with pytest.raises(OutsideDomainError):
            EllipticTube(unit_ball).metric([1.5, 0.0], [1.0, 0.0])
        with pytest.raises(OutsideDomainError):
            DISC.metric([1.5], [1.0])

    def test_pullback_monotonicity_for_slab_embedding(self, unit_square):
        # z -> a . z maps the square tube into the slab tube; the metric of
        # the image direction never exceeds the source metric
        from pshmodels import interval
        source = EllipticTube(unit_square)
        a = np.array([1.0, 0.0])
        slab = EllipticTube(interval(-1.0, 1.0))
        for k in range(200):
            rng = substream(204, k)
            x = source.sample_center(rng)
            v = rng.normal(size=2)
            lhs = slab.metric([a @ x], [a @ v])
            rhs = source.metric(x, v)
            assert lhs <= rhs + 1e-12


class TestMetricSlope:
    def test_strip_exact(self):
        assert STRIP.metric_slope([0.0], [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_ball_tube(self, unit_ball):
        tube = EllipticTube(unit_ball)
        slope = tube.metric_slope([0.0, 0.0], [1.0, 0.0])
        assert slope == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_one_sided(self, interval_asym):
        tube = StripTube(Gauge(interval_asym))
        assert tube.metric_slope([0.0], [-1.0]) == pytest.approx(1.0, abs=1e-9)
        assert tube.metric_slope([0.0], [1.0]) == pytest.approx(0.5, abs=1e-9)

    def test_zero_direction(self, unit_ball):
        assert EllipticTube(unit_ball).metric_slope([0.1, 0.1], [0, 0]) == 0.0

    def test_ladder_shrinks_when_leaving_domain(self):
        # at v = 1000 the default ladder's largest step leaves the strip
        # and must auto-shrink; u is linear so the slope stays exact
        assert STRIP.metric_slope([0.0], [1e3]) == pytest.approx(1e3,
                                                                 rel=1e-12)

    def test_custom_ladder_near_boundary(self, interval_sym):
        # close to the body edge the metric is large; the default ladder
        # halves until the potential at its top step is at most 0.1, so
        # step * metric stays inside the expansion radius
        tube = EllipticTube(interval_sym)
        slope = tube.metric_slope([0.999], [1.0])
        assert slope == pytest.approx(tube.metric([0.999], [1.0]), rel=1e-9)

    def test_past_the_float_range_refused(self, unit_ball):
        # |v| = 1.7e308 sqrt(2) on the unit ball: the metric, its slope and
        # its disc bound all leave the float range, and each is refused
        tube = EllipticTube(unit_ball)
        for metric in (tube.metric, tube.metric_slope,
                       lambda x, v: disc_upper_bound(tube, x, v)):
            with pytest.raises(OutsideDomainError,
                               match="^metric is past the float range$"):
                metric([0.0, 0.0], [1.7e308, 1.7e308])

    def test_agreement_with_closed_form(self, catalog):
        for model in catalog:
            for k in range(150):
                rng = substream(205, k)
                x = model.sample_center(rng)
                v = rng.normal(size=model.dim)
                if not np.any(v):
                    continue
                fd = model.metric_slope(x, v)
                assert abs(fd - model.metric(x, v)) <= 1e-6


class TestConjugationSymmetry:
    def test_conjugate_is_involution(self):
        from pshmodels import conjugate
        z = np.array([0.3 + 0.4j, -0.1 - 0.2j])
        assert np.array_equal(conjugate(conjugate(z)), z)
        assert np.array_equal(conjugate(z).real, z.real)
        assert np.array_equal(conjugate(z).imag, -z.imag)

    def test_potential_symmetric_under_conjugation(self, unit_ball,
                                                    unit_square):
        # elliptic tubes always; strip tubes when the gauge is symmetric
        from pshmodels import conjugate
        models = [EllipticTube(unit_ball), EllipticTube(unit_square),
                  StripTube(Gauge(unit_ball))]
        for model in models:
            for k in range(200):
                z = model.sample_member(substream(210, k))
                assert model.potential(z) == model.potential(conjugate(z))


class TestDiscStripTransport:
    def test_potentials_agree_through_atanh(self):
        for k in range(500):
            rng = substream(206, k)
            z = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(
                1j * rng.uniform(0, 2 * math.pi))
            w = cmath.atanh(z)
            assert abs(DISC.potential(z) - STRIP.potential(w)) <= 1e-14


class TestSchwarzExcess:
    def test_extremal_equality_case(self):
        a = r = QUARTER_PI
        samples = []
        for k in range(200):
            rng = substream(207, k)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.05, 0.95) * r)
            samples.append((z, (a / r) * z.imag))
        report = schwarz_excess(samples, a, r)
        assert report.max_excess == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_below_bound(self):
        samples = []
        for k in range(200):
            rng = substream(208, k)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.05, 0.95))
            samples.append((z, z.imag ** 2))
        report = schwarz_excess(samples, 1.0, 1.0)
        assert report.max_excess < 0.0

    def test_holomorphic_pullback_samples(self):
        # g maps the strip into itself, fixing the real axis: u(g(z)) <= Im z
        a = r = QUARTER_PI

        def g(z):
            return 0.3 * z + 0.1

        samples = []
        for k in range(200):
            rng = substream(209, k)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.05, 0.95) * r)
            samples.append((z, STRIP.potential(g(z))))
        report = schwarz_excess(samples, a, r)
        assert report.max_excess <= 0.0

    def test_preconditions(self):
        with pytest.raises(OutsideDomainError):
            schwarz_excess([(1.0 - 0.5j, 0.1)], 1.0, 1.0)
        with pytest.raises(ValueError):
            schwarz_excess([(0.5j, 2.0)], 1.0, 1.0)
        with pytest.raises(ValueError):
            schwarz_excess([], 1.0, 1.0)

    def test_first_bad_sample_decides_the_error(self):
        # a point is tested before its value, and the first bad sample
        # decides which error is raised
        bad_value, off_strip = (0.5j, 2.0), (1.0 - 0.5j, 0.1)
        with pytest.raises(ValueError) as caught:
            schwarz_excess([bad_value, off_strip], 1.0, 1.0)
        assert not isinstance(caught.value, OutsideDomainError)
        with pytest.raises(OutsideDomainError):
            schwarz_excess([off_strip, bad_value], 1.0, 1.0)
        with pytest.raises(OutsideDomainError):
            schwarz_excess([(1.0 - 0.5j, 2.0)], 1.0, 1.0)

    def test_tied_excess_reports_the_first_point(self):
        samples = [(0.2 + 0.75j, 0.0), (0.1 + 0.5j, 0.2), (0.3 + 0.5j, 0.2),
                   (0.4 + 0.5j, 0.1)]
        report = schwarz_excess(iter(samples), 1.0, 1.0)
        assert report.max_excess == 0.2 - 0.5
        assert report.worst_point == 0.1 + 0.5j
        assert report.count == 4


class TestModelSpec:
    def test_all_kinds(self):
        assert isinstance(model_from_spec({"model": "strip1d"}), Strip1D)
        assert isinstance(model_from_spec({"model": "disc1d"}), Disc1D)
        body = {"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 1.0]]}
        assert isinstance(
            model_from_spec({"model": "striptube", "body": body}), StripTube)
        assert isinstance(
            model_from_spec({"model": "elliptictube", "body": body}),
            EllipticTube)

    def test_tube_requires_body(self):
        with pytest.raises(SpecError):
            model_from_spec({"model": "striptube"})

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            model_from_spec({"model": "polydisc"})
