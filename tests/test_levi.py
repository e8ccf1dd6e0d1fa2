import math

import numpy as np
import pytest

from pshmodels import (Ellipsoid, EllipticTube, Gauge, OutsideDomainError,
                       Strip1D, Disc1D, StripTube, check_monge_ampere,
                       check_plurisubharmonic, gauge_identity_residuals,
                       levi_line, levi_matrix, member_samples,
                       metric_levi_pair, substream, tube_levi_residual)
from pshmodels import levi, suites
from pshmodels.suites import TOL_DEFAULTS, verify

INTERVAL_1D = Ellipsoid([[1.0]])  # the interval (-1, 1) with a C2 boundary


def sq_norm_field(z):
    return float(np.sum(np.abs(z) ** 2))


class CorruptedModel:
    """Wraps a model, perturbing its potential; for counter-tests."""

    def __init__(self, base, perturb):
        self._base = base
        self._perturb = perturb
        self.name = base.name + "+corrupted"
        self.dim = base.dim

    def potential(self, z):
        return self._base.potential(z) + self._perturb(np.asarray(z))

    def potential_batch(self, Z):
        return np.array([self.potential(z) for z in Z], dtype=float)

    def sample_fd_safe(self, rng, h):
        return self._base.sample_fd_safe(rng, h)


class QuadraticModel:
    """Strictly plurisubharmonic field on a box; fails degeneracy checks."""

    name = "quadratic"
    dim = 2

    def potential(self, z):
        return sq_norm_field(z)

    def potential_batch(self, Z):
        return np.array([self.potential(z) for z in Z], dtype=float)

    def sample_fd_safe(self, rng, h):
        return rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)


class TestLeviLine:
    def test_squared_modulus(self):
        for z in (0.1 + 0.2j, -0.4 + 0.9j):
            value = levi_line(sq_norm_field, [z], [1.0], 1e-3)
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_strip_potential_harmonic_off_center(self):
        strip = Strip1D()
        value = levi_line(strip.potential, [0.1j], [1.0], 1e-3)
        assert abs(value) <= 1e-10

    def test_imag_square_exact_for_all_h(self):
        # stencil reproduces constant Laplacians for any h, up to the
        # cancellation floor ~eps/h^2
        field = lambda z: float(z[0].imag ** 2)
        for h in (0.5, 1e-1, 1e-3, 1e-5):
            floor = max(1e-12, 1e-15 / h ** 2)
            assert levi_line(field, [0.3 + 0.1j], [1.0], h) == pytest.approx(
                0.5, abs=floor)

    def test_direction_scaling(self):
        # the form is quadratic in the direction
        v1 = levi_line(sq_norm_field, [0.1j, 0.0], [1.0, 0.0], 1e-3)
        v2 = levi_line(sq_norm_field, [0.1j, 0.0], [2.0, 0.0], 1e-3)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-8)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            levi_line(sq_norm_field, [0.0j], [1.0], 0.0)


class TestLeviMatrix:
    def test_identity_for_squared_norm(self):
        rep = levi_matrix(sq_norm_field, [0.2 + 0.1j, -0.3 + 0.4j], 1e-3)
        assert np.max(np.abs(rep.matrix - np.eye(2))) <= 1e-9
        assert rep.min_eig == pytest.approx(1.0, abs=1e-9)
        assert rep.max_eig == pytest.approx(1.0, abs=1e-9)
        assert rep.det_abs == pytest.approx(1.0, abs=1e-8)

    def test_complex_entries(self):
        # |z1 + i z2|^2 has Levi matrix [[1, -i], [i, 1]], eigenvalues {0, 2}
        field = lambda z: abs(z[0] + 1j * z[1]) ** 2
        rep = levi_matrix(field, [0.3 + 0.1j, -0.2 + 0.4j], 1e-3)
        expected = np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.max(np.abs(rep.matrix - expected)) <= 1e-9
        assert rep.min_eig == pytest.approx(0.0, abs=1e-9)
        assert rep.max_eig == pytest.approx(2.0, abs=1e-9)

    def test_hermitian_and_real_eigs(self, unit_ball):
        tube = EllipticTube(unit_ball)
        z = tube.sample_fd_safe(substream(400, 0), 1e-3)
        rep = levi_matrix(tube.potential, z, 1e-3)
        assert np.max(np.abs(rep.matrix - rep.matrix.conj().T)) <= 1e-12

    def test_striptube_matrix_matches_gauge_hessian(self, ellipsoid14):
        # the potential is x-independent, so its Levi matrix is a quarter
        # of the gauge Hessian at y
        gauge = Gauge(ellipsoid14)
        tube = StripTube(gauge)
        z = tube.sample_fd_safe(substream(401, 0), 1e-3)
        rep = levi_matrix(tube.potential, z, 1e-3)
        target = 0.25 * gauge.hessian(z.imag)
        assert np.max(np.abs(rep.matrix - target)) <= 1e-6

    def test_convergence_order_on_smooth_field(self):
        # u = (sum |z_i|^2)^2 has Levi matrix 2(S I + z conj(z)^T)
        field = lambda z: float(np.sum(np.abs(z) ** 2) ** 2)
        z = np.array([0.3 + 0.2j, -0.1 + 0.5j])
        S = float(np.sum(np.abs(z) ** 2))
        exact = 2.0 * (S * np.eye(2) + np.outer(np.conj(z), z))
        res = {}
        for h in (2e-2, 1e-2):
            res[h] = np.max(np.abs(levi_matrix(field, z, h).matrix - exact))
        assert 3.5 <= res[2e-2] / res[1e-2] <= 4.5


class TestPlurisubharmonicity:
    def test_strip1d(self):
        report = check_plurisubharmonic(Strip1D(), 100, 1, tol=1e-6)
        assert report.passed

    def test_disc1d(self):
        report = check_plurisubharmonic(Disc1D(), 100, 2, tol=1e-6)
        assert report.passed

    def test_ball_tube(self, unit_ball):
        report = check_plurisubharmonic(EllipticTube(unit_ball), 100, 3)
        assert report.passed
        assert report.worst_value >= -1e-6

    def test_striptube(self, ellipsoid14):
        report = check_plurisubharmonic(StripTube(Gauge(ellipsoid14)), 100, 4)
        assert report.passed

    def test_corrupted_field_fails(self, unit_ball):
        bad = CorruptedModel(EllipticTube(unit_ball),
                             lambda z: -0.1 * float(np.sum(z.imag ** 2)))
        report = check_plurisubharmonic(bad, 100, 5)
        assert not report.passed
        assert report.worst_value < -1e-3


class TestMongeAmpereDegeneracy:
    def test_ball_tube(self, unit_ball):
        report = check_monge_ampere(EllipticTube(unit_ball), 100, 6)
        assert report.passed
        assert report.worst_value <= 1e-4

    def test_ellipsoid_tube(self, ellipsoid14):
        report = check_monge_ampere(EllipticTube(ellipsoid14), 100, 7)
        assert report.passed

    def test_striptube(self, ellipsoid14):
        report = check_monge_ampere(StripTube(Gauge(ellipsoid14)), 100, 8)
        assert report.passed

    def test_disc1d_degenerate_in_dim_one(self):
        report = check_monge_ampere(Disc1D(), 100, 9)
        assert report.passed

    def test_strictly_psh_field_fails(self):
        report = check_monge_ampere(QuadraticModel(), 50, 10)
        assert not report.passed
        assert report.worst_value == pytest.approx(1.0, abs=1e-6)


class TestDrawOnce:
    def test_suites_share_their_draws(self, unit_ball, monkeypatch):
        # psh and ma read one draw of N samples and one levi_matrices
        # call; tube-levi and gauge-derivatives one draw of 20 at 2h
        tube = EllipticTube(unit_ball)
        draw, steps, fields = tube.sample_fd_safe, [], []
        monkeypatch.setattr(tube, "sample_fd_safe",
                            lambda rng, h: steps.append(h) or draw(rng, h))
        matrices = levi.levi_matrices
        monkeypatch.setattr(levi, "levi_matrices", lambda field, Z, h:
                            fields.append(field) or matrices(field, Z, h))
        report = verify(tube, "all", 11, 30, 1e-3, TOL_DEFAULTS)
        assert report["pass"]
        assert len(steps) == 30 + 20
        assert steps.count(1e-3) == 30 and steps.count(2e-3) == 20
        assert fields.count(tube.potential_batch) == 1

    def test_cached_draws_are_read_only(self, unit_ball):
        tube = EllipticTube(unit_ball)
        points, values = member_samples(tube, 3, 12)
        assert member_samples(tube, 3, 12)[0] is points
        for a in (*levi._sampled_eigs(tube, 3, 12, 1e-3), points, values,
                  suites._richardson_points(tube, 12, 1e-3)):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestTubeLevi:
    def test_ball_richardson_ratio(self, unit_ball):
        z = np.array([0.1 + 0.2j, 0.0 + 0.1j])
        res = {h: tube_levi_residual(unit_ball, z, h) for h in (2e-3, 1e-3)}
        assert res[1e-3] <= 1e-4
        assert 3.5 <= res[2e-3] / res[1e-3] <= 4.5

    def test_interval_one_dimensional(self):
        # potential is harmonic off the center and the 1-D gauge is linear
        # in y, so both sides nearly vanish
        z = np.array([0.5j])
        res = tube_levi_residual(INTERVAL_1D, z, 1e-3)
        assert res <= 1e-6
        res2 = tube_levi_residual(INTERVAL_1D, z, 2e-3)
        assert 3.5 <= res2 / res <= 4.5

    def test_center_rejected(self, unit_ball):
        with pytest.raises(OutsideDomainError):
            tube_levi_residual(unit_ball, np.array([0.1 + 0j, 0.0 + 0j]), 1e-3)

    def test_polytope_rejected(self, unit_square):
        with pytest.raises(ValueError):
            tube_levi_residual(unit_square, np.array([0.1j, 0.0]), 1e-3)


class TestGaugeDerivativeIdentities:
    def test_unit_ball_at_origin(self, unit_ball):
        r = gauge_identity_residuals(unit_ball, [0.0, 0.0], [0.3, 0.4], 1e-3)
        assert max(r) <= 1e-5

    def test_ellipsoid_richardson_ratio(self, ellipsoid14):
        x = np.array([0.2, -0.1])
        y = np.array([0.3, 0.25])
        r_2h = gauge_identity_residuals(ellipsoid14, x, y, 2e-3)
        r_h = gauge_identity_residuals(ellipsoid14, x, y, 1e-3)
        for a, b in zip(r_2h, r_h):
            assert b <= 1e-4
            assert 3.3 <= a / b <= 4.7

    def test_scaling_in_y(self, ellipsoid14):
        # doubling y doubles the gauge; identities stay satisfied
        x = np.array([0.1, 0.05])
        y = np.array([0.2, 0.15])
        assert ellipsoid14.gauge(x, 2 * y) == pytest.approx(
            2 * ellipsoid14.gauge(x, y), rel=1e-14)
        r = gauge_identity_residuals(ellipsoid14, x, 2 * y, 1e-3)
        assert max(r) <= 1e-4

    def test_polytope_rejected(self, unit_square):
        with pytest.raises(ValueError):
            gauge_identity_residuals(unit_square, [0, 0], [1, 0], 1e-3)

    def test_center_direction_rejected(self, unit_ball):
        with pytest.raises(OutsideDomainError):
            gauge_identity_residuals(unit_ball, [0, 0], [0, 0], 1e-3)


class TestMetricFromSquaredPotential:
    def test_euclidean_gauge(self, unit_ball):
        tube = StripTube(Gauge(unit_ball))
        fd, closed = metric_levi_pair(tube, [0.0, 0.0], [1.0, 0.0])
        assert fd == pytest.approx(1.0, abs=1e-8)
        assert closed == pytest.approx(1.0, abs=1e-15)

    def test_anisotropic_gauge(self, ellipsoid14):
        tube = StripTube(Gauge(ellipsoid14))
        fd, closed = metric_levi_pair(tube, [0.3, -0.2], [0.0, 1.0])
        assert fd == pytest.approx(2.0, abs=1e-8)
        assert closed == pytest.approx(2.0, abs=1e-15)

    def test_zero_direction(self, unit_ball):
        tube = StripTube(Gauge(unit_ball))
        assert metric_levi_pair(tube, [0.0, 0.0], [0.0, 0.0]) == (0.0, 0.0)

    def test_equals_the_second_difference_along_i_v(self, ellipsoid14):
        # the Levi form's real-direction points lie on the center, where
        # the squared potential is 0, so levi_line reduces to the 3-point
        # second difference of t -> u(x + i t v)^2, bit for bit
        tube = StripTube(Gauge(ellipsoid14))
        h = 1e-4
        for k in range(20):
            rng = substream(31, k)
            x, v = rng.normal(size=2), rng.normal(size=2)

            def g(t):
                return tube.potential(x + 1j * t * v) ** 2

            second = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
            assert metric_levi_pair(tube, x, v, h)[0] == \
                math.sqrt(max(0.5 * second, 0.0))

    def test_polytope_gauge_rejected(self, unit_square):
        tube = StripTube(Gauge(unit_square))
        with pytest.raises(ValueError):
            metric_levi_pair(tube, [0.0, 0.0], [1.0, 0.0])

    def test_elliptic_tube_rejected(self, unit_ball):
        with pytest.raises(TypeError):
            metric_levi_pair(EllipticTube(unit_ball), [0, 0], [1, 0])
