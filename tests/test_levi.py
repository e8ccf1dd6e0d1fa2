import math

import numpy as np
import pytest

from pshmodels import (Ellipsoid, EllipticTube, Gauge, OutsideDomainError,
                       Strip1D, Disc1D, StripTube, check_monge_ampere,
                       check_plurisubharmonic, gauge_identity_residuals,
                       Model, levi_line, levi_matrices, levi_matrix,
                       member_samples,
                       metric_levi_pair, substream, tube_levi_residual,
                       tube_levi_residual_batch)
from pshmodels import levi, suites
from pshmodels.maximality import disc_samples
from pshmodels.stencils import (central_differences, pair_directions,
                                second_differences)
from pshmodels.suites import TOL_DEFAULTS, point_to_list, verify

INTERVAL_1D = Ellipsoid([[1.0]])  # the interval (-1, 1) with a C2 boundary


def sq_norm_field(z):
    return float(np.sum(np.abs(z) ** 2))


class CorruptedModel(Model):
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

    def sample_fd_safe_batch(self, rngs, h):
        return self._base.sample_fd_safe_batch(rngs, h)


class QuadraticModel(Model):
    """Strictly plurisubharmonic field on a box; fails degeneracy checks."""

    name = "quadratic"
    dim = 2

    def potential(self, z):
        return sq_norm_field(z)

    def potential_batch(self, Z):
        return np.array([self.potential(z) for z in Z], dtype=float)

    def sample_fd_safe_batch(self, rngs, h):
        return np.array([rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
                         for rng in rngs])


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_rows(self, n):
        # the pair count is sized explicitly, so 0 rows reshape too
        A = levi_matrices(lambda Z: np.zeros(len(Z)),
                          np.empty((0, n), dtype=complex), 1e-3)
        assert A.shape == (0, n, n)


def levi_from_real_hessian(H, n):
    """(1/4) [(H_xx + H_yy) + i (H_xy - H_yx)]: the Levi matrix of a field
    whose Hessian in the 2n real coordinates (Re z, Im z) is H."""
    return 0.25 * ((H[:, :n, :n] + H[:, n:, n:])
                   + 1j * (H[:, :n, n:] - H[:, n:, :n]))


class TestOneStencil:
    """levi_matrices and central_differences read one stencil; each must
    give the Levi matrix the other's Hessian implies."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_readers_agree_on_a_quadratic(self, n):
        # a generic real quadratic in (Re z, Im z): every Hessian entry and
        # every Levi entry differs, so a wrong phase or pair order in
        # either reader moves some entry far beyond the rounding error
        rng = np.random.default_rng(900 + n)
        S = rng.standard_normal((2 * n, 2 * n))
        S = S + S.T
        c = rng.standard_normal(2 * n)

        def quadratic(W):
            return np.einsum("ij,jk,ik->i", W, S, W) + W @ c
        Z = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        W, h = np.hstack([Z.real, Z.imag]), 1e-2
        A = levi.levi_matrices(
            lambda Z: quadratic(np.hstack([Z.real, Z.imag])), Z, h)
        H = central_differences(quadratic, W, h)[2]
        assert np.max(np.abs(H - 2.0 * S)) <= 1e-8
        assert np.max(np.abs(A - levi_from_real_hessian(H, n))) <= 1e-8
        exact = levi_from_real_hessian(np.broadcast_to(2.0 * S, H.shape), n)
        assert np.max(np.abs(A - exact)) <= 1e-8

    def test_readers_agree_on_the_ball_tube_potential(self, unit_ball):
        # both difference quotients are O(h^2) from the true derivatives;
        # they read the same points, so they agree far closer than that
        tube, h = EllipticTube(unit_ball), 1e-3
        Z = tube.sample_fd_safe_batch([substream(902, k) for k in range(20)],
                                      h)
        A = levi.levi_matrices(tube.potential_batch, Z, h)
        H = central_differences(
            lambda W: tube.potential_batch(W[:, :2] + 1j * W[:, 2:]),
            np.hstack([Z.real, Z.imag]), h)[2]
        assert np.max(np.abs(A)) > 0.1
        assert np.max(np.abs(A - levi_from_real_hessian(H, 2))) <= h * h

    def test_one_field_call_on_every_point(self):
        # the N rows, then w + h d and w - h d of each row, in one call
        calls = []

        def field(P):
            calls.append(P.copy())
            return P[:, 0] + 2.0 * P[:, 1]
        W = np.array([[0.0, 1.0], [2.0, 3.0]])
        D = np.array([[1.0, 0.0], [1.0, -1.0], [0.0, 2.0]])
        f0, plus, minus = second_differences(field, W, D, 0.5)
        assert len(calls) == 1 and calls[0].shape == (2 + 2 * 2 * 3, 2)
        np.testing.assert_array_equal(f0, field(W))
        np.testing.assert_array_equal(plus, [field(w + 0.5 * D) for w in W])
        np.testing.assert_array_equal(minus, [field(w - 0.5 * D) for w in W])

    def test_pair_directions_are_cached_and_read_only(self):
        D, rows, cols = pair_directions(3, (1, -1, 1j, -1j))
        assert pair_directions(3, (1, -1, 1j, -1j))[0] is D
        e = np.eye(3)
        pairs = [(0, 1), (0, 2), (1, 2)]
        expected = [e[0], e[1], e[2]] + [e[a] + s * e[b] for s in
                                         (1, -1, 1j, -1j) for a, b in pairs]
        np.testing.assert_array_equal(D, expected)
        assert list(zip(rows, cols)) == [(0, 0), (1, 1), (2, 2)] + pairs
        for array in (D, rows, cols):
            assert not array.flags.writeable
        assert pair_directions(2, (1, -1))[0].dtype == float


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
        # call; tube-levi and gauge-derivatives one draw of 20 at 2h;
        # steps holds the step of each row the batched sampler draws
        tube = EllipticTube(unit_ball)
        draw, steps, fields = tube.sample_fd_safe_batch, [], []
        monkeypatch.setattr(tube, "sample_fd_safe_batch", lambda rngs, h:
                            steps.extend([h] * len(rngs)) or draw(rngs, h))
        matrices = suites.levi_matrices
        monkeypatch.setattr(suites, "levi_matrices", lambda field, Z, h:
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
        for a in (*suites._sampled_eigs(tube, 3, 12, 1e-3), points, values,
                  suites._richardson_points(tube, 12, 1e-3),
                  disc_samples(tube, 3, 12)):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestRichardsonVerdict:
    """The reduction of the residual ratios to a verdict, on residuals
    given here: a ratio of 4 everywhere but where a test sets one. The
    residuals take the one-call contract of ``_richardson``: both steps,
    2h then h, in one call, and the residuals at each, stacked."""

    @staticmethod
    def verdict(unit_ball, ratios, at_h=None):
        tube = EllipticTube(unit_ball)

        def residuals(body, Z, steps):
            assert steps == (2e-3, 1e-3)
            res = np.ones((len(Z), 3))
            return np.stack([res * ratios, res if at_h is None else at_h])
        Z = suites._richardson_points(tube, 4, 1e-3)
        report = suites._richardson("tube-levi", residuals, tube, 4, 1e-3,
                                    TOL_DEFAULTS)
        return report, Z

    def test_nan_residual_at_h_fails_and_the_worst_is_finite(self,
                                                               unit_ball):
        ratios = np.full((20, 3), 4.0)
        ratios[3, 1] = 4.2
        at_h = np.ones((20, 3))
        at_h[0, 0] = np.nan
        report, Z = self.verdict(unit_ball, ratios, at_h)
        assert not report.passed
        assert report.worst_value == 4.2
        assert report.worst_point == point_to_list(Z[3])
        assert report.samples == 60

    def test_tie_reports_the_first_sample_in_row_order(self, unit_ball):
        # row order over samples x residuals visits (2, 2) before (3, 0)
        ratios = np.full((20, 3), 4.0)
        ratios[3, 0], ratios[2, 2] = 4.25, 3.75
        report, Z = self.verdict(unit_ball, ratios)
        assert report.passed
        assert report.worst_value == 3.75
        assert report.worst_point == point_to_list(Z[2])

    def test_only_nan_ratios_fail_with_no_worst_point(self, unit_ball):
        report, _ = self.verdict(unit_ball, np.full((20, 3), np.nan))
        assert not report.passed
        assert report.worst_point is None and report.worst_value == 4.0


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

    def test_no_rows(self, unit_ball):
        res = tube_levi_residual_batch(unit_ball,
                                       np.empty((0, 2), dtype=complex), 1e-3)
        assert res.shape == (0,)


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
