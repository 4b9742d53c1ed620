import math

import numpy as np
import pytest

import thetagauss as tg
from thetagauss import DiscreteGaussian, engine, geometry
from thetagauss.engine import (
    TWO_PI,
    ThetaPoint,
    as_siegel,
    lattice_points,
    theta,
    theta_du,
    theta_du_stack,
    truncation_radius,
)
from thetagauss.errors import (
    IndeterminatePoint,
    NoZeroFound,
    RankDeficientInput,
    SingularDivisorPoint,
)
from thetagauss.geometry import (
    DIVISOR_EPS,
    ZERO_GRID,
    ZERO_TOL,
    CubicCoefficients,
    ProjectivePoint,
    cubic_coefficients,
    find_theta_zero,
    fit_vanishing_form,
    gauss_map,
    identifiability_probe,
    kummer_quartic_fit,
    log_derivatives,
    statistical_map,
    statistical_map_stack,
    verify_cubic,
)
from thetagauss.multiindex import indices_of_order, moment_map_indices, unit

from oracles import brute_theta

B_KUMMER = np.array([[1.0, 0.3], [0.3, 1.0]])


def torus_point(rng, B, min_theta=0.2):
    B = np.asarray(B, dtype=complex)
    g = len(B)
    while True:
        u = 1j * rng.uniform(0, 1, g) + B @ rng.uniform(0, 1, g)
        if abs(theta(ThetaPoint(u, B), 1e-10)) >= min_theta:
            return u


def divisor_point_g2(rng, B):
    base = np.array([0.0, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))])
    return find_theta_zero((base, np.array([1.0, 0.0])), B)


class TestProjectivePoint:
    def test_normalization_and_distance(self):
        p = ProjectivePoint([2.0, 4.0j])
        q = ProjectivePoint([1.0, 2.0j])
        assert p.distance(q) < 1e-15
        r = ProjectivePoint([1.0, 0.0])
        assert p.distance(r) > 0.1

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ProjectivePoint([0.0, 0.0])


class TestStatisticalMap:
    def test_g1_d2_is_even(self, rng):
        for _ in range(5):
            u = torus_point(rng, [[1.0]])
            a = statistical_map(2, ThetaPoint([u[0]], [[1.0]]))
            b = statistical_map(2, ThetaPoint([-u[0]], [[1.0]]))
            assert a.distance(b) < 1e-8

    def test_g1_d3_lands_on_cubic(self, rng):
        B = 1.0
        coef = cubic_coefficients(B)
        for _ in range(5):
            u = torus_point(rng, [[B]])
            pt = statistical_map(3, ThetaPoint([u[0]], [[B]]), 1e-13)
            x0, x1, x2 = pt.normalized()
            resid = abs(
                x0 * x2**2
                - (-4.0 * x1**3 + coef.a * x0 * x1**2 + coef.b * x0**2 * x1 + coef.c * x0**3)
            )
            assert resid < 1e-8

    def test_g2_d2_kummer_involution(self, rng):
        for _ in range(5):
            u = torus_point(rng, B_KUMMER)
            a = statistical_map(2, ThetaPoint(u, B_KUMMER))
            b = statistical_map(2, ThetaPoint(-u, B_KUMMER))
            assert a.distance(b) < 1e-8

    def test_translation_invariance(self, rng):
        for _ in range(4):
            u = torus_point(rng, B_KUMMER)
            m, n = np.array([1, -2]), np.array([0, 1])
            a = statistical_map(2, ThetaPoint(u, B_KUMMER))
            b = statistical_map(2, ThetaPoint(u + 1j * m + B_KUMMER @ n, B_KUMMER))
            assert a.distance(b) < 1e-8

    def test_on_divisor_limits_to_gauss_veronese(self, rng):
        u_star = divisor_point_g2(rng, B_KUMMER)
        pt = statistical_map(2, ThetaPoint(u_star, B_KUMMER))
        coords = pt.coords
        assert abs(coords[0]) == 0.0  # theta^2 coordinate vanishes on the divisor
        g1 = theta_du((1, 0), ThetaPoint(u_star, B_KUMMER), 1e-13)
        g2 = theta_du((0, 1), ThetaPoint(u_star, B_KUMMER), 1e-13)
        expected = ProjectivePoint([0.0, g1 * g1, g1 * g2, g2 * g2])
        assert pt.distance(expected) < 1e-8
        # and it is the limit of nearby off-divisor images
        grad = np.array([g1, g2])
        near = statistical_map(
            2, ThetaPoint(u_star + 1e-6 * grad.conj() / abs(grad).max(), B_KUMMER), 1e-13
        )
        assert pt.distance(near) < 1e-4

    def test_indeterminate_at_singular_point(self):
        # product divisor: both elliptic factors vanish -> all partials zero
        B = np.diag([1.0, 1.3]).astype(complex)
        u_sing = np.array([0.5j + 0.5, 0.5j + 0.65])
        with pytest.raises(IndeterminatePoint):
            statistical_map(2, ThetaPoint(u_sing, B))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            statistical_map(1, ThetaPoint([0.1], [[1.0]]))


B_COMPLEX = {
    1: np.array([[1.2 + 0.4j]]),
    2: np.array([[0.9 + 0.1j, 0.15 + 0.3j], [0.15 + 0.3j, 1.1 - 0.2j]]),
}
MAP_CASES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]


class TestMapFormula:
    """The map as one polynomial in the derivative table, on and off the
    divisor, at complex B."""

    @pytest.mark.parametrize("g, d", MAP_CASES)
    def test_off_divisor_is_theta_power_times_log_derivatives(self, rng, g, d):
        B = B_COMPLEX[g]
        U = np.array([torus_point(rng, B) for _ in range(6)])
        coords = statistical_map_stack(d, U, B)
        for u, row in zip(U, coords):
            p = ThetaPoint(u, B)
            t, nus = theta(p), log_derivatives(p, d)
            want = [t**d * (nus[a] / TWO_PI ** sum(a) if any(a) else 1.0) for a in moment_map_indices(g, d)]
            assert np.max(np.abs(row - want)) < 1e-12 * np.max(np.abs(row))

    @pytest.mark.parametrize("g, d", MAP_CASES)
    def test_on_divisor_is_the_scaled_gauss_veronese(self, rng, g, d):
        """Below grade d exactly 0; grade d is
        (-1)^(d-1) (d-1)! (2 pi)^-d (D_u theta)^a."""
        B = B_COMPLEX[g]
        if g == 1:
            points = [0.5 * (1j + B[0])]  # the odd half-period
        else:
            direction = np.array([1.0, 0.5 + 0.2j])
            points = [
                find_theta_zero((np.array([0.0, complex(*rng.uniform(-0.5, 0.5, 2))]), direction), B)
                for _ in range(3)
            ]
        labels = moment_map_indices(g, d)
        scale = (-1) ** (d - 1) * math.factorial(d - 1) / TWO_PI**d
        for u in points:
            row = statistical_map_stack(d, np.atleast_2d(u), B)[0]
            grad = np.array([theta_du(unit(g, i), ThetaPoint(u, B), 1e-13) for i in range(g)])
            low = np.array([sum(a) < d for a in labels])
            want = np.array([scale * np.prod(grad ** np.array(a)) for a in labels])
            want[low] = 0
            assert np.all(row[low] == 0)
            assert np.max(np.abs(row - want)) < 1e-10 * np.max(np.abs(want))


class TestCubicCoefficients:
    def test_vieta_consistency(self, rng):
        for B in (0.8, 1.0, 1.4 + 0.3j):
            c = cubic_coefficients(B)
            # e1, e2, e3 are the roots of -4x^3 + a_nu x^2 + b_nu x + c_nu
            for e in (c.e1, c.e2, c.e3):
                val = -4.0 * e**3 + c.a_nu * e**2 + c.b_nu * e + c.c_nu
                assert abs(val) < 1e-7 * max(1.0, abs(e) ** 3)

    def test_b1_jacobi_self_duality(self):
        # nu2(u/(iB), 1/B) = 2 pi B - B^2 nu2(u, B) maps the half-periods of
        # B to those of 1/B; at B=1 this forces e1 = pi and e2 + e3 = 2 pi
        c = cubic_coefficients(1.0)
        assert c.e1 == pytest.approx(np.pi, abs=1e-10)
        assert c.e2 + c.e3 == pytest.approx(TWO_PI, abs=1e-9)

    def test_dual_B_relations(self):
        B = 1.7
        c = cubic_coefficients(B)
        cd = cubic_coefficients(1.0 / B)
        assert cd.e1 == pytest.approx(TWO_PI * B - B**2 * c.e1, abs=1e-8)
        assert cd.e3 == pytest.approx(TWO_PI * B - B**2 * c.e2, abs=1e-8)
        assert cd.e2 == pytest.approx(TWO_PI * B - B**2 * c.e3, abs=1e-8)

    def test_b_coefficient_not_zero_at_1(self):
        c = cubic_coefficients(1.0)
        assert abs(c.b) > 1e-3
        assert abs(c.b_nu) > 1.0


class TestVerifyCubic:
    def test_real_point(self):
        res = verify_cubic(0.3, 1.0)
        assert res.r_cubic < 1e-8
        assert res.r_quartic < 1e-8
        assert res.r_det < 1e-8

    def test_complex_point(self):
        res = verify_cubic(0.3 + 0.2j, 1.0 + 0.5j)
        assert max(res.r_cubic, res.r_quartic, res.r_det) < 1e-7

    def test_even_point_cubic_reduces(self):
        # at u=0 (real B) kappa_3 = 0, so the cubic pins kappa_2 as a root
        B = 1.2
        coef = cubic_coefficients(B)
        nus = log_derivatives(ThetaPoint([0.0], [[B]]), 3)
        k2 = nus[(2,)] / TWO_PI**2
        assert abs(nus[(3,)]) < 1e-10
        assert abs(-4 * k2**3 + coef.a * k2**2 + coef.b * k2 + coef.c) < 1e-10

    def test_random_instances(self, rng):
        for _ in range(10):
            B = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
            u = torus_point(rng, [[B]], min_theta=0.15)[0]
            res = verify_cubic(u, B, 1e-13)
            assert max(res.r_cubic, res.r_quartic, res.r_det) < 1e-8


class TestFindThetaZero:
    def test_g1_half_period(self):
        for B in (0.8, 1.0, 1.6):
            u = find_theta_zero((np.zeros(1), np.ones(1)), [[B]])
            assert abs(theta(ThetaPoint(u, [[B]]), 1e-12)) < 1e-10
            # the zero is the odd half-period up to a lattice vector
            w = complex(u[0]) - (0.5j + B / 2.0)
            m, n = round(w.imag), round(w.real / B)
            assert abs(w - (1j * m + B * n)) < 1e-8

    def test_g2_random_lines(self, rng):
        for _ in range(3):
            u = divisor_point_g2(rng, B_KUMMER)
            assert abs(theta(ThetaPoint(u, B_KUMMER), 1e-12)) < 1e-10

    def test_no_zero_in_window(self):
        with pytest.raises(NoZeroFound):
            find_theta_zero(
                (np.zeros(1), np.ones(1)),
                [[1.0]],
                t_window=((-0.25, 0.25), (-0.25, 0.25)),
            )


def _boom(*args, **kwargs):
    raise AssertionError("a theta kernel of the engine was called")


def lattice_shift(shift, B):
    """The element i m + B n of the period lattice nearest to shift."""
    B = np.asarray(B, dtype=complex)
    n = np.round(np.linalg.solve(B.real, shift.real))
    return 1j * np.round(shift.imag - B.imag @ n) + B @ n


def workload_line(rng):
    """A complex g = 2 law and line like the geometry_fixed_B workload's:
    direction (1, 0.5 + 0.2i) through a point near the odd half-period."""
    x = rng.uniform(0, 1, 6)
    c, s = np.cos(np.pi * x[0]), np.sin(np.pi * x[0])
    Q = np.array([[c, -s], [s, c]])
    R = Q @ np.diag(0.6 + 0.8 * x[1:3]) @ Q.T
    im12 = 0.2 + 0.3 * x[4]
    B = np.triu(R) + np.triu(R, 1).T + 1j * np.array([[x[3] - 0.5, im12], [im12, x[5] - 0.5]])
    direction = np.array([1.0, 0.5 + 0.2j])
    return 0.5 * (np.array([1j, 0.0]) + B[:, 0]) - 0.37 * direction, direction, B


class TestZeroScan:
    """The scan of find_theta_zero against theta_du_stack at eps 1e-12, to
    1e-12 of the grid's largest |theta|."""

    @staticmethod
    def assert_scan_matches(base, direction, B, window=(-2.0, 2.0)):
        B = as_siegel(B)
        base, direction = np.asarray(base, dtype=complex), np.asarray(direction, dtype=complex)
        ax = np.linspace(*window, ZERO_GRID)
        scan = geometry._scan(geometry._Line(base, direction, B), ax, ax)
        ts = (ax[:, None] + 1j * ax[None, :]).ravel()
        want = theta_du_stack([(0,) * B.g], base + ts[:, None] * direction, B, 1e-12)
        want = want[:, 0].reshape(scan.shape)
        assert np.max(np.abs(scan - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("B", [0.8, 1.0, 1.6, 0.05, 1.2 + 0.4j])
    def test_g1_lines(self, B):
        self.assert_scan_matches([0.0], [1.0], [[B]])

    def test_complex_g2_lines(self, rng):
        for _ in range(3):
            self.assert_scan_matches(*workload_line(rng))

    @pytest.mark.parametrize("direction, B", [(0.3 + 0.7j, 0.03 + 0.1j), (0.3 + 1j, 0.03 + 0.1j)])
    def test_moduli_spanning_more_than_the_double_range(self, direction, B):
        """Lines whose far summands vary in modulus across the imaginary
        window, exp(2*pi*4*|Im s_n|), by more than the double range: split
        at the window's centre, their phase factors would lose the small
        summands (0.3 + 0.7i) or overflow (0.3 + i)."""
        line = geometry._Line(np.zeros(1, dtype=complex), np.array([direction]), as_siegel([[B]]))
        ax = np.linspace(-2.0, 2.0, ZERO_GRID)
        geometry._scan(line, ax, ax)
        assert TWO_PI * 4.0 * np.max(np.abs(line.s.imag)) > np.log(np.finfo(float).max)
        self.assert_scan_matches([0.0], [direction], [[B]])

    def test_zero_finder_uses_no_point_kernel(self, rng, monkeypatch):
        monkeypatch.setattr(geometry, "theta_du_stack", _boom)
        monkeypatch.setattr(geometry, "theta_du_many", _boom)
        monkeypatch.setattr(geometry, "theta", _boom)
        monkeypatch.setattr(engine, "_summands_at", _boom)
        monkeypatch.setattr(engine, "_pair_summands_at", _boom)
        base, direction, B = workload_line(rng)
        u = find_theta_zero((base, direction), B)
        assert abs(brute_theta(u, B, 10)) < ZERO_TOL

    def test_line_terms_are_the_engine_exponent(self, rng):
        """After a scan and a ball of Newton's size (first derivatives at
        DIVISOR_EPS, at t = +-4 +- 4i, inside the drift Newton allows from
        the window), the memo's exponents are those of
        engine._log_summands over the whole ball, and engine._summands_at
        is their exp, bit for bit."""
        for _ in range(3):
            base, direction, B = workload_line(rng)
            line = geometry._Line(base, direction, as_siegel(B))
            ax = np.linspace(-2.0, 2.0, ZERO_GRID)
            geometry._scan(line, ax, ax)
            scanned = len(line.L)
            corners = [base + complex(a, b) * direction for a in (-4, 4) for b in (-4, 4)]
            R = max(truncation_radius(B, u, unit(2, 0), DIVISOR_EPS).radius for u in corners)
            L = line.terms(R)[0]
            pts = lattice_points(2, R)
            assert scanned < len(pts) == len(L)
            assert L.tobytes() == engine._log_summands(pts, base, B).tobytes()
            assert engine._summands_at(pts, base, B).tobytes() == np.exp(L).tobytes()


class TestCandidateRule:
    def test_zero_does_not_depend_on_the_scan_below_its_accuracy(self, monkeypatch):
        """A line along the period i e_1 holds grid points whose |theta|
        agree to rounding.  Scans perturbed by a relative 1e-15, far below
        SCAN_EPS, all lead to one zero."""
        scan = geometry._scan
        rng = np.random.default_rng(11)

        def perturbed(line, res, ims):
            out = scan(line, res, ims)
            return out * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], out.shape))

        monkeypatch.setattr(geometry, "_scan", perturbed)
        line = (np.array([0.0, 0.14814 + 0.43228j]), np.array([1.0, 0.0]))
        zeros = {tuple(np.round(find_theta_zero(line, B_KUMMER), 9)) for _ in range(20)}
        assert len(zeros) == 1


class TestWideLaws:
    """Wide laws whose zero the finder has always located: the scan keeps
    each summand one exp, finite wherever the summands at the grid points
    are.  Each zero is pinned, up to the period lattice, to the one found
    before the scan became one contraction."""

    def test_g1_small_B(self):
        u = find_theta_zero((np.zeros(1), np.ones(1)), [[0.05]])
        assert abs(brute_theta(u, np.array([[0.05]]), 40)) < ZERO_TOL
        # |theta'| is about 1e-4 here, so |theta| < ZERO_TOL places a zero
        # only to within ZERO_TOL / |theta'| of the exact one
        slope = abs(theta_du((1,), ThetaPoint(u, [[0.05]])))
        shift = u - np.array([0.025000103194554767 - 1.5000000000118223j])
        assert np.max(np.abs(shift - lattice_shift(shift, [[0.05]]))) < 2 * ZERO_TOL / slope

    def test_g1_small_B_zero_to_rounding(self):
        """|theta'| is about 1e-4 at this zero, so Newton keeps stepping past
        |theta| < ZERO_TOL: the zero is the odd half-period (i + B)/2 to
        rounding, not to ZERO_TOL / |theta'| ~ 1e-6."""
        u = find_theta_zero((np.zeros(1), np.ones(1)), [[0.05]])
        shift = u - np.array([0.025 + 0.5j])
        assert np.max(np.abs(shift - lattice_shift(shift, [[0.05]]))) < 1e-11

    def test_g2_wide_coordinate(self):
        B = np.array([[5.0, 0.3], [0.3, 0.05]])
        u = find_theta_zero((np.array([0.0, 0.3j]), np.array([1.0, 0.0])), B)
        assert abs(brute_theta(u, B, 40)) < ZERO_TOL
        shift = u - np.array([1.6 + 1.3000000000000003j, 0.3j])
        assert np.max(np.abs(shift - lattice_shift(shift, B))) < 1e-12


class TestGaussMap:
    def test_requires_divisor_point(self):
        with pytest.raises(ValueError):
            gauss_map([0.1, 0.2], B_KUMMER)

    def test_g1_single_nonzero_coordinate(self):
        u = find_theta_zero((np.zeros(1), np.ones(1)), [[1.0]])
        gm = gauss_map(u, [[1.0]])
        assert abs(gm.coords[0]) > 1e-6

    def test_parity_on_divisor(self, rng):
        u = divisor_point_g2(rng, B_KUMMER)
        a = gauss_map(u, B_KUMMER)
        b = gauss_map(-u, B_KUMMER)
        assert a.distance(b) < 1e-7

    def test_quasiperiodic_invariance(self, rng):
        u = divisor_point_g2(rng, B_KUMMER)
        a = gauss_map(u, B_KUMMER)
        b = gauss_map(u + 1j * np.array([2, -1]) + B_KUMMER @ np.array([1, 0]), B_KUMMER)
        assert a.distance(b) < 1e-7

    def test_singular_point_rejected(self):
        B = np.diag([1.0, 1.3]).astype(complex)
        u_sing = np.array([0.5j + 0.5, 0.5j + 0.65])
        with pytest.raises(SingularDivisorPoint):
            gauss_map(u_sing, B)


class TestDivisorAsymptotics:
    def test_restriction_ratio_constant(self, rng):
        # theta^d kappa_a / (D_u theta)^a approaches the same constant at
        # every smooth divisor point and every top-grade multi-index
        d = 2
        ratios = []
        for _ in range(3):
            u_star = divisor_point_g2(rng, B_KUMMER)
            tp = ThetaPoint(u_star, B_KUMMER)
            grad = np.array(
                [theta_du((1, 0), tp, 1e-13), theta_du((0, 1), tp, 1e-13)]
            )
            # polish the zero so the baseline |theta| is negligible next to
            # the deliberate 2.5e-9 offset (the ratio's drift is O(theta))
            for _ in range(4):
                f = theta(tp, 1e-14)
                u_star = u_star - f * grad.conj() / np.linalg.norm(grad) ** 2
                tp = ThetaPoint(u_star, B_KUMMER)
                grad = np.array(
                    [theta_du((1, 0), tp, 1e-13), theta_du((0, 1), tp, 1e-13)]
                )
            assert abs(theta(tp, 1e-14)) < 1e-12
            u = u_star + 2.5e-9 * grad.conj() / np.linalg.norm(grad)
            tp_near = ThetaPoint(u, B_KUMMER)
            t = theta(tp_near, 1e-13)
            nus = log_derivatives(tp_near, d, 1e-13)
            g1 = theta_du((1, 0), tp_near, 1e-13)
            g2 = theta_du((0, 1), tp_near, 1e-13)
            for a in [(2, 0), (1, 1), (0, 2)]:
                kappa = nus[a] / TWO_PI ** sum(a)
                ratios.append(t**d * kappa / (g1 ** a[0] * g2 ** a[1]))
        ratios = np.array(ratios)
        spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
        assert spread < 1e-6
        # the limiting constant for d = 2 is -(1/2pi)^2
        assert ratios.mean() == pytest.approx(-1.0 / TWO_PI**2, rel=1e-5)

    def test_pole_order_along_path(self, rng):
        # |kappa_a| * |theta|^{|a|} stays bounded and bounded away from zero
        B = np.array([[1.0]], dtype=complex)
        u_star = 0.5j + 0.5
        vals = []
        for t in (1e-2, 1e-3, 1e-4, 1e-5):
            u = u_star + t
            tp = ThetaPoint([u], B)
            th = theta(tp, 1e-13)
            nus = log_derivatives(tp, 3, 1e-13)
            k3 = nus[(3,)] / TWO_PI**3
            vals.append(abs(k3) * abs(th) ** 3)
        vals = np.array(vals)
        assert vals.min() > 1e-6
        assert vals.max() / vals.min() < 1.5


class TestRamification:
    def test_kappa3_vanishes_at_even_two_torsion(self):
        for B in (0.8, 1.0, 1.7):
            for point in (0.0, 0.5j, B / 2.0):
                nus = log_derivatives(ThetaPoint([point], [[B]]), 3)
                assert abs(nus[(3,)] / TWO_PI**3) < 1e-8


class TestKummer:
    def _points(self, rng, count=60):
        pts = []
        while len(pts) < count:
            u = torus_point(rng, B_KUMMER)
            pts.append(statistical_map(2, ThetaPoint(u, B_KUMMER), 1e-13))
        return pts

    def test_quartic_certified(self, rng):
        res = kummer_quartic_fit(B_KUMMER, self._points(rng, 60))
        assert res.residual < 1e-8
        assert res.singular_values[-2] > 1e-4

    def test_too_few_points(self, rng):
        with pytest.raises(RankDeficientInput):
            kummer_quartic_fit(B_KUMMER, self._points(rng, 30))

    def test_recovers_g1_cubic(self, rng):
        # degree-3 fit through d=3 images over g=1 recovers the cubic
        B = 1.0
        coef = cubic_coefficients(B)
        pts = []
        while len(pts) < 30:
            u = torus_point(rng, [[B]])
            pts.append(statistical_map(3, ThetaPoint([u[0]], [[B]]), 1e-13))
        res = fit_vanishing_form(pts, 3)
        assert res.residual < 1e-8
        # expected form: -4 x1^3 + a x0 x1^2 + b x0^2 x1 + c x0^3 - x0 x2^2 = 0
        want = {
            (0, 3, 0): -4.0,
            (1, 2, 0): complex(coef.a),
            (2, 1, 0): complex(coef.b),
            (3, 0, 0): complex(coef.c),
            (1, 0, 2): -1.0,
        }
        got = dict(zip(res.monomials, res.coeffs))
        scale = got[(1, 0, 2)] / want[(1, 0, 2)]
        for mono, val in want.items():
            assert got[mono] / scale == pytest.approx(val, rel=1e-6, abs=1e-8)
        for mono, val in got.items():
            if mono not in want:
                assert abs(val / scale) < 1e-7


    def test_array_and_point_list_give_the_same_fit(self, rng):
        U = np.array([torus_point(rng, B_KUMMER) for _ in range(40)])
        coords = statistical_map_stack(2, U, B_KUMMER, 1e-13)
        from_array = fit_vanishing_form(coords, 4)
        from_points = fit_vanishing_form([ProjectivePoint(c) for c in coords], 4)
        assert np.array_equal(from_array.coeffs, from_points.coeffs)
        assert np.array_equal(from_array.singular_values, from_points.singular_values)
        assert from_array.residual == from_points.residual
        assert from_array.monomials == from_points.monomials == indices_of_order(4, 4)


class TestProbe:
    def test_g1_no_collisions(self):
        report = identifiability_probe(np.array([[1.0]]), trials=25, seed=0)
        assert report.trials == 25
        assert report.collisions == 0
        assert report.min_separation > 1e-6

    def test_g2_no_collisions(self):
        report = identifiability_probe(B_KUMMER, trials=15, seed=1)
        assert report.collisions == 0

    def test_translate_changes_mean_only(self, rng):
        # a lattice translate shares every central moment but not the mean
        u, B = np.array([0.2, -0.1]), B_KUMMER
        d = DiscreteGaussian(u, B)
        shifted = d.translate([0, 0], [1, 0])
        m0, _ = d.mean_cov()
        m1, _ = shifted.mean_cov()
        assert np.max(np.abs(m1 - m0)) > 0.5
        for a in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1)]:
            assert shifted.central_moment(a) == pytest.approx(
                d.central_moment(a), abs=1e-9
            )


class TestThetaZeroPinned:
    """Zeros found on the lines of TestFindThetaZero, as computed before the
    scan became one stacked evaluation."""

    G1 = {0.8: -0.3999999999999999 - 0.5j, 1.0: -0.5 - 0.5j, 1.6: 0.8000000000000003 - 0.5j}
    # the first three lines divisor_point_g2 draws from the rng fixture: the
    # base point (0, w) with direction (1, 0), and the zero found on it
    G2 = [
        (-0.1867640386589664 + 0.19971810354969088j, -0.5027827920587857 - 1.4722708561967641j),
        (0.1481356022136049 + 0.43227561592880737j, -0.6085587100194773 + 1.6023146586391757j),
        (-0.3172897149323527 + 0.2795952327025033j, -0.5005438127677141 - 1.451803332589629j),
    ]

    def test_g1_lines(self):
        # theta(u + i m + B n) = 0 with theta(u), and zeros one period apart
        # tie in |theta| on the scan up to rounding, which decides the one
        # found; each zero is pinned modulo the lattice iZ + BZ
        for B, want in self.G1.items():
            u = find_theta_zero((np.zeros(1), np.ones(1)), [[B]])
            shift = u[0] - want
            period = 1j * round(shift.imag) + B * round(shift.real / B)
            assert abs(shift - period) < 1e-12

    def test_g2_lines(self):
        for k, (w, want) in enumerate(self.G2):
            u = find_theta_zero((np.array([0.0, w]), np.array([1.0, 0.0])), B_KUMMER)
            assert u[1] == w
            if k == 1:
                # theta(u + i e1) = theta(u), and this line's window holds four
                # grid points one period apart whose |theta| agree to rounding;
                # which of them rounding puts first is arbitrary, so the zero
                # is pinned up to the period i e1
                shift = u[0] - want
                assert abs(shift - 1j * round(shift.imag)) < 1e-12
            else:
                assert abs(u[0] - want) < 1e-12
