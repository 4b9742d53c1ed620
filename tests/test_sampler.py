import numpy as np
import pytest

import thetagauss as tg
from thetagauss import CanonicalPoint, SamplerConfig
from thetagauss.engine import TWO_PI, lattice_points, theta
from thetagauss.errors import InvalidParameters, ToleranceUnreachable, TooFewSamples
from thetagauss.fitting import forward_moments
from thetagauss import sampler
from thetagauss.sampler import chi_square, draw, support_radius

from oracles import brute_pearson, brute_pmf, brute_pmf_about

PMF_AT_0 = 0.9204419514388919  # 1 / theta(0,1)


def std1():
    return CanonicalPoint([0.0], [[1.0]])


class TestSamplerConfig:
    def test_tail_eps_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(tail_eps=1e-2)
        with pytest.raises(ValueError):
            SamplerConfig(tail_eps=0.0)


class TestSupportRadius:
    def test_standard_radius_small(self):
        assert support_radius(std1(), 1e-12) <= 6

    def test_unit_variance_radius(self):
        r = support_radius(CanonicalPoint([0.0], [[0.1591549]]), 1e-9)
        assert 6 <= r <= 9  # about six sigmas plus margin

    def test_monotone_in_B(self):
        radii = [
            support_radius(CanonicalPoint([0.0], [[b]]), 1e-9) for b in (0.2, 0.5, 1.0, 2.0)
        ]
        assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))

    def test_certified_tail_mass(self):
        # the dropped mass really is below tail_eps
        p = std1()
        for tail_eps in (1e-6, 1e-9):
            R = support_radius(p, tail_eps)
            pts = lattice_points(1, R).ravel()
            t = theta(p.to_theta_point(), 1e-13).real
            kept = sum(np.exp(-np.pi * float(n) ** 2) for n in pts)
            assert (t - kept) / t < tail_eps


class TestDraw:
    def test_reproducible(self):
        cfg = SamplerConfig(tail_eps=1e-9, seed=12345)
        a = draw(std1(), 5000, cfg)
        b = draw(std1(), 5000, cfg)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = draw(std1(), 5000, SamplerConfig(seed=1))
        b = draw(std1(), 5000, SamplerConfig(seed=2))
        assert not np.array_equal(a, b)

    def test_frequency_of_zero(self):
        sample = draw(std1(), 100_000, SamplerConfig(tail_eps=1e-9, seed=42))
        freq = float(np.mean(sample[:, 0] == 0))
        assert abs(freq - 0.920442) < 0.005

    def test_count_validation(self):
        with pytest.raises(ValueError):
            draw(std1(), 0, SamplerConfig())

    def test_g2_independent_coordinates_uncorrelated(self):
        p = CanonicalPoint([0.0, 0.0], np.eye(2))
        sample = draw(p, 100_000, SamplerConfig(seed=7)).astype(float)
        corr = np.corrcoef(sample.T)[0, 1]
        assert abs(corr) < 0.01

    def test_moment_recovery(self):
        p = CanonicalPoint([0.2, -0.1], [[0.7, 0.15], [0.15, 0.9]])
        md = forward_moments(p)
        for n, seed in ((10_000, 3), (100_000, 4)):
            sample = draw(p, n, SamplerConfig(seed=seed)).astype(float)
            se_mu = np.sqrt(np.diag(md.sigma) / n)
            assert np.all(np.abs(sample.mean(axis=0) - md.mu) < 5 * se_mu)
            cov = np.cov(sample.T, ddof=1)
            se_cov = np.sqrt(2.0 / (n - 1)) * np.outer(
                np.sqrt(np.diag(md.sigma)), np.sqrt(np.diag(md.sigma))
            )
            assert np.all(np.abs(cov - md.sigma) < 5 * se_cov)


class TestChiSquare:
    def test_matching_distribution_accepts(self):
        from scipy.stats import chi2

        p = std1()
        for seed in (11, 12, 13):
            sample = draw(p, 100_000, SamplerConfig(seed=seed))
            stat, dof = chi_square(sample, p)
            assert dof >= 1
            assert stat < chi2.ppf(0.999, dof)

    def test_shifted_distribution_rejected(self):
        from scipy.stats import chi2

        p = std1()
        shifted = CanonicalPoint([1.0], [[1.0]])  # u' = u + B n with n = 1
        sample = draw(shifted, 100_000, SamplerConfig(seed=5))
        stat, dof = chi_square(sample, p)
        assert stat > chi2.ppf(0.999, dof)

    def test_too_few_samples(self):
        p = std1()
        sample = draw(p, 5, SamplerConfig(seed=1))
        with pytest.raises(TooFewSamples):
            chi_square(sample, p)

    def test_empty_sample(self):
        with pytest.raises(TooFewSamples):
            chi_square(np.zeros((0, 1), dtype=int), std1())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # 100 bad rows beside 100 zeros were counted in the pooled cell
        sample = np.r_[np.full(100, bad), np.zeros(100)][:, None]
        with pytest.raises(InvalidParameters):
            chi_square(sample, std1())


class TestExactness:
    def test_law_matches_pmf_on_support(self):
        # compare sampled frequencies to the true pmf with generous CI bands
        p = CanonicalPoint([0.1], [[0.9]])
        d = tg.DiscreteGaussian([0.1], [[0.9]])
        n = 200_000
        sample = draw(p, n, SamplerConfig(seed=99)).ravel()
        for k in (-1, 0, 1, 2):
            pk = d.pmf([k]).real
            freq = float(np.mean(sample == k))
            band = 5 * np.sqrt(pk * (1 - pk) / n)
            assert abs(freq - pk) < band


class TestOverflow:
    # Sigma = [[1, .3], [.3, 1]], mu = (38, -19): the weights exceed double range
    SIGMA = np.array([[1.0, 0.3], [0.3, 1.0]])

    def point(self):
        B = np.linalg.inv(self.SIGMA) / TWO_PI
        return CanonicalPoint(B @ np.array([38.0, -19.0]), B)

    def test_draw_raises(self):
        with pytest.raises(tg.errors.ToleranceUnreachable):
            draw(self.point(), 100, SamplerConfig(seed=3))

    def test_chi_square_raises(self):
        sample = np.tile([38, -19], (100, 1))
        with pytest.raises(tg.errors.ToleranceUnreachable):
            chi_square(sample, self.point())


class TestCentring:
    """The support is the ball about m = round(B^-1 u), the lattice point
    nearest the mode, whatever the distance of the mean from the origin."""

    SIGMA = np.array([[1.5, 0.4], [0.4, 0.8]])

    def point(self, distance, angle=1.7):
        """Continuous-Gaussian kernel with the mean at Mahalanobis
        distance `distance` from the origin."""
        B = np.linalg.inv(self.SIGMA) / TWO_PI
        B = np.triu(B) + np.triu(B, 1).T
        direction = np.linalg.cholesky(self.SIGMA) @ [np.cos(angle), np.sin(angle)]
        return CanonicalPoint(B @ (distance * direction), B)

    @staticmethod
    def mode(p):
        return np.round(np.linalg.solve(p.B, p.u)).astype(int)

    @pytest.mark.parametrize("shift", [(1, 0), (3, -2), (-17, 29), (250, -400)])
    def test_radius_invariant_under_integer_shift(self, shift):
        for distance, angle in ((0.0, 0.0), (0.7, 2.0), (3.0, 4.5)):
            p = self.point(distance, angle)
            moved = CanonicalPoint(p.u + p.B @ np.array(shift, dtype=float), p.B)
            for tail_eps in (1e-6, 1e-9):
                assert abs(support_radius(moved, tail_eps) - support_radius(p, tail_eps)) <= 1

    @pytest.mark.parametrize("distance, angle", [(25.0, 1.7), (30.0, 0.3), (36.0, 4.0)])
    def test_dropped_mass_below_tail_eps(self, distance, angle):
        p = self.point(distance, angle)
        m = self.mode(p)
        pmf = brute_pmf_about(p.u, p.B, m, K=14)
        for tail_eps in (1e-6, 1e-9):
            R = support_radius(p, tail_eps)
            dropped = sum(q for n, q in pmf.items() if np.linalg.norm(np.subtract(n, m)) > R)
            assert dropped < tail_eps
            x = draw(p, 2000, SamplerConfig(tail_eps=tail_eps, seed=4))
            assert np.all(np.linalg.norm(x - m, axis=1) <= R)

    def test_support_size_flat_in_distance(self):
        for angle in (0.3, 1.7, 4.0):
            sizes = [
                len(lattice_points(2, support_radius(self.point(distance, angle), 1e-9)))
                for distance in (0.0, 5.0, 10.0, 20.0, 30.0, 37.0)
            ]
            assert max(sizes) <= 1.25 * min(sizes)

    def test_far_chi_square_matches_brute_force(self):
        p = self.point(25.0)
        x = draw(p, 5000, SamplerConfig(seed=8))
        stat, dof = chi_square(x, p)
        want_stat, want_dof = brute_pearson(x, p.u, p.B, K=14, centre=self.mode(p))
        assert dof == want_dof
        assert stat == pytest.approx(want_stat, rel=1e-9)

    def test_tail_eps_below_floor_after_centring(self):
        # theta at the centred argument is of order one, so tail_eps * theta
        # falls below the engine's floor; theta at the mean's own argument
        # (of order e^312 here) used to lift it above
        p = self.point(25.0)
        with pytest.raises(ToleranceUnreachable):
            support_radius(p, 1e-15)
        with pytest.raises(ToleranceUnreachable):
            draw(p, 10, SamplerConfig(tail_eps=1e-15))


class TestChiSquareOracle:
    """chi_square against a brute-force Pearson statistic that takes the
    pmf over a cube and counts rows with a plain dict."""

    # (u, B) per dimension, mean near the origin so the cube holds the support
    PARAMS = {
        1: ([0.3], [[0.12]]),
        2: ([0.2, -0.4], [[0.3, 0.05], [0.05, 0.25]]),
        3: ([0.1, 0.0, -0.2], [[0.6, 0.1, 0.0], [0.1, 0.5, 0.05], [0.0, 0.05, 0.7]]),
    }
    K = {1: 14, 2: 12, 3: 8}

    def check(self, sample, u, B, g):
        stat, dof = chi_square(sample, CanonicalPoint(u, B))
        want_stat, want_dof = brute_pearson(np.reshape(sample, (-1, g)), u, B, K=self.K[g])
        assert dof == want_dof
        assert stat == pytest.approx(want_stat, rel=1e-12)

    def sample(self, g, count=5000, seed=3):
        u, B = self.PARAMS[g]
        return draw(CanonicalPoint(u, B), count, SamplerConfig(seed=seed)), u, B

    def test_1d_sample(self):
        x, u, B = self.sample(1)
        self.check(x.ravel(), u, B, 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_off_support_and_negative_rows(self, g):
        x, u, B = self.sample(g)
        R = support_radius(CanonicalPoint(u, B), 1e-9)
        rng = np.random.default_rng(g)
        far = rng.integers(-30, 30, (40, g))
        far[0] = -int(R) - 1  # just outside the support box, every coordinate negative
        far[1, 0] = 10**6  # far outside: must not size any array
        assert np.any(np.linalg.norm(far, axis=1) > R)
        self.check(np.vstack([x, far]), u, B, g)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_float_sample(self, g):
        x, u, B = self.sample(g)
        # float rows, including fractions, are truncated toward zero
        frac = x.astype(float) + np.where(np.arange(len(x)) % 2 == 0, 0.25, -0.5)[:, None]
        self.check(frac, u, B, g)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_pooled_cell_merged_into_smallest(self, g):
        # B = I: the shells beyond the neighbours of 0 carry almost no mass,
        # so at this size the pooled expectation is below the threshold
        u, B = [0.0] * g, np.eye(g)
        n = {1: 2000, 2: 3200, 3: 3500}[g]
        pmf = brute_pmf(u, B, K=self.K[g])
        kept = [n * q for q in pmf.values() if n * q >= sampler.MIN_EXPECTED_CELL]
        assert len(kept) >= 3
        assert n - sum(kept) < sampler.MIN_EXPECTED_CELL
        x = draw(CanonicalPoint(u, B), n, SamplerConfig(seed=g))
        self.check(x, u, B, g)

    def test_theta_evaluated_once(self, monkeypatch):
        calls = []

        def counting_theta(*args, **kwargs):
            calls.append(args)
            return theta(*args, **kwargs)

        x, u, B = self.sample(2, count=500)
        monkeypatch.setattr(sampler, "theta", counting_theta)
        chi_square(x, CanonicalPoint(u, B))
        assert len(calls) == 1


def test_support_beyond_the_radius_cap_is_typed_error():
    """A mean 1e9 from the origin: the weights raise ToleranceUnreachable
    before any table over the distance of the mean is built."""
    p = CanonicalPoint([1e9], [[1.0]])
    with pytest.raises(tg.errors.ToleranceUnreachable):
        draw(p, 10, SamplerConfig(seed=1))


class TestChiSquareShape:
    """A sample that is not N x g (or 1-D at g = 1) is rejected, not
    reshaped into other rows."""

    def point(self):
        return CanonicalPoint([0.1, -0.2], [[1.0, 0.3], [0.3, 1.0]])

    def test_wrong_width_rejected(self):
        sample = draw(CanonicalPoint([0.0, 0.0, 0.0], np.eye(3)), 3000, SamplerConfig(seed=4))
        with pytest.raises(ValueError, match="N x 2"):
            chi_square(sample, self.point())

    def test_flat_sample_rejected_above_g1(self):
        sample = draw(self.point(), 3000, SamplerConfig(seed=4))
        with pytest.raises(ValueError, match="N x 2"):
            chi_square(sample.ravel(), self.point())

    def test_three_dimensional_sample_rejected(self):
        sample = draw(self.point(), 3000, SamplerConfig(seed=4))
        with pytest.raises(ValueError, match="N x 2"):
            chi_square(sample.reshape(1000, 3, 2), self.point())
