import numpy as np
import pytest

import thetagauss as tg
from thetagauss import CanonicalPoint, DiscreteGaussian, MomentData
from thetagauss.engine import TWO_PI, ThetaPoint, theta
from thetagauss.distribution import cross_entropy
from thetagauss.errors import DegenerateSample, NoConvergence, NonPositiveDefinite
from thetagauss.fitting import (
    _grad_resid,
    _hessian,
    _pack,
    _real_moments,
    _triu_pairs,
    fit,
    fit_from_sample,
    forward_moments,
)

from oracles import random_real_params

SAMPLE_10 = [1, 0, 1, -2, 1, 2, 3, -2, 1, -1]


class TestTargets:
    def test_momentdata_validation(self):
        with pytest.raises(NonPositiveDefinite):
            MomentData([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NonPositiveDefinite):
            MomentData([0.0], [[-1.0]])
        with pytest.raises(NonPositiveDefinite):
            MomentData([0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]])

    def test_canonical_point_validation(self):
        with pytest.raises(NonPositiveDefinite):
            CanonicalPoint([0.0], [[-0.5]])
        p = CanonicalPoint([0.1, 0.2], [[1.0, 0.2], [0.2, 0.8]])
        assert p.g == 2


class TestForwardMoments:
    def test_standard_g1(self):
        md = forward_moments(CanonicalPoint([0.0], [[1.0]]))
        assert md.mu[0] == pytest.approx(0.0, abs=1e-12)
        assert md.sigma[0, 0] == pytest.approx(0.0795776, abs=1e-6)

    def test_zero_u_gives_zero_mean(self, rng):
        _, B = random_real_params(rng, 3)
        md = forward_moments(CanonicalPoint(np.zeros(3), B))
        assert np.max(np.abs(md.mu)) < 1e-12

    def test_diagonal_B_gives_diagonal_sigma(self):
        md = forward_moments(CanonicalPoint([0.1, -0.2], np.diag([0.8, 1.3])))
        assert abs(md.sigma[0, 1]) < 1e-12

    def test_consistent_with_distribution_mean_cov(self, rng):
        u, B = random_real_params(rng, 2)
        md = forward_moments(CanonicalPoint(u, B))
        mean, cov = DiscreteGaussian(u, B).mean_cov()
        assert np.allclose(md.mu, mean.real, atol=1e-11)
        assert np.allclose(md.sigma, cov.real, atol=1e-11)

    def test_mean_at_mahalanobis_distance_40(self):
        """Summed about the mode, a law whose sums about the origin
        overflow matches brute force over a cube about its mode."""
        from oracles import brute_pmf_about

        S = np.array([[1.0, 0.3], [0.3, 1.0]])
        B = np.linalg.inv(S) / TWO_PI
        B = 0.5 * (B + B.T)
        mu = 40.0 * np.linalg.cholesky(S) @ np.array([np.cos(0.7), np.sin(0.7)])
        md = forward_moments(CanonicalPoint(B @ mu, B))
        pmf = brute_pmf_about(B @ mu, B, np.round(mu), 12)
        cells = np.array(list(pmf), dtype=float)
        p = np.array(list(pmf.values()))
        mean = p @ cells
        cov = (cells - mean).T @ ((cells - mean) * p[:, None])
        assert np.allclose(md.mu, mean, rtol=1e-13, atol=0)
        assert np.allclose(md.sigma, cov, rtol=0, atol=1e-13)


class TestFit:
    def test_standard_discrete_gaussian(self):
        rep = fit(MomentData([0.0], [[1.0]]), tol=1e-9)
        assert rep.converged
        assert abs(rep.params.u[0]) < 1e-9
        assert rep.params.B[0, 0] == pytest.approx(0.1591549, abs=1e-6)

    def test_paper_sample_estimates(self):
        rep = fit_from_sample(SAMPLE_10, tol=1e-9)
        assert rep.params.u[0] == pytest.approx(0.023, abs=5e-4)
        assert rep.params.B[0, 0] == pytest.approx(0.0587, abs=5e-4)

    def test_report_contract(self):
        rep = fit(MomentData([0.3], [[0.5]]), tol=1e-9)
        assert rep.converged
        assert rep.grad_norm < 1e-9
        assert rep.iterations >= 0

    def test_roundtrip_param_to_param(self, rng):
        for g in (1, 2, 3):
            u, B = random_real_params(rng, g)
            p = CanonicalPoint(u, B)
            rep = fit(forward_moments(p), tol=1e-10)
            assert np.max(np.abs(rep.params.u - p.u)) < 1e-7
            assert np.max(np.abs(rep.params.B - p.B)) < 1e-7

    def test_roundtrip_target_to_target(self, rng):
        for g in (1, 2):
            mu = rng.uniform(-0.8, 0.8, g)
            A = rng.uniform(-0.4, 0.4, (g, g))
            sigma = A @ A.T + np.eye(g) * rng.uniform(0.5, 1.5)
            rep = fit(MomentData(mu, sigma), tol=1e-10)
            back = forward_moments(rep.params)
            assert np.max(np.abs(back.mu - mu)) < 1e-7
            assert np.max(np.abs(back.sigma - sigma)) < 1e-7

    def test_standard_multivariate_g2(self):
        rep = fit(MomentData(np.zeros(2), np.eye(2)), tol=1e-9)
        offdiag = rep.params.B[0, 1]
        assert abs(offdiag) < 1e-8
        for k in range(2):
            assert rep.params.B[k, k] == pytest.approx(0.1591549, abs=1e-6)
        assert np.max(np.abs(rep.params.u)) < 1e-9

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            fit(MomentData([0.0], [[1.0]]), tol=1e-11)

    def test_no_convergence_when_iterations_exhausted(self):
        with pytest.raises(NoConvergence):
            fit(MomentData([0.0], [[0.05]]), tol=1e-9, max_iterations=1)

    def test_small_variance_target_converges(self):
        # strongly discrete regime: far from the continuous-kernel start
        rep = fit(MomentData([0.0], [[0.05]]), tol=1e-9)
        back = forward_moments(rep.params)
        assert abs(back.mu[0]) < 1e-9
        assert back.sigma[0, 0] == pytest.approx(0.05, abs=1e-9)
        rep2 = fit(MomentData([0.4], [[0.3]]), tol=1e-9)
        back2 = forward_moments(rep2.params)
        assert back2.mu[0] == pytest.approx(0.4, abs=1e-9)
        assert back2.sigma[0, 0] == pytest.approx(0.3, abs=1e-9)

    def test_infeasible_lattice_target_raises(self):
        # no distribution on Z has mean 0.4 and variance 0.09: integer
        # support forces E[X^2] >= |E[X]|, i.e. sigma^2 > mu - mu^2 on [0,1];
        # the objective's infimum is not attained and the fit reports failure
        with pytest.raises(NoConvergence):
            fit(MomentData([0.4], [[0.09]]), tol=1e-9)


class TestShiftedTarget:
    """X + m has parameters (u + Bm, B): fitting mu + m gives the same B
    and u + Bm, in the same number of Newton steps."""

    CASES = [
        ([0.3, -0.2], [[1.0, 0.2], [0.2, 0.8]]),
        ([-0.45], [[0.6]]),
        ([0.1, 0.4, -0.3], [[0.9, 0.1, 0.0], [0.1, 1.2, -0.2], [0.0, -0.2, 0.7]]),
        ([0.2, 0.1], [[0.3, 0.1], [0.1, 0.25]]),  # small variance: several steps
    ]

    @pytest.mark.parametrize("mu, sigma", CASES)
    @pytest.mark.parametrize("scale", [1, 7, 40])
    def test_shift_moves_u_by_B_m(self, mu, sigma, scale):
        rng = np.random.default_rng(scale)
        m = scale * rng.integers(-3, 4, len(mu))
        base = fit(MomentData(mu, sigma))
        moved = fit(MomentData(np.add(mu, m), sigma))
        B = base.params.B
        assert np.max(np.abs(moved.params.B - B)) < 1e-9
        assert np.max(np.abs(moved.params.u - (base.params.u + B @ m))) < 1e-9 * max(
            1.0, np.max(np.abs(B @ m))
        )
        assert moved.iterations == base.iterations
        assert moved.grad_norm < 1e-9
        assert moved.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-9)


class TestNewtonPieces:
    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5
        for g in (1, 2):
            u, B = random_real_params(rng, g)
            mu_t = rng.uniform(-0.3, 0.3, g)
            A = rng.uniform(-0.3, 0.3, (g, g))
            sigma_t = A @ A.T + np.eye(g)
            S_t = sigma_t + np.outer(mu_t, mu_t)
            pairs = _triu_pairs(g)
            x0 = _pack(u, B, pairs)

            def F(x):
                uu = x[:g]
                BB = np.zeros((g, g))
                for k, (i, j) in enumerate(pairs):
                    BB[i, j] = BB[j, i] = x[g + k]
                t, _ = _real_moments(ThetaPoint(uu, BB), 0, 1e-13)
                return cross_entropy(np.log(t), uu, BB, mu_t, S_t)

            _, mus = _real_moments(ThetaPoint(u, B), 4, 1e-13)
            grad, _ = _grad_resid(mus, g, pairs, mu_t, S_t)
            for k in range(len(x0)):
                e = np.zeros_like(x0)
                e[k] = h
                fd = (F(x0 + e) - F(x0 - e)) / (2.0 * h)
                assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-8)

    def test_hessian_positive_definite_on_real_slice(self, rng):
        for g in (1, 2, 3):
            u, B = random_real_params(rng, g)
            _, mus = _real_moments(ThetaPoint(u, B), 4, 1e-12)
            H = _hessian(mus, g, _triu_pairs(g))
            assert np.max(np.abs(H - H.T)) < 1e-12
            assert np.linalg.eigvalsh(H)[0] > 0

    def test_hessian_matches_gradient_finite_differences(self, rng):
        g = 2
        u, B = random_real_params(rng, g)
        pairs = _triu_pairs(g)
        mu_t = np.zeros(g)
        S_t = np.eye(g)
        x0 = _pack(u, B, pairs)
        h = 1e-5

        def grad_at(x):
            uu = x[:g]
            BB = np.zeros((g, g))
            for k, (i, j) in enumerate(pairs):
                BB[i, j] = BB[j, i] = x[g + k]
            _, mus = _real_moments(ThetaPoint(uu, BB), 4, 1e-13)
            gr, _ = _grad_resid(mus, g, pairs, mu_t, S_t)
            return gr

        _, mus = _real_moments(ThetaPoint(u, B), 4, 1e-13)
        H = _hessian(mus, g, pairs)
        for k in range(len(x0)):
            e = np.zeros_like(x0)
            e[k] = h
            fd = (grad_at(x0 + e) - grad_at(x0 - e)) / (2.0 * h)
            assert np.max(np.abs(fd - H[:, k])) < 1e-5 * max(1.0, np.max(np.abs(H)))


class TestFitFromSample:
    def test_sample_statistics(self):
        data = np.asarray(SAMPLE_10, dtype=float)
        assert data.mean() == pytest.approx(0.4)
        assert data.std(ddof=1) == pytest.approx(1.6465, abs=1e-4)

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_from_sample([3, 3, 3, 3])

    def test_single_observation_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_from_sample([[1, 2]])

    def test_recovers_sampler_truth_at_large_n(self):
        truth = CanonicalPoint([0.1], [[0.8]])
        sample = tg.draw(truth, 100_000, tg.SamplerConfig(tail_eps=1e-9, seed=7))
        rep = fit_from_sample(sample, tol=1e-9)
        md = forward_moments(truth)
        n = len(sample)
        se_mu = np.sqrt(md.sigma[0, 0] / n)
        fitted = forward_moments(rep.params)
        assert abs(fitted.mu[0] - md.mu[0]) < 3 * se_mu
        # variance standard error ~ sigma^2 sqrt(2/(n-1)) for near-Gaussian data
        se_var = md.sigma[0, 0] * np.sqrt(2.0 / (n - 1))
        assert abs(fitted.sigma[0, 0] - md.sigma[0, 0]) < 3 * se_var


class TestNonFiniteParameters:
    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_parameter_types_reject(self, x):
        with pytest.raises(ValueError, match="finite"):
            CanonicalPoint([x], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            MomentData([x], [[1.0]])
        with pytest.raises(NonPositiveDefinite, match="finite"):
            CanonicalPoint([0.0], [[x]])
        with pytest.raises(NonPositiveDefinite, match="finite"):
            MomentData([0.0], [[x]])

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_sample_rejects(self, x):
        with pytest.raises(ValueError, match="finite"):
            fit_from_sample([[0.0], [1.0], [x], [2.0]])


class TestTwoPiConstant:
    def test_exact_inverse_two_pi_misses_unit_variance(self):
        # the Jacobi identity pins the duality
        #   Var[X_(0, 1/B)] = B/(2pi) - B^2 Var[X_(0, B)]
        # so at B = 2pi: Var[X_(0, 1/2pi)] = 1 - (2pi)^2 Var[X_(0, 2pi)],
        # a resolvable 2.1e-7 short of unit variance
        var_small = forward_moments(CanonicalPoint([0.0], [[1.0 / TWO_PI]])).sigma[0, 0]
        var_big = forward_moments(CanonicalPoint([0.0], [[TWO_PI]])).sigma[0, 0]
        assert var_small == pytest.approx(1.0 - TWO_PI**2 * var_big, abs=1e-12)
        assert var_big > 1e-9
        assert abs(var_small - 1.0) > 1e-8
        # so the fitted B is not exactly 1/(2*pi)
        rep = fit(MomentData([0.0], [[1.0]]), tol=1e-10)
        assert abs(rep.params.B[0, 0] - 1.0 / TWO_PI) > 1e-8
