import warnings

import numpy as np
import pytest

import thetagauss as tg
from thetagauss import DiscreteGaussian, SplitSpec
from thetagauss import distribution
from thetagauss.distribution import canonical_parameters, moment_covariance, moment_table
from thetagauss.engine import TWO_PI, lattice_points, truncation_radius
from thetagauss.errors import DivisorHit, NotUnimodular

from oracles import (
    brute_central_moment,
    brute_cumulant,
    brute_entropy,
    brute_marginal,
    brute_moment,
    brute_theta,
    cube,
    random_complex_params,
    random_real_params,
    weight,
)

THETA_0_1 = 1.0864348112133082
PMF_AT_0 = 1.0 / THETA_0_1          # 0.920442...
PMF_AT_1 = np.exp(-np.pi) / THETA_0_1  # 0.039775...
ENTROPY_0_1 = 0.33290152003105483   # frozen -sum p log p oracle value


def std1():
    return DiscreteGaussian([0.0], [[1.0]])


class TestConstruction:
    def test_divisor_guard(self):
        with pytest.raises(DivisorHit):
            DiscreteGaussian([0.5 + 0.5j], [[1.0]])

    def test_fields(self):
        d = std1()
        assert d.g == 1
        assert d.theta_value == pytest.approx(THETA_0_1, abs=1e-12)
        assert d.eps == 1e-12


class TestPmf:
    def test_standard_values(self):
        d = std1()
        assert d.pmf([0]).real == pytest.approx(PMF_AT_0, abs=1e-10)
        assert d.pmf([1]).real == pytest.approx(PMF_AT_1, abs=1e-10)
        assert d.pmf([1]) == pytest.approx(d.pmf([-1]), abs=1e-15)
        assert d.pmf([0]).real == pytest.approx(0.920442, abs=1e-6)
        assert d.pmf([1]).real == pytest.approx(0.039775, abs=1e-6)

    def test_independence_factorization(self):
        d = DiscreteGaussian([0.0, 0.0], np.eye(2))
        assert d.pmf([0, 0]).real == pytest.approx(PMF_AT_0**2, abs=1e-10)

    def test_real_case_strictly_positive(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        for n in lattice_points(2, 4.0):
            v = d.pmf(n)
            assert v.real > 0 and abs(v.imag) < 1e-15

    def test_normalization_complex(self, rng):
        for _ in range(6):
            g = int(rng.integers(1, 3))
            u, B = random_complex_params(rng, g)
            d = DiscreteGaussian(u, B)
            radius = truncation_radius(d.point.B, d.point.u, None, d.eps).radius
            total = sum(d.pmf(n) for n in lattice_points(g, radius))
            assert abs(total - 1.0) < 10.0 * d.eps


class TestCharFn:
    def test_at_zero(self, rng):
        u, B = random_complex_params(rng, 2)
        assert DiscreteGaussian(u, B).char_fn([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_pi_periodicity(self):
        # v = 2*pi makes e^{2*pi*i*n} = 1, so the value is back to 1
        assert std1().char_fn([TWO_PI]) == pytest.approx(1.0, abs=1e-10)

    def test_alternating_sum_at_pi(self):
        val = std1().char_fn([np.pi])
        brute = sum(
            (-1.0) ** n * np.exp(-np.pi * n * n) for n in range(-10, 11)
        ) / THETA_0_1
        assert val.real == pytest.approx(brute, abs=1e-10)
        assert val.real == pytest.approx(0.8409, abs=1e-4)


class TestMoments:
    def test_first_moment_vanishes_at_origin(self):
        assert abs(std1().moment([1])) < 1e-12

    def test_second_moment_value(self):
        assert std1().moment([2]).real == pytest.approx(0.0795776, abs=1e-6)
        assert std1().moment([2]).real == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-12)

    def test_zeroth_moment_is_one(self, rng):
        u, B = random_complex_params(rng, 2)
        assert DiscreteGaussian(u, B).moment([0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_agreement_all_orders(self, rng):
        from multiindex_helpers import all_indices

        for _ in range(4):
            g = int(rng.integers(1, 3))
            u, B = random_real_params(rng, g)
            d = DiscreteGaussian(u, B)
            for a in all_indices(g, 4):
                assert abs(d.moment(a) - brute_moment(u, B, a)) < 1e-8
                assert abs(d.central_moment(a) - brute_central_moment(u, B, a)) < 1e-8
                if sum(a) >= 1:
                    assert abs(d.cumulant(a) - brute_cumulant(u, B, a)) < 1e-8

    def test_oracle_agreement_complex(self, rng):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        for a in [(2, 0), (1, 1), (2, 1), (2, 2)]:
            assert abs(d.moment(a) - brute_moment(u, B, a)) < 1e-8
            assert abs(d.central_moment(a) - brute_central_moment(u, B, a)) < 1e-8
            assert abs(d.cumulant(a) - brute_cumulant(u, B, a)) < 1e-8

    def test_first_central_moment_vanishes(self, rng):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        assert abs(d.central_moment([1, 0])) < 1e-10
        assert abs(d.central_moment([0, 1])) < 1e-10

    def test_variance_from_central_moment(self):
        assert std1().central_moment([2]).real == pytest.approx(
            1.0 / (4.0 * np.pi), abs=1e-10
        )

    def test_cumulant_low_orders(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        # first cumulant = mean
        assert d.cumulant([1, 0]) == pytest.approx(d.moment([1, 0]), abs=1e-12)
        # second cumulants = central second moments = covariance entries
        _, cov = d.mean_cov()
        assert d.cumulant([1, 1]) == pytest.approx(complex(cov[0, 1]), abs=1e-11)
        assert d.cumulant([2, 0]) == pytest.approx(
            d.central_moment([2, 0]), abs=1e-11
        )

    def test_third_cumulant_equals_third_central(self):
        d = DiscreteGaussian([0.3], [[1.0]])
        assert d.cumulant([3]) == pytest.approx(d.central_moment([3]), abs=1e-11)

    def test_odd_cumulants_vanish_at_zero(self, rng):
        for B in (np.array([[1.0]]), np.array([[1.1, 0.2], [0.2, 0.9]])):
            g = len(B)
            d = DiscreteGaussian(np.zeros(g), B)
            from multiindex_helpers import all_indices

            for a in all_indices(g, 3):
                if sum(a) % 2 == 1:
                    assert abs(d.cumulant(a)) < 1e-11


class TestMeanCov:
    def test_mean_zero_at_origin(self, rng):
        _, B = random_real_params(rng, 3)
        mean, _ = DiscreteGaussian(np.zeros(3), B).mean_cov()
        assert np.max(np.abs(mean)) < 1e-12

    def test_g1_variance(self):
        _, cov = std1().mean_cov()
        assert cov[0, 0].real == pytest.approx(0.0795776, abs=1e-6)

    def test_real_case_spd(self, rng):
        u, B = random_real_params(rng, 3)
        _, cov = DiscreteGaussian(u, B).mean_cov()
        assert np.max(np.abs(cov.imag)) < 1e-13
        assert np.all(np.linalg.eigvalsh(cov.real) > 0)
        assert np.max(np.abs(cov - cov.T)) == 0.0

    def test_translation_shifts_moments_binomially(self, rng):
        u, B = random_real_params(rng, 1)
        d = DiscreteGaussian(u, B)
        shifted = d.translate([0], [2])
        # E[(X+2)^3] = sum C(3,k) 2^(3-k) E[X^k]
        expected = sum(
            [1, 3, 3, 1][k] * 2.0 ** (3 - k) * d.moment([k]) for k in range(4)
        )
        assert shifted.moment([3]) == pytest.approx(expected, abs=1e-9)
        # covariance invariant
        _, c0 = d.mean_cov()
        _, c1 = shifted.mean_cov()
        assert np.max(np.abs(c0 - c1)) < 1e-10


class TestEntropy:
    def test_standard_value_matches_frozen_oracle(self):
        val = std1().entropy()
        assert val.real == pytest.approx(ENTROPY_0_1, abs=1e-10)
        assert abs(val.imag) < 1e-12

    def test_brute_force_oracle(self, rng):
        for _ in range(4):
            g = int(rng.integers(1, 3))
            u, B = random_real_params(rng, g)
            d = DiscreteGaussian(u, B)
            assert d.entropy().real == pytest.approx(brute_entropy(u, B), abs=1e-8)

    def test_additive_over_independent_blocks(self, rng):
        u1, B1 = random_real_params(rng, 1)
        u2, B2 = random_real_params(rng, 1)
        B = np.block([[B1, np.zeros((1, 1))], [np.zeros((1, 1)), B2]])
        joint = DiscreteGaussian(np.concatenate([u1, u2]), B)
        h1 = DiscreteGaussian(u1, B1).entropy()
        h2 = DiscreteGaussian(u2, B2).entropy()
        assert joint.entropy() == pytest.approx(h1 + h2, abs=1e-10)

    def test_maximality_under_constrained_perturbation(self):
        # a 4-point mean- and variance-preserving perturbation of the pmf
        # strictly decreases entropy
        u, B = np.array([0.2]), np.array([[0.9]])
        d = DiscreteGaussian(u, B)
        radius = truncation_radius(d.point.B, d.point.u, None, 1e-12).radius
        pts = lattice_points(1, radius).ravel()
        p = np.array([d.pmf([n]).real for n in pts])
        support = [-1, 0, 1, 2]
        idx = [int(np.where(pts == n)[0][0]) for n in support]
        A = np.array(
            [[1.0] * 4, [float(n) for n in support], [float(n * n) for n in support]]
        )
        _, _, vh = np.linalg.svd(A)
        delta = vh[-1]  # mass-, mean- and second-moment-preserving direction
        assert np.max(np.abs(A @ delta)) < 1e-12
        h0 = float(-(p * np.log(p)).sum())
        t_max = 0.4 * float(np.min(p[idx] / np.abs(delta)))
        for t in (t_max, -t_max):
            q = p.copy()
            q[idx] += t * delta
            assert np.all(q > 0)
            h = float(-(q * np.log(q)).sum())
            assert h < h0


class TestMarginal:
    def test_block_diagonal_reduces_to_block_pmf(self):
        B = np.array([[1.1, 0.0], [0.0, 0.7]])
        u = np.array([0.2, -0.1])
        d = DiscreteGaussian(u, B)
        block = DiscreteGaussian(u[:1], B[:1, :1])
        for n1 in (-1, 0, 2):
            assert d.marginal_pmf(SplitSpec(1, 1), [n1]) == pytest.approx(
                block.pmf([n1]), abs=1e-12
            )

    def test_brute_force_marginalization(self):
        B = np.array([[1.0, 0.3], [0.3, 1.0]])
        d = DiscreteGaussian(np.zeros(2), B)
        assert d.marginal_pmf(SplitSpec(1, 1), [0]) == pytest.approx(
            complex(brute_marginal(np.zeros(2), B, 0)), abs=1e-9
        )

    def test_marginal_sums_to_one(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        total = sum(d.marginal_pmf(SplitSpec(1, 1), [n1]) for n1 in range(-9, 10))
        assert abs(total - 1.0) < 1e-8

    def test_split_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0, 2)
        d = DiscreteGaussian(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            d.marginal_pmf(SplitSpec(1, 2), [0])


class TestTranslate:
    def test_imaginary_shift_keeps_pmf(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        shifted = d.translate([3, -2], [0, 0])
        for n in ([0, 0], [1, -1], [-2, 1]):
            assert shifted.pmf(n) == pytest.approx(d.pmf(n), abs=1e-12)

    def test_lattice_shift_translates_pmf(self):
        d = std1()
        shifted = d.translate([0], [1])
        assert shifted.pmf([1]).real == pytest.approx(PMF_AT_0, abs=1e-10)
        assert shifted.pmf([1]).real == pytest.approx(0.920442, abs=1e-6)

    def test_mean_shifts_by_n(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        n = np.array([2, -1])
        m0, _ = d.mean_cov()
        m1, _ = d.translate([0, 0], n).mean_cov()
        assert np.allclose(m1, m0 + n, atol=1e-10)


class TestUnimodular:
    def test_identity(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        da = d.unimodular(np.eye(2, dtype=int))
        assert np.allclose(da.u, d.u) and np.allclose(da.B, d.B)

    def test_negation_gives_parity(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        dneg = d.unimodular(-np.eye(2, dtype=int))
        for k in ([1, 0], [1, -2], [0, 3]):
            assert dneg.pmf(k) == pytest.approx(d.pmf([-x for x in k]), abs=1e-12)

    def test_law_of_alpha_x(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        alpha = np.array([[1, 1], [0, 1]])
        da = d.unimodular(alpha)
        for k in ([0, 0], [1, -1], [2, 1]):
            k = np.array(k)
            assert da.pmf(alpha @ k) == pytest.approx(d.pmf(k), abs=1e-12)
        m0, c0 = d.mean_cov()
        m1, c1 = da.mean_cov()
        assert np.allclose(m1, alpha @ m0, atol=1e-9)
        assert np.allclose(c1, alpha @ c0 @ alpha.T, atol=1e-9)

    def test_rejects_non_unimodular(self):
        d = DiscreteGaussian(np.zeros(2), np.eye(2))
        with pytest.raises(NotUnimodular):
            d.unimodular(np.array([[2, 0], [0, 1]]))

    @pytest.mark.parametrize(
        "alpha",
        [
            [[2**63, 1], [1, 0]],
            [[1e300, 1], [1, 0]],
            [[np.inf, 0], [0, 1]],
            [[1, 2**40, 0], [0, 1, 2**40], [0, 0, 1]],  # det 1, an inverse entry 2^80
        ],
        ids=["2**63", "1e300", "inf", "inverse_2**80"],
    )
    def test_rejects_entries_beyond_the_int64_range(self, alpha):
        """Entries beyond 2^53, of alpha or of its inverse, are refused
        before any cast to int64 (which would warn and wrap)."""
        g = len(alpha)
        d = DiscreteGaussian(np.zeros(g), np.eye(g))
        with pytest.raises(NotUnimodular, match="2\\^53"):
            d.unimodular(alpha)


class TestCanonicalize:
    def test_real_parameters_unchanged(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        c, (a, beta) = d.canonicalize()
        assert np.array_equal(a, np.zeros(2, dtype=int))
        assert np.array_equal(beta, np.zeros((2, 2), dtype=int))
        assert np.allclose(c.u, d.u) and np.allclose(c.B, d.B)

    def test_imaginary_integer_B_shift_removed(self):
        d = DiscreteGaussian([0.1], [[1.0 + 3.0j]])
        c, (a, beta) = d.canonicalize()
        assert beta[0, 0] == 3
        assert abs(c.B[0, 0].imag) < 1e-14
        for n in (-2, -1, 0, 1, 2):
            assert c.pmf([n]) == pytest.approx(d.pmf([n]), abs=1e-12)

    def test_canonical_ranges(self, rng):
        for _ in range(6):
            u, B = random_complex_params(rng, 2)
            B = B + 1j * np.array([[2, 5], [5, -3]])
            d = DiscreteGaussian(u, B)
            c, _ = d.canonicalize()
            assert np.all(c.B.imag >= 0) and np.all(c.B.imag < 1)
            assert np.all(c.u.imag >= 0) and np.all(c.u.imag < 1)
            # pmf unchanged pointwise
            for n in ([0, 0], [1, -1]):
                assert c.pmf(n) == pytest.approx(d.pmf(n), abs=1e-11)

    def test_idempotent(self, rng):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        c1, _ = d.canonicalize()
        c2, w = c1.canonicalize()
        assert np.array_equal(w[0], np.zeros(2, dtype=int))
        assert np.array_equal(w[1], np.zeros((2, 2), dtype=int))
        assert np.allclose(c1.u, c2.u) and np.allclose(c1.B, c2.B)


class TestSameDistribution:
    def test_imaginary_translate_equivalent(self, rng):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        assert d.same_distribution(d.translate([2, -1], [0, 0]))

    def test_lattice_translate_not_equivalent(self, rng):
        u, B = random_real_params(rng, 2)
        d = DiscreteGaussian(u, B)
        assert not d.same_distribution(d.translate([0, 0], [1, 0]))

    def test_integer_shear_action_equivalent(self, rng):
        for _ in range(6):
            u, B = random_complex_params(rng, 2)
            d = DiscreteGaussian(u, B)
            beta = rng.integers(-3, 4, (2, 2))
            beta = beta + beta.T
            a = rng.integers(-3, 4, 2)
            twin = DiscreteGaussian(
                u + 1j * (0.5 * np.diag(beta) + a), B - 1j * beta
            )
            assert d.same_distribution(twin)
            # and the pmfs really agree pointwise
            for n in ([0, 0], [1, -1], [-2, 2]):
                assert twin.pmf(n) == pytest.approx(d.pmf(n), abs=1e-11)


class TestCanonicalParameters:
    def test_inverts_the_integer_shift_action(self, rng):
        for _ in range(4):
            u, B = random_real_params(rng, 2)
            beta = rng.integers(-3, 4, (2, 2))
            beta = beta + beta.T
            a = rng.integers(-3, 4, 2)
            cu, cB, (wa, wbeta) = canonical_parameters(
                u + 1j * (0.5 * np.diag(beta) + a), B - 1j * beta
            )
            assert np.array_equal(cu, u) and np.array_equal(cB, B)
            assert np.array_equal(wbeta, -beta) and np.array_equal(wa, -a)

    def test_same_distribution_evaluates_no_theta(self, rng, monkeypatch):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        twin = d.translate([2, -1], [0, 0])

        def boom(*args, **kwargs):
            raise AssertionError("theta evaluated")

        monkeypatch.setattr(distribution, "theta", boom)
        monkeypatch.setattr(distribution, "ThetaPoint", boom)
        assert d.same_distribution(twin)


class TestIndependence:
    def test_block_diagonal_true_and_factorizes(self, rng):
        u1, B1 = random_real_params(rng, 1)
        u2, B2 = random_real_params(rng, 1)
        B = np.block([[B1, np.zeros((1, 1))], [np.zeros((1, 1)), B2]])
        d = DiscreteGaussian(np.concatenate([u1, u2]), B)
        s = SplitSpec(1, 1)
        assert d.is_independent_split(s)
        p1 = DiscreteGaussian(u1, B1)
        p2 = DiscreteGaussian(u2, B2)
        for n in ([0, 0], [1, -1], [2, 1]):
            assert abs(d.pmf(n) - p1.pmf(n[:1]) * p2.pmf(n[1:])) < 1e-10

    def test_imaginary_integer_offdiagonal_true(self):
        B = np.array([[1.0, 2.0j], [2.0j, 1.2]])
        d = DiscreteGaussian([0.0, 0.0], B)
        assert d.is_independent_split(SplitSpec(1, 1))

    def test_real_coupling_false_and_correlated(self):
        B = np.array([[1.0, 0.3], [0.3, 1.0]])
        d = DiscreteGaussian([0.1, -0.2], B)
        assert not d.is_independent_split(SplitSpec(1, 1))
        _, cov = d.mean_cov()
        assert abs(cov[0, 1]) > 1e-4


class TestCumulantTable:
    def test_one_recursion_per_order(self, monkeypatch):
        from thetagauss import distribution
        from multiindex_helpers import all_indices

        calls = []
        original = distribution.moments_to_cumulants

        def counting(moments, g):
            calls.append(g)
            return original(moments, g)

        monkeypatch.setattr(distribution, "moments_to_cumulants", counting)
        u, B = np.array([0.1, -0.05, 0.2]), np.eye(3) * 0.9
        d = DiscreteGaussian(u, B)
        fourth = [a for a in all_indices(3, 4) if sum(a) == 4]
        values = [d.cumulant(a) for a in fourth]
        assert len(calls) == 1
        assert values == [DiscreteGaussian(u, B).cumulant(a) for a in fourth]

    def test_lower_order_after_higher_matches_fresh(self):
        u, B = np.array([0.2, -0.1]), np.array([[1.0, 0.2], [0.2, 0.8]])
        d = DiscreteGaussian(u, B)
        d.cumulant((1, 1))
        d.cumulant((2, 2))  # refreshes the derivative table at order 4
        fresh = DiscreteGaussian(u, B)
        fresh.cumulant((2, 2))
        assert d.cumulant((1, 1)) == fresh.cumulant((1, 1))

    def test_array_tables_are_left_unchanged(self, rng):
        points = [random_complex_params(rng, 2) for _ in range(3)]
        B = points[0][1]
        tables = [DiscreteGaussian(u, B)._moment_table(3) for u, _ in points]
        stacked = {a: np.array([t[a] for t in tables]) for a in tables[0]}
        before = {a: v.copy() for a, v in stacked.items()}
        kappa = tg.moments_to_cumulants(stacked, 2)
        for a in stacked:
            assert np.array_equal(stacked[a], before[a])
        for j, t in enumerate(tables):
            scalar = tg.moments_to_cumulants(t, 2)
            for a, v in scalar.items():
                assert kappa[a][j] == pytest.approx(v, rel=1e-13, abs=1e-15)


class TestMomentLayer:
    def test_stacked_table_matches_each_point(self, rng):
        _, B = random_complex_params(rng, 2)
        U = np.array([random_complex_params(rng, 2)[0] for _ in range(4)])
        idx = tg.multiindex.indices_up_to(2, 3)
        derivs = tg.theta_du_stack(idx, U, B)
        stacked = moment_table(dict(zip(idx, derivs.T)))
        for r in range(len(U)):
            scalar = moment_table(dict(zip(idx, derivs[r])))
            assert all(stacked[a][r] == scalar[a] for a in idx)

    def test_covariance_of_monomials_against_brute_force(self, rng):
        u, B = random_real_params(rng, 2)
        monomials = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        C = moment_covariance(DiscreteGaussian(u, B)._moment_table(4), monomials)
        pts = np.array(cube(2, 12), dtype=float)
        p = np.array([weight(n, u, B) for n in pts])
        p /= p.sum()
        X = np.array([[np.prod(n**a) for a in monomials] for n in pts])
        Xc = X - p @ X
        assert np.allclose(C, (Xc * p[:, None]).T @ Xc, rtol=0, atol=1e-10)
        assert np.array_equal(C, C.T)


def test_overflowing_parameters_raise_typed_error():
    # mean at Mahalanobis distance ~52: the summands exceed double range
    sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
    B = np.linalg.inv(sigma) / TWO_PI
    with pytest.raises(tg.errors.ToleranceUnreachable):
        DiscreteGaussian(B @ np.array([38.0, -19.0]), B)
    with pytest.raises(tg.errors.ToleranceUnreachable):
        DiscreteGaussian([25.0], [[1.0]])


def _recursion_term_by_term(moments, g):
    """The moment-cumulant recursion written out term by term, each term's
    indices and binomial computed where it is used."""
    from itertools import product
    from math import comb, prod

    kappa = {}
    for a in sorted((k for k in moments if sum(k) >= 1), key=sum):
        i = next(k for k in range(g) if a[k] > 0)
        ap = tuple(x - (k == i) for k, x in enumerate(a))
        acc = moments[a]
        for b in product(*[range(x + 1) for x in ap]):
            if b == ap:
                continue
            c = prod(comb(x, y) for x, y in zip(ap, b))
            bi = tuple(x + (k == i) for k, x in enumerate(b))
            rest = tuple(x - y for x, y in zip(ap, b))
            acc = acc - c * kappa[bi] * moments[rest]
        kappa[a] = acc
    return kappa


class TestCumulantPlan:
    def _table(self, rng, g, order):
        u, B = random_complex_params(rng, g)
        return DiscreteGaussian(u, B)._moment_table(order)

    @pytest.mark.parametrize("g, order", [(1, 4), (2, 4), (3, 3)])
    def test_bit_identical_to_term_by_term_recursion(self, rng, g, order):
        table = self._table(rng, g, order)
        assert tg.moments_to_cumulants(table, g) == _recursion_term_by_term(table, g)

    def test_same_values_in_another_key_order(self, rng):
        table = self._table(rng, 2, 4)
        keys = list(table)
        reordered = [keys[::-1], [keys[j] for j in rng.permutation(len(keys))]]
        kappa = tg.moments_to_cumulants(table, 2)
        for order in reordered:
            other = tg.moments_to_cumulants({a: table[a] for a in order}, 2)
            assert other == kappa

    def test_same_stacked_values_in_another_key_order(self, rng):
        _, B = random_complex_params(rng, 2)
        U = np.array([random_complex_params(rng, 2)[0] for _ in range(3)])
        idx = tg.multiindex.indices_up_to(2, 3)
        table = moment_table(dict(zip(idx, tg.theta_du_stack(idx, U, B).T)))
        kappa = tg.moments_to_cumulants(table, 2)
        other = tg.moments_to_cumulants({a: table[a] for a in reversed(idx)}, 2)
        assert all(np.array_equal(other[a], kappa[a]) for a in kappa)

    @pytest.mark.parametrize("missing", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_missing_ancestor_moment_raises_key_error(self, rng, missing):
        table = self._table(rng, 2, 3)
        del table[missing]
        with pytest.raises(KeyError):
            tg.moments_to_cumulants(table, 2)


class TestPmfLatticePoints:
    """The pmf and the marginal pmf are masses at lattice points: a point
    off the lattice, or of the wrong length, is a ValueError."""

    def law_g2(self):
        return DiscreteGaussian([0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]])

    @pytest.mark.parametrize("n", [[0.5], [1e-3], [np.nan], [0, 0], 1])
    def test_pmf_rejects(self, n):
        with pytest.raises(ValueError):
            std1().pmf(n)

    @pytest.mark.parametrize("n1", [[0.5], [-1.25], [0, 1]])
    def test_marginal_pmf_rejects(self, n1):
        with pytest.raises(ValueError):
            self.law_g2().marginal_pmf(SplitSpec(1, 1), n1)

    def test_integer_points_of_any_type(self):
        d = std1()
        for n in ([1], [1.0], np.array([1], dtype=np.int64), (1,)):
            assert d.pmf(n) == pytest.approx(PMF_AT_1, rel=1e-13)
        law = self.law_g2()
        assert law.marginal_pmf(SplitSpec(1, 1), [1.0]) == law.marginal_pmf(SplitSpec(1, 1), [1])

    def test_pmf_matches_the_summand(self, rng):
        u, B = random_complex_params(rng, 2)
        d = DiscreteGaussian(u, B)
        for n in ([0, 0], [2, -1], [-3, 4]):
            assert d.pmf(n) == pytest.approx(weight(np.array(n), u, B) / d.theta_value, rel=1e-12)

    def test_point_far_outside_any_ball_underflows_to_zero(self):
        """A single term needs no ball: its exp underflows to 0, with no
        warning, for a real and for a complex law."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert std1().pmf([10**9]) == 0
            assert DiscreteGaussian([0.1 + 0.2j], [[1.0 + 0.5j]]).pmf([10**9]) == 0

    @pytest.mark.parametrize("n", [[2.0**63], [1e300], [-(2**63)]])
    def test_points_beyond_int64_are_value_errors(self, n):
        with pytest.raises(ValueError):
            std1().pmf(n)
        with pytest.raises(ValueError):
            std1().translate([0], n)
