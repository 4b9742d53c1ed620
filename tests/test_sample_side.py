"""The sample side: the support held on the law's point, coordinate-major
counting and sample moments, and the inputs that used to overflow in a
numpy cast or product before any typed error."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from thetagauss import CanonicalPoint, SamplerConfig, fitting, sampler
from thetagauss.sampler import chi_square, draw

FAR_G2 = ([1.9, -0.7], [[0.17, 0.05], [0.05, 0.17]])

LAWS = {
    1: ([3.7], [[0.11]]),
    2: FAR_G2,
    3: ([2.0, -1.0, 0.5], [[0.2, 0.05, 0.0], [0.05, 0.15, 0.02], [0.0, 0.02, 0.3]]),
}


def far_point():
    return CanonicalPoint(*FAR_G2)


class TestSupportHeldOnPoint:
    @pytest.fixture
    def certified(self, monkeypatch):
        """The eps of every truncation_radius call of the sampler: the
        tail bound tail_eps * theta(u - Bm, B) of a support."""
        calls = []
        certify = sampler.truncation_radius

        def counting(B, u, a, eps):
            calls.append(eps)
            return certify(B, u, a, eps)

        monkeypatch.setattr(sampler, "truncation_radius", counting)
        return calls

    def test_draw_then_chi_square_certify_once(self, certified):
        p = far_point()
        x = draw(p, 2000, SamplerConfig(seed=3))
        chi_square(x, p)
        assert sampler.support_radius(p, 1e-9) > 0
        assert len(certified) == 1

    def test_fresh_equal_point_gives_the_same_statistic(self):
        p = far_point()
        x = draw(p, 2000, SamplerConfig(seed=3))
        assert chi_square(x, p) == chi_square(x, far_point())

    def test_support_is_keyed_by_tail_eps(self, certified):
        p = far_point()
        x = draw(p, 2000, SamplerConfig(tail_eps=1e-6, seed=3))
        stat = chi_square(x, p)
        assert len(certified) == 2
        assert certified[0] / certified[1] == pytest.approx(1e3, rel=1e-12)  # one theta
        assert np.array_equal(x, draw(far_point(), 2000, SamplerConfig(tail_eps=1e-6, seed=3)))
        assert stat == chi_square(x, far_point())

    def test_held_support_is_read_only(self):
        p = far_point()
        pts, weights, _, _ = sampler._support_weights(p, 1e-9)
        assert not pts.flags.writeable and not weights.flags.writeable
        x = draw(p, 10, SamplerConfig())
        assert x.flags.writeable and not np.shares_memory(x, pts)


class TestCanonicalPointCopies:
    def test_mutating_the_source_arrays_leaves_the_point(self):
        u = np.array([0.1, 0.2])
        B = np.array([[1.0, 0.25], [0.25, 1.0]])
        p = CanonicalPoint(u, B)
        u[0] = 5.0
        B[0, 0] = 9.0
        assert p.u.tolist() == [0.1, 0.2]
        assert p.B.tolist() == [[1.0, 0.25], [0.25, 1.0]]

    def test_arrays_are_read_only(self):
        p = CanonicalPoint(np.array([0.1, 0.2]), np.eye(2))
        assert not p.u.flags.writeable and not p.B.flags.writeable
        with pytest.raises(ValueError):
            p.u[0] = 5.0
        with pytest.raises(ValueError):
            p.B[0, 0] = 5.0


class TestChiSquareFarFloatRows:
    @pytest.mark.parametrize("far", [1e300, 2.0**63, -1e300, -(2.0**63)])
    def test_pooled_without_a_cast_warning(self, far):
        p = far_point()
        x = draw(p, 2000, SamplerConfig(seed=5)).astype(float)
        with_far, with_million = x.copy(), x.copy()
        with_far[7] = [far, 0.0]
        with_million[7] = [10**6, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi_square(with_far, p) == chi_square(with_million, p)


class TestSampleMoments:
    @pytest.fixture
    def captured_target(self, monkeypatch):
        targets = []
        monkeypatch.setattr(fitting, "fit", lambda target, tol: targets.append(target))
        return targets

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_moments_match_the_fraction_reference(self, g, captured_target):
        """The mean is the exact mean rounded once, bit for bit.  The
        covariance is a float sum, whose rounding grows like sqrt(N) ulps;
        at N = 2,000 it lies well inside rel 1e-14 of the exact one."""
        x = draw(CanonicalPoint(*LAWS[g]), 2000, SamplerConfig(seed=g))
        fitting.fit_from_sample(x)
        (target,) = captured_target
        n, rows = len(x), x.tolist()
        mean = [Fraction(sum(r[i] for r in rows), n) for i in range(g)]
        assert target.mu.tolist() == [float(m) for m in mean]
        ref = np.array(
            [
                [
                    float((sum(Fraction(r[i] * r[j]) for r in rows) - n * mean[i] * mean[j]) / (n - 1))
                    for j in range(g)
                ]
                for i in range(g)
            ]
        )
        assert np.max(np.abs(target.sigma - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSampleMomentsOverflow:
    @pytest.mark.parametrize(
        "data", [[[1e300], [0.0], [1.0]], [[1e170, 0.0], [0.0, 1.0], [1.0, 2.0]]]
    )
    def test_value_error_without_a_numpy_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow double precision"):
                fitting.fit_from_sample(data)


class TestIntegersBeyondInt64:
    """Python ints beyond the int64 range give a pooled row or a typed
    error, never a numpy TypeError or OverflowError."""

    def test_chi_square_pools_a_far_row_within_the_float_range(self):
        p = CanonicalPoint([0.0], [[0.1]])
        near = [[0]] * 50
        assert chi_square(near + [[10**30]], p) == chi_square(near + [[10**6]], p)

    @pytest.mark.parametrize("row", [[10**400], ["a"], [1 + 1j]])
    def test_chi_square_refuses_a_row_that_is_no_finite_real(self, row):
        from thetagauss.errors import InvalidParameters

        with pytest.raises(InvalidParameters):
            chi_square([[0]] * 50 + [row], CanonicalPoint([0.0], [[0.1]]))

    def test_fit_from_sample_refuses_an_int_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="finite"):
            fitting.fit_from_sample([[0], [1], [10**400]])
