"""The maximum-entropy duality of the discrete Gaussian family.

The fit minimises the cross-entropy of the target's moments under the law
(distribution.cross_entropy).  Where the moments match, that cross-entropy
is the law's own entropy (Cover & Thomas, Elements of Information Theory,
Thm 12.1.1), so at convergence FitReport.objective equals the entropy of
the fitted law.
"""

import numpy as np
import pytest

from thetagauss import CanonicalPoint, DiscreteGaussian, MomentData, fit, forward_moments
from thetagauss.distribution import cross_entropy
from thetagauss.properties import random_real_params

TOL = 1e-9
PER_GENUS = 8


def _target(g: int, k: int) -> MomentData:
    """The moments of a random real law, its mean moved by integers in
    [-5, 5], so the fit runs on its shifted target too."""
    rng = np.random.default_rng([g, k])
    u, B = random_real_params(rng, g)
    md = forward_moments(CanonicalPoint(u, B))
    return MomentData(md.mu + rng.integers(-5, 6, g), md.sigma)


@pytest.mark.parametrize("k", range(PER_GENUS))
@pytest.mark.parametrize("g", [1, 2, 3])
def test_fit_objective_is_the_entropy_of_the_fitted_law(g, k):
    report = fit(_target(g, k), TOL)
    assert report.converged
    law = DiscreteGaussian(report.params.u, report.params.B)
    assert abs(report.objective - law.entropy()) <= 100 * TOL


@pytest.mark.parametrize("g", [1, 2, 3])
def test_nearby_laws_give_the_target_a_larger_cross_entropy(g):
    """The objective is a minimum: moving the fitted parameters raises the
    cross-entropy of the target above the fitted law's entropy."""
    target = _target(g, 0)
    report = fit(target, TOL)
    second = target.sigma + np.outer(target.mu, target.mu)
    rng = np.random.default_rng(g)
    for _ in range(5):
        A = rng.standard_normal((g, g))
        du, dB = 1e-3 * rng.standard_normal(g), 1e-3 * (A + A.T)
        law = DiscreteGaussian(report.params.u + du, report.params.B + dB)
        h = cross_entropy(np.log(law.theta_value), law.u, law.B, target.mu, second)
        assert h.real > report.objective
