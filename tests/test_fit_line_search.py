"""The fit's line search near the solution, where the objective changes by
less than its own rounding."""

import math

import pytest

from thetagauss.fitting import CanonicalPoint, fit, forward_moments

# A g = 2 target whose fit stalled in the line search at tol 1e-9: 200
# iterations with the residual stuck near 3e-9, while the same parameters
# rounded to 8 digits converged in 3 iterations.
STALLED = CanonicalPoint(
    [1.6141773262213888, 3.217572246150951],
    [[0.3914612255477751, 0.056039001719784445], [0.056039001719784445, 0.2732706779760026]],
)


def test_rounding_does_not_stall_the_line_search():
    report = fit(forward_moments(STALLED), 1e-9, max_iterations=30)
    assert report.converged and report.grad_norm < 1e-9
    assert report.params.u == pytest.approx(STALLED.u, abs=1e-6)
    assert report.params.B == pytest.approx(STALLED.B, abs=1e-6)
    assert math.isfinite(report.objective)
