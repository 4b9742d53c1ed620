"""Finite arguments whose arithmetic leaves double range: every call returns
a finite value or raises ToleranceUnreachable (CLI exit 3), with no
warning on the way."""

import math
import warnings

import numpy as np
import pytest

from thetagauss import CanonicalPoint, DiscreteGaussian, MomentData, SamplerConfig, draw, fit, support_radius
from thetagauss.engine import ThetaPoint, _tail_bound, theta, truncation_radius
from thetagauss.errors import ToleranceUnreachable
from thetagauss.fitting import forward_moments

from test_cli import run, strict_loads, write_params


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("B", [1.0, 1e300])
@pytest.mark.parametrize("u", [1e154, 1e155, 1e200, 1e308])
def test_truncation_radius_at_far_u(u, B):
    try:
        radius = truncation_radius([[B]], [u]).radius
        value = theta(ThetaPoint([u], [[B]]))
    except ToleranceUnreachable:
        return
    assert math.isfinite(radius) and np.isfinite(value)


def test_radius_where_rho_squared_is_finite_is_unchanged():
    # rho = 1e154, rho^2 = 1e308: the narrow law certifies its first ball
    assert truncation_radius([[1e300]], [1e154]).radius == 1.0
    assert theta(ThetaPoint([1e154], [[1e300]])) == 1.0


FAR_MODES = {
    "u_1e20": ([1e20], [[1.0]]),
    "u_1e308_along_the_small_eigenvector": ([1e308, -1e308], [[2.0, 1.9], [1.9, 2.0]]),
}


@pytest.mark.parametrize("u, B", FAR_MODES.values(), ids=FAR_MODES.keys())
@pytest.mark.parametrize(
    "call",
    [
        lambda p: draw(p, 10, SamplerConfig()),
        lambda p: support_radius(p, 1e-9),
        forward_moments,
    ],
    ids=["draw", "support_radius", "forward_moments"],
)
def test_mode_beyond_exact_lattice_points(u, B, call):
    with pytest.raises(ToleranceUnreachable, match="mode of the law"):
        call(CanonicalPoint(u, B))


def test_fitted_u_beyond_double_range():
    with pytest.raises(ToleranceUnreachable, match="fitted u"):
        fit(MomentData([1e300], [[1e-300]]), 1e-6)


@pytest.mark.parametrize("B", [[[300.0]], np.diag([1000.0, 1.0])], ids=["B_300", "diag_1000_1"])
def test_law_narrower_than_double_precision(B):
    """The law's covariance underflows to 0: the error names it, not a
    target sigma the caller never gave."""
    with pytest.raises(ToleranceUnreachable, match="law's covariance"):
        forward_moments(CanonicalPoint(np.zeros(len(B)), B))


def test_narrow_law_that_resolves_keeps_its_variance():
    # the mass off the origin is 2 exp(-100 pi) at n = +-1, to rel 1e-136
    var = forward_moments(CanonicalPoint([0.0], [[100.0]])).sigma[0, 0]
    assert var == pytest.approx(2.0 * math.exp(-100.0 * math.pi), rel=1e-12)


@pytest.mark.parametrize(
    "argv, u",
    [
        (["theta"], 1e155),
        (["sample", "--count", "10"], 1e20),
        (["fit", "--mu", "[1e300]", "--sigma", "[[1e-300]]", "--tol", "1e-6"], None),
    ],
    ids=["theta_u_1e155", "sample_u_1e20", "fit_mu_1e300"],
)
def test_cli_exits_3(tmp_path, argv, u):
    if u is not None:
        argv = argv + ["--params", write_params(tmp_path / "p.json", [[1.0]], [u])]
    code, text = run(tmp_path, argv)
    assert code == 3
    assert strict_loads(text)["error"] == "ToleranceUnreachable"


@pytest.mark.parametrize("a", [None, (4,)], ids=["theta", "order_4"])
@pytest.mark.parametrize("B", [1e300, 1e308, 1.7e308])
def test_radius_near_the_top_of_double_range(B, a):
    """2 lam, or 2 lam q, beyond double range: the search starts at 1, and
    every shell past the first ball underflows."""
    assert truncation_radius([[B]], [0.0], a).radius == 1.0


@pytest.mark.parametrize("q", [0, 4])
def test_tail_bound_where_every_shell_term_underflows(q):
    """The shells past the head sum to 0, not to a nan formed from the
    ratio -inf - (-inf) of two underflowed logs."""
    assert _tail_bound(1, 1e308, 0.0, q, 1) == 0.0


def test_theta_at_b_1e308():
    assert theta(ThetaPoint([0.0], [[1e308]])) == 1.0


def test_law_at_b_1e308():
    assert DiscreteGaussian([0.0], [[1e308]]).pmf([0]) == 1.0


def test_moments_of_a_law_too_narrow_near_the_top_of_double_range():
    with pytest.raises(ToleranceUnreachable, match="law's covariance"):
        forward_moments(CanonicalPoint([-1.0], [[5.6e307]]))


@pytest.mark.parametrize("make", [CanonicalPoint, MomentData], ids=["CanonicalPoint", "MomentData"])
@pytest.mark.parametrize("M", [[[1e308]], [[1e308, 9e307], [9e307, 1.7e308]]], ids=["1x1", "2x2"])
def test_symmetrising_a_matrix_near_the_top_of_double_range(make, M):
    held = make([0.0] * len(M), M)
    assert np.array_equal(held.B if make is CanonicalPoint else held.sigma, M)


def test_cli_theta_at_b_1e308(tmp_path):
    code, text = run(tmp_path, ["theta", "--params", write_params(tmp_path / "p.json", [[1e308]])])
    assert code == 0
    doc = strict_loads(text)
    assert doc["result"]["theta"] == [1.0, 0.0] and doc["diagnostics"]["radius"] == 1.0


def test_cli_fit_reports_a_finite_eigenvalue_near_the_top_of_double_range(tmp_path):
    code, text = run(tmp_path, ["fit", "--mu", "[0.0]", "--sigma", "[[1e308]]"])
    assert code == 3
    assert "1.000e+308" in strict_loads(text)["message"]
