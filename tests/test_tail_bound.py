"""The closed-form tail bound behind every truncation radius.

engine._tail_bound is a head term for the sup-norm shells inside the ball
plus a geometric series past it, whose ratio is that of the first two
shell terms.  These tests check it against the explicit shell sum and the
brute-force lattice tail, pin the radii it certifies at small lambda_min,
and pin the floating-point defect the certificate does not yet cover.
"""

import math

import numpy as np
import pytest

from thetagauss import engine
from thetagauss.engine import ThetaPoint, theta, truncation_radius

from oracles import cube, mp_theta_du


def shell_count(g, m):
    """(2m+1)^g - (2m-1)^g as a sum of positive terms, float-safe for
    arrays of m: 2 sum_{k odd} C(g, k) (2m)^(g-k)."""
    return sum(2.0 * math.comb(g, k) * (2.0 * m) ** (g - k) for k in range(1, g + 1, 2))


def search_start(g, lam, rho, q):
    """The first radius truncation_radius tries: past the peak of the
    shell-term profile and past rho / lam."""
    q_eff = q + g - 1
    peak = (rho + math.sqrt(rho * rho + 2.0 * lam * q_eff / math.pi)) / (2.0 * lam)
    return max(1, math.ceil(rho / lam), math.ceil(peak))


def shell_sum(g, lam, rho, q, R):
    """The head term of _tail_bound plus the shell terms t(m), m > ceil(R),
    summed explicitly (math.fsum) until they underflow."""
    M = math.ceil(R)
    log_head = (
        q * math.log(engine.TWO_PI)
        + g * math.log(2 * M + 1)
        + q * math.log(M)
        + engine.TWO_PI * (rho * R - 0.5 * lam * R * R)
    )
    terms = [math.exp(log_head)]
    lo, step = M + 1, math.ceil(64 + 2 * math.sqrt(800 / (math.pi * lam)))
    while True:
        m = np.arange(lo, lo + step, dtype=float)
        log_t = (
            q * math.log(engine.TWO_PI)
            + np.log(shell_count(g, m))
            + q * np.log(m)
            + engine.TWO_PI * (rho * m - 0.5 * lam * m * m)
        )
        terms.extend(np.exp(log_t).tolist())
        if log_t[-1] < -800.0:
            return math.fsum(terms)
        lo += step


def random_cases(rng, count, g_max, lam_min):
    """(g, lam, rho, q, R): lam log-uniform in [lam_min, 3], rho <= 3 and at
    most 4 sqrt(lam) (so the head term is finite at the search start), q <= 4
    and R from the search start to 40 past it."""
    for _ in range(count):
        g = int(rng.integers(1, g_max + 1))
        lam = float(np.exp(rng.uniform(math.log(lam_min), math.log(3.0))))
        rho = float(rng.uniform(0.0, min(3.0, 4.0 * math.sqrt(lam))))
        q = int(rng.integers(0, 5))
        R = search_start(g, lam, rho, q) + int(rng.integers(0, 41))
        yield g, lam, rho, q, R


@pytest.mark.parametrize("g", range(1, 21))
def test_shell_count_ratio_does_not_increase(g):
    """N(m+1)/N(m) is non-increasing: N(m)^2 >= N(m-1) N(m+1) exactly, for
    m up to 2000 (N is log-concave, see the _tail_bound docstring)."""
    N = [(2 * m + 1) ** g - (2 * m - 1) ** g for m in range(1, 2002)]
    assert all(N[i] * N[i] >= N[i - 1] * N[i + 1] for i in range(1, len(N) - 1))


def test_bound_is_at_least_the_shell_sum():
    rng = np.random.default_rng(15)
    finite = 0
    for g, lam, rho, q, R in random_cases(rng, 300, 5, 1e-8):
        bound = engine._tail_bound(g, lam, rho, q, R)
        finite += math.isfinite(bound)
        assert bound >= shell_sum(g, lam, rho, q, R) * (1 - 1e-12), (g, lam, rho, q, R)
    assert finite >= 270


def brute_tail(g, lam, rho, a, R, rng):
    """sum over ||n|| > R of |(2 pi n)^a| |e(-1/2 n^T B n + n^T u)| with
    lambda_min(Re B) = lam and ||Re u|| = rho, over a cube reaching past the
    point where the terms underflow."""
    K = math.ceil(R + rho / lam + math.sqrt(2 * 800 / (engine.TWO_PI * lam)))
    if g == 1:
        n = np.arange(-K, K + 1, dtype=float)[:, None]
        B = np.array([[lam]])
    else:
        n = np.array(cube(g, K), dtype=float)
        Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
        B = (Q * [lam, lam * rng.uniform(1.0, 3.0)]) @ Q.T
    direction = rng.normal(size=g)
    u = rho * direction / np.linalg.norm(direction)
    n = n[np.einsum("pi,pi->p", n, n) > R * R]
    log_w = engine.TWO_PI * (n @ u - 0.5 * np.einsum("pi,ij,pj->p", n, B, n))
    mono = np.prod(np.abs(engine.TWO_PI * n) ** np.asarray(a), axis=1)
    return math.fsum((mono * np.exp(log_w)).tolist())


def test_bound_is_at_least_the_brute_force_tail():
    """g = 1 down to lambda_min = 1e-8; g = 2 from 1e-2, where the cube
    stays small."""
    rng = np.random.default_rng(16)
    cases = [c for c in random_cases(rng, 40, 1, 1e-8)]
    cases += [c for c in random_cases(rng, 200, 2, 1e-2) if c[0] == 2][:40]
    for g, lam, rho, q, R in cases:
        a = np.bincount(rng.integers(0, g, q), minlength=g)
        bound = engine._tail_bound(g, lam, rho, q, R)
        assert bound >= brute_tail(g, lam, rho, a, R, rng) * (1 - 1e-12), (g, lam, rho, q, R)


@pytest.mark.parametrize(
    "lam, radius",
    [
        (1e-8, 35146),  # a walk capped at 100,000 shells certified 54,080
        (1e-10, 361853),  # the capped walk certified 1,440,792
    ],
)
def test_small_lambda_radius_is_not_set_by_a_shell_cap(lam, radius):
    assert truncation_radius([[lam]], [0.0], None, 1e-12).radius == radius


def test_budget_not_the_bound_refuses_the_smallest_lambda():
    """lambda_min = 1.01e-12 certifies 3,700,904, within the 4,194,303 the
    budget admits at g = 1; a capped walk refused it."""
    assert truncation_radius([[1.01e-12]], [0.0], None, 1e-12).radius == 3700904


@pytest.mark.xfail(
    strict=True,
    reason="the certificate bounds the tail but not the rounding of the "
    "summation: one ulp of theta(3, 1) ~ 2e12 is 2.4e-4, and theta(0, 1e-6) "
    "= 1000 sums 6,817 terms",
)
@pytest.mark.parametrize(
    "u, B, exact",
    [
        (3.0, 1.0, None),  # error 2.2e-3 against mpmath at 30 digits
        (0.0, 1e-6, 1000.0),  # error 3.6e-12; Poisson: 1000 (1 + 2 e^(-pi 10^6))
    ],
    ids=["theta_3_1", "theta_0_1e-6"],
)
def test_theta_error_within_its_certificate(u, B, exact):
    if exact is None:
        exact = complex(mp_theta_du([u], [[B]], [(0,)], 20, dps=30)[0])
    assert abs(theta(ThetaPoint([u], [[B]]), 1e-12) - exact) < 1e-12
