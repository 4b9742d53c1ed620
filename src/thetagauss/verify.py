"""Built-in invariant checks for the `verify` CLI command.

Each check exercises one contract property on fixed seeded fixtures and
returns a pass/fail record; together they cover every module.  These are
quick smoke versions of the full property suite in the test tree.
"""

from __future__ import annotations

import numpy as np

from . import engine, geometry
from .distribution import DiscreteGaussian, SplitSpec
from .engine import ThetaPoint, theta, theta_dB
from .fitting import CanonicalPoint, fit, forward_moments
from .sampler import SamplerConfig, draw

TWO_PI = engine.TWO_PI


def _random_real_params(rng, g):
    A = rng.uniform(-0.3, 0.3, (g, g))
    B = A @ A.T + np.eye(g) * rng.uniform(0.6, 1.2)
    u = rng.uniform(-0.4, 0.4, g)
    return u, B


def _random_complex_params(rng, g):
    u_re, B_re = _random_real_params(rng, g)
    B = B_re + 1j * _sym(rng.uniform(-0.4, 0.4, (g, g)))
    u = u_re + 1j * rng.uniform(-0.4, 0.4, g)
    return u, B


def _sym(M):
    return 0.5 * (M + M.T)


def check_quasiperiodicity(rng, rounds=10):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_complex_params(rng, g)
        m = rng.integers(-2, 3, g)
        n = np.zeros(g, dtype=int)
        n[rng.integers(0, g)] = rng.choice([-1, 0, 1])
        lhs = theta(ThetaPoint(u + 1j * m + B @ n, B), 1e-12)
        factor = np.exp(TWO_PI * (0.5 * n @ B @ n + n @ u))
        rhs = factor * theta(ThetaPoint(u, B), 1e-12)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-11, f"max |lhs-rhs| = {worst:.2e}"


def check_parity(rng, rounds=10):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_complex_params(rng, g)
        worst = max(
            worst,
            abs(theta(ThetaPoint(-u, B), 1e-12) - theta(ThetaPoint(u, B), 1e-12)),
        )
    return worst < 2e-12, f"max parity defect = {worst:.2e}"


def check_factorization(rng, rounds=8):
    worst = 0.0
    for _ in range(rounds):
        u1, B1 = _random_complex_params(rng, 1)
        u2, B2 = _random_complex_params(rng, 1)
        B = np.zeros((2, 2), dtype=complex)
        B[0, 0], B[1, 1] = B1[0, 0], B2[0, 0]
        u = np.concatenate([u1, u2])
        lhs = theta(ThetaPoint(u, B), 1e-12)
        rhs = theta(ThetaPoint(u1, B1), 1e-12) * theta(ThetaPoint(u2, B2), 1e-12)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-11, f"max factorization defect = {worst:.2e}"


def check_heat_equation(rng, rounds=6):
    h = 1e-5
    worst = 0.0
    for _ in range(rounds):
        g = 2
        u, B = _random_real_params(rng, g)
        i, j = sorted(rng.integers(0, g, 2))
        E = np.zeros((g, g))
        E[i, j] = E[j, i] = h
        fd = (
            theta(ThetaPoint(u, B + E), 1e-13) - theta(ThetaPoint(u, B - E), 1e-13)
        ) / (2 * h)
        an = theta_dB(int(i), int(j), ThetaPoint(u, B), 1e-13)
        worst = max(worst, abs(fd - an) / abs(an))
    return worst < 1e-6, f"max relative fd defect = {worst:.2e}"


def check_jacobi_identity(rng, rounds=8):
    worst = 0.0
    for _ in range(rounds):
        B = float(rng.uniform(0.5, 2.0))
        u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        lhs = theta(ThetaPoint([u / (1j * B)], [[1.0 / B]]), 1e-13)
        rhs = np.sqrt(B) * np.exp(-np.pi * u * u / B) * theta(
            ThetaPoint([u], [[B]]), 1e-13
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst < 1e-9, f"max relative defect = {worst:.2e}"


def check_truncation_monotonicity(rng, rounds=6):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_complex_params(rng, g)
        p = ThetaPoint(u, B)
        budget = engine.truncation_radius(p.B, p.u, None, 1e-12)
        pts1 = engine.lattice_points(g, budget.radius)
        pts2 = engine.lattice_points(g, 2 * budget.radius)

        def total(pts):
            quad = np.einsum("pi,ij,pj->p", pts, p.B.entries, pts)
            return np.exp(TWO_PI * (-0.5 * quad + pts @ p.u)).sum()

        worst = max(worst, abs(total(pts1) - total(pts2)))
    return worst < 1e-12, f"max radius-doubling change = {worst:.2e}"


def check_normalization(rng, rounds=6):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_complex_params(rng, g)
        d = DiscreteGaussian(u, B, 1e-12)
        if abs(d.theta_value) < 0.1:
            continue
        pts = engine.lattice_points(
            g, engine.truncation_radius(d.point.B, d.point.u, None, 1e-12).radius
        )
        total = sum(d.pmf(n) for n in pts)
        worst = max(worst, abs(total - 1.0))
    return worst < 1e-11, f"max |sum pmf - 1| = {worst:.2e}"


def check_moment_oracle(rng, rounds=3):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_real_params(rng, g)
        d = DiscreteGaussian(u, B, 1e-12)
        pts = engine.lattice_points(g, 12.0)
        quad = np.einsum("pi,ij,pj->p", pts, B, pts)
        w = np.exp(TWO_PI * (-0.5 * quad + pts @ u))
        w = w / w.sum()
        for a in [(2,), (3,)] if g == 1 else [(2, 1), (1, 1)]:
            brute = (w * np.prod(pts.astype(float) ** np.array(a), axis=1)).sum()
            worst = max(worst, abs(d.moment(a) - brute))
    return worst < 1e-8, f"max oracle defect = {worst:.2e}"


def check_entropy_oracle(rng, rounds=4):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_real_params(rng, g)
        d = DiscreteGaussian(u, B, 1e-12)
        pts = engine.lattice_points(g, 12.0)
        quad = np.einsum("pi,ij,pj->p", pts, B, pts)
        w = np.exp(TWO_PI * (-0.5 * quad + pts @ u))
        p = w / w.sum()
        brute = float(-(p * np.log(p)).sum())
        worst = max(worst, abs(d.entropy().real - brute))
    return worst < 1e-8, f"max entropy defect = {worst:.2e}"


def check_marginal_oracle(rng, rounds=4):
    worst = 0.0
    for _ in range(rounds):
        u, B = _random_real_params(rng, 2)
        d = DiscreteGaussian(u, B, 1e-12)
        split = SplitSpec(1, 1)
        for n1 in (-1, 0, 1):
            brute = sum(d.pmf([n1, n2]) for n2 in range(-12, 13))
            worst = max(worst, abs(d.marginal_pmf(split, [n1]) - brute))
    return worst < 1e-9, f"max marginal defect = {worst:.2e}"


def check_group_actions(rng, rounds=5):
    worst = 0.0
    for _ in range(rounds):
        u, B = _random_real_params(rng, 2)
        d = DiscreteGaussian(u, B, 1e-12)
        shifted = d.translate([1, -2], [1, 0])
        worst = max(worst, abs(shifted.pmf([2, -1]) - d.pmf([1, -1])))
        alpha = np.array([[1, 1], [0, 1]])
        da = d.unimodular(alpha)
        k = np.array([1, -1])
        worst = max(worst, abs(da.pmf(alpha @ k) - d.pmf(k)))
        beta = np.array([[2, 1], [1, -1]])
        twin = DiscreteGaussian(
            u + 1j * (0.5 * np.diag(beta) + np.array([3, -1])), B - 1j * beta, 1e-12
        )
        if not d.same_distribution(twin):
            return False, "equivalence law violated"
    return worst < 1e-11, f"max action defect = {worst:.2e}"


def check_fit_roundtrip(rng, rounds=4):
    worst = 0.0
    for _ in range(rounds):
        g = int(rng.integers(1, 3))
        u, B = _random_real_params(rng, g)
        p = CanonicalPoint(u, B)
        rep = fit(forward_moments(p), tol=1e-9)
        worst = max(
            worst,
            float(np.max(np.abs(rep.params.u - p.u))),
            float(np.max(np.abs(rep.params.B - p.B))),
        )
    return worst < 1e-7, f"max roundtrip defect = {worst:.2e}"


def check_sampler_determinism(rng, rounds=1):
    p = CanonicalPoint([0.1], [[0.8]])
    cfg = SamplerConfig(tail_eps=1e-9, seed=1234)
    a = draw(p, 2000, cfg)
    b = draw(p, 2000, cfg)
    ok = np.array_equal(a, b)
    return ok, "reseeded runs identical" if ok else "reseeded runs differ"


def check_cubic_identity(rng, rounds=6):
    worst = 0.0
    for _ in range(rounds):
        B = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        if abs(theta(ThetaPoint([u], [[B]]), 1e-10)) < 0.15:
            continue
        res = geometry.verify_cubic(u, B, 1e-13)
        worst = max(worst, res.r_cubic, res.r_quartic, res.r_det)
    return worst < 1e-8, f"max residual = {worst:.2e}"


def check_map_translation_invariance(rng, rounds=4):
    worst = 0.0
    B = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    for _ in range(rounds):
        u = 1j * rng.uniform(0, 1, 2) + B @ rng.uniform(0, 1, 2)
        if abs(theta(ThetaPoint(u, B), 1e-10)) < 0.2:
            continue
        pt = geometry.statistical_map(2, ThetaPoint(u, B))
        shifted = geometry.statistical_map(
            2, ThetaPoint(u + 1j * np.array([1, -1]) + B @ np.array([0, 1]), B)
        )
        worst = max(worst, pt.distance(shifted))
    return worst < 1e-8, f"max projective distance = {worst:.2e}"


ALL_CHECKS = [
    ("theta.quasiperiodicity", check_quasiperiodicity),
    ("theta.parity", check_parity),
    ("theta.block_factorization", check_factorization),
    ("theta.heat_equation_fd", check_heat_equation),
    ("theta.jacobi_identity", check_jacobi_identity),
    ("theta.truncation_monotonicity", check_truncation_monotonicity),
    ("distribution.normalization", check_normalization),
    ("distribution.moment_oracle", check_moment_oracle),
    ("distribution.entropy_oracle", check_entropy_oracle),
    ("distribution.marginal_oracle", check_marginal_oracle),
    ("distribution.group_actions", check_group_actions),
    ("fitting.roundtrip", check_fit_roundtrip),
    ("sampler.determinism", check_sampler_determinism),
    ("geometry.cubic_identity", check_cubic_identity),
    ("geometry.map_translation_invariance", check_map_translation_invariance),
]


def run_all(seed: int = 0) -> list[dict]:
    """Run every built-in check; each record carries name/passed/detail."""
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.Generator(np.random.Philox(seed))
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results
