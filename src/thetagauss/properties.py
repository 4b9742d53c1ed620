"""The library's invariants as seeded property runners.

Each runner run_<property>(rng, count) draws `count` instances from the
generator `rng`, measures how far one identity of the paper is from
holding on each, and returns the worst defect seen (nan when any defect is
nan).  Runners assert nothing: `thetagauss verify` and the test suite
compare the worst defect with their bounds.

The random-parameter generators are here too.  Their divisor filter sums
the theta series directly over a coordinate cube, not through the
library's kernel, so a kernel fault cannot choose which instances get
checked.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .distribution import DiscreteGaussian, SplitSpec, canonical_parameters
from .engine import TWO_PI, ThetaPoint, lattice_points, theta, theta_dB, truncation_radius
from .fitting import CanonicalPoint, fit, forward_moments
from .sampler import SamplerConfig, draw


def _cube(g: int, K: int) -> np.ndarray:
    """Every n in [-K, K]^g, one per row, in lexicographic order."""
    return np.indices((2 * K + 1,) * g).reshape(g, -1).T - K


def _summands(pts, u, B) -> np.ndarray:
    """The series terms e(-1/2 n^T B n + n.u) at the rows n of pts."""
    quad = np.einsum("pi,ij,pj->p", pts, B, pts)
    return np.exp(TWO_PI * (-0.5 * quad + pts @ u))


def _worst(defects) -> float:
    """The largest defect; nan if any is nan, 0.0 if there is none."""
    return float(np.max(list(defects), initial=0.0))


def _runner(defect):
    """run(rng, count): the worst of `count` successive defect(rng), under
    defect's name and docstring."""

    def run(rng, count):
        return _worst(defect(rng) for _ in range(count))

    run.__name__ = run.__qualname__ = defect.__name__
    run.__doc__ = defect.__doc__
    return run


def random_real_params(rng, g):
    """Random real (u, B) with B diagonally dominant SPD."""
    A = rng.uniform(-0.25, 0.25, (g, g))
    B = 0.5 * (A + A.T) + np.eye(g) * rng.uniform(0.6, 1.3)
    while np.linalg.eigvalsh(B)[0] < 0.15:
        A = rng.uniform(-0.25, 0.25, (g, g))
        B = 0.5 * (A + A.T) + np.eye(g) * rng.uniform(0.6, 1.3)
    u = rng.uniform(-0.4, 0.4, g)
    return u, B


def random_complex_params(rng, g):
    """Random complex (u, B) off the theta divisor (|theta| >= 0.1, with
    theta summed over the cube [-8, 8]^g)."""
    while True:
        u_re, B_re = random_real_params(rng, g)
        S = rng.uniform(-0.4, 0.4, (g, g))
        B = B_re + 0.5j * (S + S.T)
        u = u_re + 1j * rng.uniform(-0.4, 0.4, g)
        if abs(_summands(_cube(g, 8), u, B).sum()) >= 0.1:
            return u, B


@_runner
def run_quasiperiodicity(rng):
    """|theta(u + i m + B n) - e(1/2 n^T B n + n.u) theta(u)|, g <= 3."""
    g = int(rng.integers(1, 4))
    u, B = random_complex_params(rng, g)
    m = rng.integers(-2, 3, g)
    n = np.zeros(g, dtype=int)
    n[rng.integers(0, g)] = rng.choice([-1, 0, 1])
    lhs = theta(ThetaPoint(u + 1j * m + B @ n, B), 1e-12)
    rhs = np.exp(TWO_PI * (0.5 * n @ B @ n + n @ u)) * theta(ThetaPoint(u, B), 1e-12)
    return abs(lhs - rhs)


@_runner
def run_parity(rng):
    """|theta(-u) - theta(u)|, g <= 3."""
    u, B = random_complex_params(rng, int(rng.integers(1, 4)))
    return abs(theta(ThetaPoint(-u, B), 1e-12) - theta(ThetaPoint(u, B), 1e-12))


@_runner
def run_factorization(rng):
    """|theta at a block-diagonal B - the product over the blocks|, blocks
    of size 1 or 2."""
    g1 = int(rng.integers(1, 3))
    g2 = int(rng.integers(1, 3))
    u1, B1 = random_complex_params(rng, g1)
    u2, B2 = random_complex_params(rng, g2)
    B = np.zeros((g1 + g2, g1 + g2), dtype=complex)
    B[:g1, :g1], B[g1:, g1:] = B1, B2
    lhs = theta(ThetaPoint(np.concatenate([u1, u2]), B), 1e-12)
    return abs(lhs - theta(ThetaPoint(u1, B1), 1e-12) * theta(ThetaPoint(u2, B2), 1e-12))


@_runner
def run_heat_equation_fd(rng):
    """Relative gap between theta_dB and a central difference in B_ij
    (step h = 1e-5), real parameters, g <= 2."""
    h = 1e-5
    g = int(rng.integers(1, 3))
    u, B = random_real_params(rng, g)
    i, j = sorted(rng.integers(0, g, 2))
    E = np.zeros((g, g))
    E[i, j] = E[j, i] = h
    fd = (theta(ThetaPoint(u, B + E), 1e-13) - theta(ThetaPoint(u, B - E), 1e-13)) / (2.0 * h)
    analytic = theta_dB(int(i), int(j), ThetaPoint(u, B), 1e-13)
    return abs(fd - analytic) / abs(analytic)


@_runner
def run_jacobi_identity(rng):
    """Relative defect of theta(u/(iB), 1/B) = sqrt(B) e^(-pi u^2/B) theta(u, B),
    g = 1."""
    B = float(rng.uniform(0.4, 2.5))
    u = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
    lhs = theta(ThetaPoint([u / (1j * B)], [[1.0 / B]]), 1e-13)
    rhs = np.sqrt(B) * np.exp(-np.pi * u * u / B) * theta(ThetaPoint([u], [[B]]), 1e-13)
    return abs(lhs - rhs) / abs(rhs)


@_runner
def run_truncation_monotonicity(rng):
    """Change of the direct sum when the certified radius (eps = 1e-12) is
    doubled, g <= 2."""
    g = int(rng.integers(1, 3))
    p = ThetaPoint(*random_complex_params(rng, g))
    radius = truncation_radius(p.B, p.u, None, 1e-12).radius
    inner, outer = [
        _summands(lattice_points(g, r), p.u, p.B.entries).sum() for r in (radius, 2.0 * radius)
    ]
    return abs(inner - outer)


@_runner
def run_normalization(rng):
    """|sum of the pmf over the certified ball - 1|, complex parameters, g <= 2."""
    g = int(rng.integers(1, 3))
    d = DiscreteGaussian(*random_complex_params(rng, g), 1e-12)
    pts = lattice_points(g, truncation_radius(d.point.B, d.point.u, None, 1e-12).radius)
    return abs(sum(d.pmf(n) for n in pts) - 1.0)


@_runner
def run_moment_oracle(rng):
    """|E[X^a] - its direct sum over [-12, 12]^g| for two a of order 2 or 3,
    real parameters, g <= 2."""
    g = int(rng.integers(1, 3))
    u, B = random_real_params(rng, g)
    d = DiscreteGaussian(u, B, 1e-12)
    pts = _cube(g, 12)
    w = _summands(pts, u, B)
    w = w / w.sum()
    return _worst(
        abs(d.moment(a) - (w * np.prod(pts.astype(float) ** np.array(a), axis=1)).sum())
        for a in ([(2,), (3,)] if g == 1 else [(2, 1), (1, 1)])
    )


@_runner
def run_entropy_oracle(rng):
    """|entropy - (-sum p log p) over [-12, 12]^g|, real parameters, g <= 2."""
    g = int(rng.integers(1, 3))
    u, B = random_real_params(rng, g)
    w = _summands(_cube(g, 12), u, B)
    p = w[w > 0] / w.sum()  # 0 log 0 = 0
    return abs(DiscreteGaussian(u, B, 1e-12).entropy().real + (p * np.log(p)).sum())


@_runner
def run_marginal_oracle(rng):
    """|marginal pmf at n1 in {-1, 0, 1} - the pmf summed over n2 in
    [-12, 12]|, real parameters, g = 2."""
    d = DiscreteGaussian(*random_real_params(rng, 2), 1e-12)
    split = SplitSpec(1, 1)
    return _worst(
        abs(d.marginal_pmf(split, [n1]) - sum(d.pmf([n1, n2]) for n2 in range(-12, 13)))
        for n1 in (-1, 0, 1)
    )


@_runner
def run_group_actions(rng):
    """The translation and unimodular actions move the pmf as stated, and an
    integer-shift twin has the same canonical parameters; real parameters,
    g = 2."""
    u, B = random_real_params(rng, 2)
    d = DiscreteGaussian(u, B, 1e-12)
    alpha, k = np.array([[1, 1], [0, 1]]), np.array([1, -1])
    beta = np.array([[2, 1], [1, -1]])
    cu, cB, _ = canonical_parameters(u, B)
    tu, tB, _ = canonical_parameters(u + 1j * (0.5 * np.diag(beta) + [3, -1]), B - 1j * beta)
    shifted = abs(d.translate([1, -2], [1, 0]).pmf([2, -1]) - d.pmf([1, -1]))
    sheared = abs(d.unimodular(alpha).pmf(alpha @ k) - d.pmf(k))
    return _worst([shifted, sheared, np.max(np.abs(cu - tu)), np.max(np.abs(cB - tB))])


@_runner
def run_fit_roundtrip(rng):
    """Sup-norm distance between p and fit(forward_moments(p)) at tol 1e-9,
    real parameters, g <= 2."""
    p = CanonicalPoint(*random_real_params(rng, int(rng.integers(1, 3))))
    rep = fit(forward_moments(p), tol=1e-9)
    return _worst([np.max(np.abs(rep.params.u - p.u)), np.max(np.abs(rep.params.B - p.B))])


@_runner
def run_sampler_determinism(rng):
    """Largest entrywise difference between two 2000-draw samples under one
    random seed at a fixed g = 1 point; 0 when they are identical."""
    p = CanonicalPoint([0.1], [[0.8]])
    cfg = SamplerConfig(tail_eps=1e-9, seed=int(rng.integers(2**32)))
    return np.max(np.abs(draw(p, 2000, cfg) - draw(p, 2000, cfg)))


@_runner
def run_cubic_identity(rng):
    """Largest residual of geometry.verify_cubic (the g = 1 cubic); 0 at
    points with |theta| < 0.15, which are skipped."""
    B = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
    u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
    if abs(theta(ThetaPoint([u], [[B]]), 1e-10)) < 0.15:
        return 0.0
    res = geometry.verify_cubic(u, B, 1e-13)
    return _worst([res.r_cubic, res.r_quartic, res.r_det])


@_runner
def run_map_translation_invariance(rng):
    """Projective distance between the degree-2 statistical map at u and at
    u + i m + B n, at a fixed g = 2 B; 0 at points with |theta| < 0.2, which
    are skipped."""
    B = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    u = 1j * rng.uniform(0, 1, 2) + B @ rng.uniform(0, 1, 2)
    if abs(theta(ThetaPoint(u, B), 1e-10)) < 0.2:
        return 0.0
    shifted = u + 1j * np.array([1, -1]) + B @ np.array([0, 1])
    pt = geometry.statistical_map(2, ThetaPoint(u, B))
    return pt.distance(geometry.statistical_map(2, ThetaPoint(shifted, B)))
