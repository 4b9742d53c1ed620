"""Moment matching on the real parameter slice.

For real (u, B) the discrete Gaussian is a minimal regular exponential
family with sufficient statistic T(n) = 2*pi*(n, -1/2 n n^T) and
log-partition A(u, B) = log theta(u, B).  Matching a target mean mu and
covariance Sigma is therefore the strictly convex problem

    minimize  F(u, B) = log theta(u, B) - 2*pi u.mu + pi <B, Sigma + mu mu^T>

(the cross-entropy of the target under the law, distribution.cross_entropy),
whose gradient vanishes exactly on the moment equations, and whose Hessian
is the covariance of T under the current iterate (assembled from theta
derivatives up to order four).  A damped Newton iteration with positive
definiteness safeguarding solves it; B0 = Sigma^-1/(2*pi), u0 = B0 mu (the
continuous-Gaussian kernel) starts essentially converged for well-scaled
targets.

The problem is solved for the target shifted by m = round(mu) and the
solution shifted back.  By the translation action, X + m has parameters
(u + Bm, B), and F is invariant under (u, B, mu) -> (u + Bm, B, mu + m);
Newton's method with Armijo backtracking is affine-invariant, so the
iterates are the same up to rounding, while theta at the shifted iterates
stays of order one and the absolute eps of its sums bounds the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import cross_entropy, mean_cov, moment_covariance, moment_table
from .engine import EPS_FLOOR, TWO_PI, ThetaPoint, _real, theta_du_many
from .errors import DegenerateSample, NoConvergence, NonPositiveDefinite, ToleranceUnreachable
from .multiindex import indices_up_to, unit

MAX_ITERATIONS = 200

# Rounding slack of the Armijo test, relative to max(1, |F|): F is a sum of
# a few terms of order |F|, so it is formed to within a few ulps of |F|
# (Boyd & Vandenberghe, Convex Optimization, section 9.5).
ARMIJO_SLACK = 16 * np.finfo(float).eps


def _check_real_spd(M, name: str, tol: float = 1e-10):
    M = np.atleast_2d(np.asarray(_real(M, NonPositiveDefinite, name), dtype=float))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonPositiveDefinite(f"{name} must be a square matrix")
    if not np.all(np.isfinite(M)):
        raise NonPositiveDefinite(f"{name} must have finite entries")
    with np.errstate(over="ignore"):  # near the top of double range
        asym, twice = np.max(np.abs(M - M.T)), M + M.T
    if asym > tol * max(1.0, np.max(np.abs(M))):
        raise NonPositiveDefinite(f"{name} must be symmetric")
    M = 0.5 * twice if np.isfinite(twice).all() else 0.5 * M + 0.5 * M.T
    if np.linalg.eigvalsh(M)[0] <= 0:
        raise NonPositiveDefinite(f"{name} must be positive definite")
    return M


def _finite_vector(v, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(_real(v, ValueError, name), dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite entries")
    return v


@dataclass(frozen=True, eq=False)
class MomentData:
    """Fitting target: real mean vector and SPD covariance."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _finite_vector(self.mu, "mu")
        sigma = _check_real_spd(self.sigma, "sigma")
        if mu.shape != (sigma.shape[0],):
            raise ValueError("mu and sigma dimensions disagree")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def g(self) -> int:
        return len(self.mu)


@dataclass(frozen=True, eq=False)
class CanonicalPoint:
    """Real canonical parameters: u in R^g, B real symmetric positive
    definite (the real slice of the Siegel right half-space).  B is held as
    (B + B^T) / 2, formed without overflow for entries near the top of
    double range.

    u and B are read-only copies of the caller's arrays, so the point
    cannot change after construction.  That lets the sampler hold the
    support it forms for the law on the point itself (`_support`, see
    sampler._support_weights: the ball about m = round(B^-1 u) with the
    weights and theta of the law of X - m): one support per point, read by
    draw, chi_square and support_radius, freed with the point, and outside
    repr.

    Like MomentData and FitReport, a point compares by identity (eq=False):
    equality of the array fields has no single truth value at g >= 2."""

    u: np.ndarray
    B: np.ndarray
    _support: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        u = np.array(_finite_vector(self.u, "u"))
        B = _check_real_spd(self.B, "B")
        if u.shape != (B.shape[0],):
            raise ValueError("u and B dimensions disagree")
        u.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "B", B)

    @property
    def g(self) -> int:
        return len(self.u)


@dataclass(frozen=True, eq=False)
class FitReport:
    params: CanonicalPoint
    iterations: int
    grad_norm: float  # sup-norm of the moment residual at the solution
    objective: float
    converged: bool


def _real_moments(p: ThetaPoint, order: int, eps: float) -> tuple[float, dict]:
    """theta and the raw moment table mu_a (real slice) up to `order`."""
    derivs = {a: v.real for a, v in theta_du_many(indices_up_to(p.g, order), p, eps).items()}
    return derivs[(0,) * p.g], moment_table(derivs)


def _about_mode(p: CanonicalPoint) -> tuple[np.ndarray, ThetaPoint]:
    """m = round(B^-1 u), the lattice point nearest the mode, and the point
    (u - Bm, B) of the law of X - m (the translation action), whose theta
    stays of order one however far the mean is from the origin.

    Raises ToleranceUnreachable when an entry of m is beyond 2^53, where
    the lattice points about m are not exact, or u - Bm is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.round(np.linalg.solve(p.B, p.u))
        centred = p.u - p.B @ m
    if not (np.abs(m) <= 2.0**53).all() or not np.isfinite(centred).all():
        raise ToleranceUnreachable(
            f"the mode of the law, round(B^-1 u) = {m}, is beyond the range of exact lattice points"
        )
    return m, ThetaPoint(centred, p.B)


def forward_moments(p: CanonicalPoint, eps: float = 1e-12) -> MomentData:
    """Mean and covariance of the discrete Gaussian at real parameters.

    The sums run about m = round(B^-1 u) (_about_mode): the moments are
    those of X - m, with m added to the mean, so the cost does not grow
    with the distance of the mean from the origin.

    Raises ToleranceUnreachable when the mode is beyond exact lattice
    points (_about_mode) or the law's covariance is not positive definite
    in double precision, for a law too narrow for its variance to be
    resolved.
    """
    m, centred = _about_mode(p)
    _, mus = _real_moments(centred, 2, eps)
    mean, cov = mean_cov(mus, p.g)
    try:
        return MomentData(mean + m, cov)
    except NonPositiveDefinite as err:  # the covariance underflows
        raise ToleranceUnreachable(
            f"the law's covariance has smallest eigenvalue {np.linalg.eigvalsh(cov)[0]:.3e}, "
            "narrower than double precision resolves"
        ) from err


def _triu_pairs(g: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(g) for j in range(i, g)]


def _pack(u: np.ndarray, B: np.ndarray, pairs) -> np.ndarray:
    return np.concatenate([u, [B[i, j] for i, j in pairs]])


def _unpack(x: np.ndarray, g: int, pairs):
    u = x[:g]
    B = np.zeros((g, g))
    for k, (i, j) in enumerate(pairs):
        B[i, j] = B[j, i] = x[g + k]
    return u, B


def _grad_resid(mus: dict, g: int, pairs, mu_t, S_t):
    """Gradient of F in packed coordinates and the (mu, Sigma) residual."""
    mu, sigma = mean_cov(mus, g)
    grad = np.empty(g + len(pairs))
    grad[:g] = TWO_PI * (mu - mu_t)
    for k, (i, j) in enumerate(pairs):
        scale = math.pi if i == j else TWO_PI
        grad[g + k] = scale * (S_t[i, j] - mus[unit(g, i, j)])
    resid = max(
        float(np.max(np.abs(mu - mu_t))),
        float(np.max(np.abs(sigma - (S_t - np.outer(mu_t, mu_t))))),
    )
    return grad, resid


def _hessian(mus: dict, g: int, pairs) -> np.ndarray:
    """Covariance of the sufficient statistic in packed coordinates,
    W Cov(monomials) W.

    Component (u, i) has weight 2*pi and exponent e_i; component (B, ij)
    has weight -pi (diagonal) or -2*pi (off-diagonal, symmetric pair) and
    exponent e_i + e_j.  Entries need raw moments up to order four.
    """
    weights = np.array([TWO_PI] * g + [-math.pi if i == j else -TWO_PI for i, j in pairs])
    monomials = [unit(g, i) for i in range(g)] + [unit(g, i, j) for i, j in pairs]
    return np.outer(weights, weights) * moment_covariance(mus, monomials)


def fit(
    target: MomentData,
    tol: float = 1e-9,
    max_iterations: int = MAX_ITERATIONS,
) -> FitReport:
    """Real canonical parameters (u, B) whose discrete Gaussian has the
    target mean and covariance, to sup-norm residual below tol.

    Damped Newton on the convex objective F; a trial step is rejected when
    it leaves the positive definite cone or fails the Armijo test, which
    allows ARMIJO_SLACK * max(1, |F|) for the rounding of F.
    Convergence requires both the moment residual below tol and the squared
    Newton decrement below tol^2; theta and its derivatives are summed to
    eps = max(EPS_FLOOR, 1e-4 * tol).  The iteration runs on the target
    (mu - m, Sigma), m = round(mu), and returns u + Bm (see the module
    docstring); the objective reported is F, which that shift leaves
    unchanged.  F is distribution.cross_entropy at the target's moments;
    where they match the fitted law's, it is that law's entropy.

    Raises NoConvergence after max_iterations, ToleranceUnreachable when the
    target is wider than the engine can fit (the start point's Re(B0) is
    at or below engine.LAMBDA_MIN_FLOOR) or narrower (B0 is not finite in
    double precision) or when the fitted u is not finite, and
    NonPositiveDefinite, from MomentData, for an invalid target.
    """
    if not isinstance(target, MomentData):
        target = MomentData(*target)
    if tol < 1e-10:
        raise ValueError("tol must be at least 1e-10")
    eps = max(EPS_FLOOR, 1e-4 * tol)
    g = target.g
    pairs = _triu_pairs(g)
    shift = np.round(target.mu)
    mu_t = target.mu - shift
    S_t = target.sigma + np.outer(mu_t, mu_t)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        B = np.linalg.inv(target.sigma) / TWO_PI
        B = 0.5 * (B + B.T)
    if not np.isfinite(B).all():  # Sigma^-1 is beyond double range
        narrowest = np.linalg.eigvalsh(target.sigma)[0]
        raise ToleranceUnreachable(
            f"the target covariance has smallest eigenvalue {narrowest:.3e}, "
            "narrower than the engine can fit"
        )
    u = B @ mu_t
    x = _pack(u, B, pairs)

    try:
        start = ThetaPoint(u, B)
    except NonPositiveDefinite as err:  # B0 = Sigma^-1/(2*pi) is below the floor
        widest = np.linalg.eigvalsh(target.sigma)[-1]
        raise ToleranceUnreachable(
            f"the target covariance has largest eigenvalue {widest:.3e}, wider than the engine can fit"
        ) from err
    t, mus = _real_moments(start, 4, eps)
    F = cross_entropy(math.log(t), u, B, mu_t, S_t)

    for iteration in range(1, max_iterations + 1):
        grad, resid = _grad_resid(mus, g, pairs, mu_t, S_t)
        H = _hessian(mus, g, pairs)
        # the Hessian is PD on the real slice but can be numerically rank
        # deficient when the mass concentrates on few points; ridge it just
        # enough for a stable factorization
        ridge = 0.0
        scale = max(1.0, float(np.trace(H)) / len(H))
        while True:
            try:
                L = np.linalg.cholesky(H + ridge * np.eye(len(H)))
                break
            except np.linalg.LinAlgError:
                ridge = max(1e-14 * scale, ridge * 100.0)
        dx = -np.linalg.solve(L.T, np.linalg.solve(L, grad))
        decrement_sq = float(-grad @ dx)

        if resid < tol and decrement_sq < tol * tol:
            u, B = _unpack(x, g, pairs)
            with np.errstate(over="ignore", invalid="ignore"):
                u = u + B @ shift
            if not np.isfinite(u).all():
                raise ToleranceUnreachable(
                    f"the fitted u = {u} is beyond double range: the fitted B "
                    "times the target mean overflows"
                )
            return FitReport(
                params=CanonicalPoint(u, B),
                iterations=iteration - 1,
                grad_norm=resid,
                objective=F,
                converged=True,
            )

        # backtracking line search with PD safeguarding; without the slack a
        # last-bit change in the moments could fail every step near the solution
        step = 1.0
        slope = float(grad @ dx)
        slack = ARMIJO_SLACK * max(1.0, abs(F))
        for _ in range(60):
            x_try = x + step * dx
            u_try, B_try = _unpack(x_try, g, pairs)
            try:
                point = ThetaPoint(u_try, B_try)
            except NonPositiveDefinite:  # the step left the positive definite cone
                step *= 0.5
                continue
            t_try, mus_try = _real_moments(point, 4, eps)
            F_try = cross_entropy(math.log(t_try), u_try, B_try, mu_t, S_t)
            if F_try <= F + 1e-4 * step * slope + slack:
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at iteration {iteration}; residual {resid:.3e}"
            )
        x, F, mus = x_try, F_try, mus_try

    grad, resid = _grad_resid(mus, g, pairs, mu_t, S_t)
    raise NoConvergence(
        f"no convergence after {max_iterations} iterations; residual {resid:.3e}, "
        f"gradient sup-norm {np.max(np.abs(grad)):.3e}"
    )


def fit_from_sample(data, tol: float = 1e-9) -> FitReport:
    """Maximum-likelihood parameters for a sample of lattice vectors.

    Computes the sample mean and sample covariance (divisor n - 1, matching
    the reference numerics) and delegates to :func:`fit`.  The moments are
    formed over one coordinate-major copy of the N x g sample, centred in
    place, with one buffer for the products; the caller's data is never
    written.  Each mean is
    one sum over a contiguous row, which is exact for integer coordinates
    while every partial sum stays below 2^53, so it is the exact mean
    rounded once.  Each covariance entry is numpy's pairwise sum of the
    products of centred rows, so it does not depend on the BLAS thread
    count, and the matrix is exactly symmetric.  Raises DegenerateSample
    when the sample covariance is singular, and ValueError when the data,
    or its moments, are not finite in double precision.
    """
    try:
        data = np.asarray(_real(data, ValueError, "data"), dtype=float)
    except OverflowError as err:  # a Python int beyond the float range
        raise ValueError("data must have finite entries") from err
    if data.ndim == 1:  # flat list of scalars is a univariate sample
        data = data.reshape(-1, 1)
    if data.ndim != 2:
        raise ValueError("data must be a sequence of lattice vectors")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must have finite entries")
    n, g = data.shape
    if n <= 1:
        raise DegenerateSample(f"need at least 2 observations, got {n}")
    # a copy even where data.T is already C-ordered, as for an N x 1 sample:
    # it is centred in place
    cols = np.array(data.T, order="C")
    products = np.empty_like(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = cols.mean(axis=1)
        cols -= mu[:, None]
        # row i is summed along the sample axis: pairwise, on no BLAS thread,
        # and the same products in the same order as column i
        sigma = np.array([np.multiply(c, cols, out=products).sum(axis=1) for c in cols]) / (n - 1)
    if not np.isfinite(sigma).all():  # an overflowing mean makes it nan too
        raise ValueError("data: the sample moments overflow double precision")
    if np.linalg.eigvalsh(sigma)[0] <= 1e-12 * max(1.0, float(np.trace(sigma))):
        raise DegenerateSample("sample covariance is singular")
    return fit(MomentData(mu, sigma), tol)
