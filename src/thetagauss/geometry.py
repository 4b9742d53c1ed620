"""Projective moment maps of theta parameters and their algebraic identities.

For fixed B the degree-d map sends u to the projective vector

    [theta^d * kappa_a]_{|a| <= d, |a| != 1}

(theta^d itself is the a = 0 coordinate).  Translation invariance of the
cumulants of order >= 2 makes the map well defined modulo the period
lattice; its image satisfies polynomial identities that this module
evaluates and fits:

  * g = 1: the cubic  kappa_3^2 = -4 kappa_2^3 + a kappa_2^2 + b kappa_2 + c
    with coefficients from the second log-derivatives e_1, e_2, e_3 at the
    half-periods 0, i/2, B/2, plus the derived quartic and determinant
    relations in the nu_k = (2*pi)^k kappa_k normalization.
  * g = 2, d = 2: the image lies on a unique quartic surface in P^3.

The coordinates theta^|a| kappa_a are polynomials in the derivatives of
theta, so one formula (statistical_map_stack) serves every point, on the
theta divisor too: there everything below grade d vanishes and grade d is
(-1)^(d-1) (d-1)! (2*pi)^-d (D_u theta)^a, the Gauss map direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .distribution import DiscreteGaussian, canonical_parameters, moment_table, moments_to_cumulants
from .engine import (
    TILE_ELEMENTS,
    TWO_PI,
    ThetaPoint,
    _log_summands,
    _require_finite,
    as_siegel,
    lattice_points,
    theta,
    theta_du_many,
    theta_du_stack,
    truncation_radius,
)
from .errors import (
    IndeterminatePoint,
    NoZeroFound,
    RankDeficientInput,
    SingularDivisorPoint,
)
from .multiindex import indices_of_order, indices_up_to, moment_map_indices, unit

DIVISOR_TOL = 1e-8

# find_theta_zero: points per side of its scan, the scan's certified eps
# and the |theta| of a zero; its Newton steps and gauss_map sum to
# DIVISOR_EPS.
ZERO_GRID = 41
SCAN_EPS = 1e-8
ZERO_TOL = 1e-10
DIVISOR_EPS = 1e-12

# Lattice points per complex product of the scan: a (41 x 32) @ (32 x 41)
# product stays below the size at which OpenBLAS starts worker threads,
# which would spend more CPU time than they save on products this small.
SCAN_TILE = 32


class ProjectivePoint:
    """Homogeneous coordinate vector, not all zero."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = np.atleast_1d(np.asarray(coords, dtype=complex))
        if coords.ndim != 1 or len(coords) < 1:
            raise ValueError("coords must be a nonempty vector")
        if not np.any(coords != 0):
            raise ValueError("projective coordinates cannot all vanish")
        coords.setflags(write=False)
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def normalized(self) -> np.ndarray:
        """Representative scaled so the max-modulus coordinate equals 1."""
        k = int(np.argmax(np.abs(self.coords)))
        return self.coords / self.coords[k]

    def distance(self, other: "ProjectivePoint") -> float:
        """Scale-free sup-norm distance: both points are rescaled to make
        this point's max-modulus coordinate equal to 1."""
        k = int(np.argmax(np.abs(self.coords)))
        if other.coords[k] == 0:
            return float("inf")
        return float(
            np.max(np.abs(self.coords / self.coords[k] - other.coords / other.coords[k]))
        )

    def __array__(self, dtype=None, copy=None):
        """The coords, so a list of points reads as a k x n array."""
        return np.array(self.coords, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"ProjectivePoint(dim={self.dim})"


def statistical_map(d: int, p: ThetaPoint, eps: float = 1e-12) -> ProjectivePoint:
    """Degree-d projective moment map at (u, B).

    The coordinates are theta^d * kappa_a in the graded-lex ordering of
    :func:`multiindex.moment_map_indices`, a polynomial in the derivatives
    of theta (:func:`statistical_map_stack`) that holds on the divisor too.
    There (|theta| < DIVISOR_TOL, taken as 0) every coordinate below grade
    d is 0 and grade d is (-1)^(d-1) (d-1)! (2*pi)^-d (D_u theta)^a.

    Raises IndeterminatePoint when every coordinate vanishes (singular
    divisor point).
    """
    return ProjectivePoint(statistical_map_stack(d, p.u[None, :], p.B, eps)[0])


def statistical_map_stack(d: int, U, B, eps: float = 1e-12) -> np.ndarray:
    """Degree-d moment map coordinates (see :func:`statistical_map`) at every
    row u of the k x g array U, at the one matrix B, from one stacked theta
    evaluation.  Returns a complex k x len(moment_map_indices(g, d)) array.

    The moment-cumulant recursion on m_a = theta^(|a|-1) (2*pi)^-|a| D^a theta
    (|a| >= 1) returns K_a = theta^|a| kappa_a with no division, because each
    of its products theta^|b+e_i| kappa_(b+e_i) * theta^|a'-b| mu_(a'-b) has
    the degree |a| of its sum; coordinate a is theta^(d-|a|) K_a.

    Raises IndeterminatePoint when every coordinate of some row is below
    1e-12; on the divisor that threshold sees the grade-d coordinates
    scaled by (d-1)!/(2*pi)^d.
    """
    if d < 2:
        raise ValueError("the map needs degree d >= 2")
    B = as_siegel(B)
    g = B.g
    idx = indices_up_to(g, d)
    derivs = theta_du_stack(idx, U, B, eps)
    t = np.where(np.abs(derivs[:, 0]) < DIVISOR_TOL, 0, derivs[:, 0])
    table = {a: t ** (sum(a) - 1) * derivs[:, j] / TWO_PI ** sum(a) for j, a in enumerate(idx) if j}
    K = moments_to_cumulants(table, g)
    K[(0,) * g] = 1  # coordinate 0 is theta^d
    coords = np.stack([t ** (d - sum(a)) * K[a] for a in moment_map_indices(g, d)], axis=1)
    if np.any(np.max(np.abs(coords), axis=1) < 1e-12):
        raise IndeterminatePoint(
            "all map coordinates vanish; singular point of the theta divisor"
        )
    return coords


def log_derivatives(p: ThetaPoint, max_order: int, eps: float = 1e-12) -> dict:
    """nu_a = D^a_u log theta = (2*pi)^|a| kappa_a for all 1 <= |a| <=
    max_order, with kappa_a the cumulants of the DiscreteGaussian at p.

    The law's constructor is the one divisor guard: it raises DivisorHit
    when |theta| <= 10*eps, where the log-derivatives are undefined.
    """
    law = DiscreteGaussian(p.u, p.B, eps)
    kappa = moments_to_cumulants(law._moment_table(max_order), p.g)
    return {a: TWO_PI ** sum(a) * v for a, v in kappa.items()}


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of the g = 1 cubic in the kappa normalization, with the
    second log-derivatives at the three even half-periods they come from:

        a = (e1+e2+e3)/pi^2,  b = -(e1 e2 + e1 e3 + e2 e3)/(4 pi^4),
        c = e1 e2 e3 / (16 pi^6).

    In the nu normalization (Vieta form, roots e1, e2, e3 of
    -4x^3 + a_nu x^2 + b_nu x + c_nu):  a_nu = 4*sum, b_nu = -4*sum of
    pair products, c_nu = 4*product.
    """

    a: complex
    b: complex
    c: complex
    e1: complex
    e2: complex
    e3: complex

    @property
    def a_nu(self) -> complex:
        return 4.0 * (self.e1 + self.e2 + self.e3)

    @property
    def b_nu(self) -> complex:
        return -4.0 * (self.e1 * self.e2 + self.e1 * self.e3 + self.e2 * self.e3)

    @property
    def c_nu(self) -> complex:
        return 4.0 * self.e1 * self.e2 * self.e3


@dataclass(frozen=True)
class CubicResiduals:
    r_cubic: float
    r_quartic: float
    r_det: float


def cubic_coefficients(B, eps: float = 1e-12) -> CubicCoefficients:
    """Cubic coefficients for a scalar B in the right half-plane."""
    B = as_siegel(np.atleast_2d(np.asarray(B, dtype=complex)))
    if B.g != 1:
        raise ValueError("cubic coefficients are a g = 1 construction")
    b_scalar = complex(B.entries[0, 0])
    es = []
    for point in (0.0, 0.5j, b_scalar / 2.0):
        nu = log_derivatives(ThetaPoint([point], B), 2, eps)
        es.append(nu[(2,)])
    e1, e2, e3 = es
    a = (e1 + e2 + e3) / pi**2
    b = -(e1 * e2 + e1 * e3 + e2 * e3) / (4.0 * pi**4)
    c = e1 * e2 * e3 / (16.0 * pi**6)
    return CubicCoefficients(a=a, b=b, c=c, e1=e1, e2=e2, e3=e3)


def verify_cubic(u, B, eps: float = 1e-12) -> CubicResiduals:
    """Residuals of the three g = 1 identities at (u, B), all ~0 off the
    divisor:

        r_cubic   = |kappa_3^2 + 4 kappa_2^3 - a kappa_2^2 - b kappa_2 - c|
        r_quartic = |nu_4 + 6 nu_2^2 - a_nu nu_2 - b_nu/2|
        r_det     = |nu_2 nu_4 + 2 nu_2^3 - nu_3^2 + (b_nu/2) nu_2 + c_nu|

    (r_det is the determinant identity for the mean/variance map; the sign
    of the constant term follows from the cubic and quartic relations.)
    """
    coef = cubic_coefficients(B, eps)
    B = as_siegel(np.atleast_2d(np.asarray(B, dtype=complex)))
    nus = log_derivatives(ThetaPoint([u], B), 4, eps)
    n2, n3, n4 = nus[(2,)], nus[(3,)], nus[(4,)]
    k2, k3 = n2 / TWO_PI**2, n3 / TWO_PI**3
    r_cubic = abs(k3**2 + 4.0 * k2**3 - coef.a * k2**2 - coef.b * k2 - coef.c)
    r_quartic = abs(n4 + 6.0 * n2**2 - coef.a_nu * n2 - coef.b_nu / 2.0)
    r_det = abs(n2 * n4 + 2.0 * n2**3 - n3**2 + coef.b_nu / 2.0 * n2 + coef.c_nu)
    return CubicResiduals(r_cubic=r_cubic, r_quartic=r_quartic, r_det=r_det)


class _Line:
    """The summands of theta along the complex line u = base + t*d at one B.

    e(n.u - 1/2 n^T B n) = exp(L_n + 2*pi*t*s_n), with
    L_n = 2*pi*(n.base - 1/2 n^T B n) the engine's exponent of the summand
    at base (engine._log_summands) and s_n = n.d.  The memo holds L and s
    over the largest lattice ball asked for so far, in the order of
    lattice_points, so a smaller ball is a prefix of it and a larger one
    forms L and s for its new points only.
    """

    __slots__ = ("base", "direction", "B", "L", "s")

    def __init__(self, base, direction, B):
        self.base, self.direction, self.B = base, direction, B
        self.L = self.s = np.empty(0, dtype=complex)

    def terms(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """L and s over the ball ||n|| <= radius."""
        pts = lattice_points(self.B.g, radius)
        L, s = self.L, self.s
        if len(pts) > len(L):
            more = pts[len(L) :]
            L = np.concatenate([L, _log_summands(more, self.base, self.B.entries)])
            s = np.concatenate([s, more.astype(float) @ self.direction])
            self.L, self.s = L, s
        return L[: len(pts)], s[: len(pts)]


def _scan(line: _Line, res: np.ndarray, ims: np.ndarray) -> np.ndarray:
    """theta(base + t*d) at t = res[j] + i*ims[k], as a len(res) x len(ims)
    array, each to certified absolute error < SCAN_EPS.

    One ball serves every grid point: the one truncation_radius certifies
    at the window corner of largest ||Re u||.  ||Re u|| is convex in t, so
    that corner bounds it on the whole window, and by the monotonicity of
    the radius rule (engine module docstring) the ball certifies every grid
    point.  The grid is one contraction over the ball,

        theta[j, k] = sum_n S[j, n] P[k, n],
        S[j, n] = exp(L_n + 2*pi*(res[j] + i*c_n)*s_n),
        P[k, n] = exp(2*pi*i*(ims[k] - c_n)*s_n),

    so 2 x 41 exps per point, not 41 x 41.  The modulus of summand n is
    the exp of a linear function of Im t, with slope -2*pi*Im s_n, and c_n
    is the end of the imaginary range where it peaks.  So S[j, n], one exp
    of the whole exponent, is the largest summand of point n on row j,
    finite wherever the summands at the grid points are, and |P| <= 1:
    where P underflows, the summand's error is at most 2^-1074 |S[j, n]|,
    far below the rounding of S[j, n] itself.  The points are contracted
    in tiles of SCAN_TILE, one complex product S[:, tile] @ P[tile] each.

    Raises ToleranceUnreachable when a value is not finite in double
    precision or the certificate cannot be issued.
    """
    corners = [line.base + complex(a, b) * line.direction for a in res[[0, -1]] for b in ims[[0, -1]]]
    far = max(corners, key=lambda u: np.linalg.norm(u.real))
    L, s = line.terms(truncation_radius(line.B, far, None, SCAN_EPS).radius)
    peak = np.where(s.imag > 0, ims.min(), ims.max())
    step = max(1, TILE_ELEMENTS // (2 * (len(res) + len(ims))) // SCAN_TILE) * SCAN_TILE
    sums = np.zeros((len(res), len(ims)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(L), step):
            sn, cn = s[lo : lo + step], peak[lo : lo + step]
            rate = TWO_PI * sn
            S = np.exp((L[lo : lo + step] + 1j * cn * rate) + res[:, None] * rate)
            P = np.exp((1j * rate)[:, None] * (ims - cn[:, None]))
            for t in range(0, len(sn), SCAN_TILE):
                sums += S[:, t : t + SCAN_TILE] @ P[t : t + SCAN_TILE]
    _require_finite(sums)
    return sums


def find_theta_zero(line, B, t_window=((-2.0, 2.0), (-2.0, 2.0))) -> np.ndarray:
    """A point u* = base + t*direction with |theta(u*, B)| < ZERO_TOL, found
    by a coarse scan of the complex t rectangle followed by Newton
    refinement on t -> theta(base + t*direction, B).

    Both evaluate the summands of one memo along the line (_Line).  The
    ZERO_GRID x ZERO_GRID scan (_scan) is one contraction over one ball,
    certified at SCAN_EPS.  Newton starts from the five grid points of
    smallest floor(|theta| / SCAN_EPS), in grid order among equals, so the
    candidates do not depend on the scan's rounding below its certified
    accuracy (on a line along a period the grid holds copies of one value).
    Once |theta| < ZERO_TOL, Newton steps on while |theta| still falls, so
    a flat zero (small |theta'|) is found to rounding, not to
    ZERO_TOL / |theta'|; the last such point is the zero when it lies
    inside the window.  Each step forms w_n = exp(L_n + 2*pi*t*s_n) over the
    ball certified for first derivatives at DIVISOR_EPS, and takes
    f = sum w and f' = 2*pi*sum s*w, the derivative along the direction,
    in error below ||direction||_1 * DIVISOR_EPS.  A step certifies a new
    ball only when its ||Re u|| exceeds the largest already certified,
    whose ball covers every smaller one.

    Raises NoZeroFound when no candidate in the window refines to a zero,
    and ToleranceUnreachable when a value is not finite in double
    precision or a certificate cannot be issued.
    """
    B = as_siegel(B)
    base = np.atleast_1d(np.asarray(line[0], dtype=complex))
    direction = np.atleast_1d(np.asarray(line[1], dtype=complex))
    if base.shape != (B.g,) or direction.shape != (B.g,):
        raise ValueError("line must be a (base, direction) pair of g-vectors")
    if not np.any(direction != 0):
        raise ValueError("direction must be nonzero")
    memo = _Line(base, direction, B)

    (re_lo, re_hi), (im_lo, im_hi) = t_window
    res = np.linspace(re_lo, re_hi, ZERO_GRID)
    ims = np.linspace(im_lo, im_hi, ZERO_GRID)
    ts = (res[:, None] + 1j * ims[None, :]).ravel()
    scan = _scan(memo, res, ims).ravel()
    # the five grid points of smallest |theta| in units of SCAN_EPS, smallest
    # first; values the scan's certificate cannot tell apart keep grid order
    rank = np.floor(np.abs(scan) / SCAN_EPS)
    cands = [complex(t) for t in ts[np.argsort(rank, kind="stable")[:5]]]

    span = max(re_hi - re_lo, im_hi - im_lo)
    margin = 2.0 * span / (ZERO_GRID - 1)

    def inside(t: complex) -> bool:
        return (
            re_lo - margin <= t.real <= re_hi + margin
            and im_lo - margin <= t.imag <= im_hi + margin
        )

    certified, radius = -1.0, 0.0
    for t0 in cands:
        t, best = t0, None
        for _ in range(60):
            u = base + t * direction
            rho = float(np.linalg.norm(u.real))
            if rho > certified:
                radius = truncation_radius(B, u, unit(B.g, 0), DIVISOR_EPS).radius
                certified = rho
            L, s = memo.terms(radius)
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.exp(L + TWO_PI * t * s)
                f, fp = complex(w.sum()), complex(TWO_PI * np.dot(s, w))
            _require_finite(np.array([f, fp]))
            if best is not None and not abs(f) < best[0]:
                break  # |theta| stopped falling: best is the zero
            if abs(f) < ZERO_TOL:
                best = (abs(f), u, inside(t))
            if fp == 0:
                break
            t = t - f / fp
            if abs(t - t0) > 2.0 * span:  # drifted far out of the window
                break
        if best is not None and best[2]:
            return best[1]
    raise NoZeroFound("no theta zero located on the line inside the window")


def gauss_map(u, B) -> ProjectivePoint:
    """Gauss map [d theta/d u_1 : ... : d theta/d u_g] at a divisor point.

    Requires |theta(u, B)| < 1e-8; raises SingularDivisorPoint when all
    first partials vanish (modulus below 1e-10).
    """
    B = as_siegel(B)
    point = ThetaPoint(u, B)
    grad_idx = [unit(B.g, i) for i in range(B.g)]
    table = theta_du_many([(0,) * B.g] + grad_idx, point, DIVISOR_EPS)
    if abs(table[(0,) * B.g]) >= DIVISOR_TOL:
        raise ValueError("the Gauss map is defined on the theta divisor only")
    partials = np.array([table[a] for a in grad_idx])
    if np.max(np.abs(partials)) < 1e-10:
        raise SingularDivisorPoint("all first partials vanish at this point")
    return ProjectivePoint(partials)


@dataclass(frozen=True)
class FormFit:
    """Least-squares vanishing form: coefficients of the smallest singular
    vector of the monomial matrix, its singular value as residual, and the
    full spectrum for uniqueness diagnostics."""

    coeffs: np.ndarray
    residual: float
    singular_values: np.ndarray
    monomials: list


def fit_vanishing_form(points, degree: int) -> FormFit:
    """Degree-`degree` form in the homogeneous coordinates of `points` that
    minimizes the vanishing residual, via SVD of the monomial matrix with
    every point normalized to unit max modulus.

    `points` is a k x n array of homogeneous coordinate rows, or anything
    np.asarray reads as one, such as a list of ProjectivePoints.  The
    monomials are indices_of_order(n, degree), lexicographically descending.

    Raises RankDeficientInput with fewer points than monomials or when the
    points span too small a subspace (two-dimensional nullspace).
    """
    Z = np.asarray(points, dtype=complex)
    if Z.size == 0:
        raise RankDeficientInput("no points given")
    if Z.ndim != 2:
        raise ValueError("points must be rows of homogeneous coordinates")
    nvars = Z.shape[1]
    monomials = indices_of_order(nvars, degree)
    if len(Z) < len(monomials):
        raise RankDeficientInput(
            f"need at least {len(monomials)} points for a degree-{degree} form "
            f"in {nvars} variables, got {len(Z)}"
        )
    Z = Z / Z[np.arange(len(Z)), np.argmax(np.abs(Z), axis=1)][:, None]
    M = np.prod(Z[:, None, :] ** np.array(monomials)[None, :, :], axis=2)
    _, s, vh = np.linalg.svd(M)
    if s[-2] < 1e-12:
        raise RankDeficientInput(
            "points span too small a subspace; vanishing form not unique"
        )
    return FormFit(
        coeffs=vh[-1].conj(),
        residual=float(s[-1]),
        singular_values=s,
        monomials=monomials,
    )


def kummer_quartic_fit(B, points) -> FormFit:
    """Quartic surface through d = 2 map images of a g = 2 parameter.

    `points` should be at least 40 pairwise distinct map images at B, as
    the k x 4 array statistical_map_stack(2, U, B) returns (one stacked
    theta evaluation for every point) or as ProjectivePoints from
    statistical_map(2, .); the fit certifies the Kummer quartic when the
    residual is ~0 and the second-smallest singular value is bounded away
    from it.
    """
    B = as_siegel(B)
    if B.g != 2:
        raise ValueError("the Kummer quartic lives over g = 2")
    points = np.asarray(points, dtype=complex)
    if points.size and (points.ndim != 2 or points.shape[1] != 4):
        raise ValueError("expected points in P^3 from the degree-2 map")
    return fit_vanishing_form(points, 4)


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    collisions: int
    min_separation: float


def identifiability_probe(B, trials: int, seed: int = 0) -> ProbeReport:
    """Random search for order-<=3 moment collisions at fixed B (g <= 2).

    Draws pairs (u, u') uniformly on the parameter torus, rejecting points
    near the divisor, pairs whose canonical forms nearly coincide and pairs
    differing by a period lattice vector (the same point of the abelian
    variety).  For each surviving pair the sup-norm distance between the
    moment vectors (mu_a for 1 <= |a| <= 3) is recorded; a collision is a
    distance at or below 1e-6.  Needs trials >= 1.
    """
    if trials < 1:
        raise ValueError("the probe needs at least one trial")
    B = as_siegel(B)
    if B.g not in (1, 2):
        raise ValueError("the probe is implemented for g in {1, 2}")
    g = B.g
    rng = np.random.Generator(np.random.Philox(seed))
    idx3 = [a for a in indices_up_to(g, 3) if sum(a) >= 1]

    def sample_point():
        while True:
            x = rng.uniform(0.0, 1.0, g)
            y = rng.uniform(0.0, 1.0, g)
            u = 1j * x + B.entries @ y
            if abs(theta(ThetaPoint(u, B), 1e-10)) > 0.05:
                return u

    def lattice_related(w):
        # w = i*m + B n with integer m, n?
        n = np.linalg.solve(B.entries.real, w.real)
        if np.max(np.abs(n - np.round(n))) > 1e-6:
            return False
        m = w.imag - B.entries.imag @ np.round(n)
        return bool(np.max(np.abs(m - np.round(m))) < 1e-6)

    def moment_vector(u):
        mus = moment_table(theta_du_many(indices_up_to(g, 3), ThetaPoint(u, B), 1e-12))
        return np.array([mus[a] for a in idx3])

    collisions = 0
    min_sep = float("inf")
    done = 0
    while done < trials:
        u = sample_point()
        v = sample_point()
        if lattice_related(v - u):
            continue
        # at one B the canonical B parts coincide; compare the u parts
        cu, _, _ = canonical_parameters(u, B.entries)
        cv, _, _ = canonical_parameters(v, B.entries)
        if np.max(np.abs(cu - cv)) <= 1e-3:
            continue
        sep = float(np.max(np.abs(moment_vector(u) - moment_vector(v))))
        min_sep = min(min_sep, sep)
        if sep <= 1e-6:
            collisions += 1
        done += 1
    return ProbeReport(trials=trials, collisions=collisions, min_separation=min_sep)
