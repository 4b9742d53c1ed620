"""Discrete Gaussian distributions on Z^g parametrized by theta.

The probability mass function with parameters (u, B) off the theta divisor
is

    p(n) = e(-1/2 n^T B n + n^T u) / theta(u, B)

which is a genuine positive density for real parameters and a complex-valued
distribution otherwise.  Expectations of complex-valued distributions are
plain lattice sums weighted by the complex pmf; no positivity is assumed.

Moments come from theta derivatives (mu_a = (2*pi)^-|a| D^a_u theta / theta,
in :func:`moment_table`, the one place that conversion is made), covariances
of monomials from raw moments (:func:`moment_covariance`), cumulants from the
exact multivariate moment-cumulant recursion, central moments from the
binomial expansion over raw moments.  The recursion's terms depend only on
the multi-indices of the moment table, so :func:`moments_to_cumulants`
plans them once per key tuple (a cached list of binomial coefficients and
index pairs) and each call does only the arithmetic.  All operations are
pure; instances are immutable apart from an internal moment memo.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import TWO_PI, PointSums, ThetaPoint, _real, _summands_at, theta
from .errors import DivisorHit, NotUnimodular
from .multiindex import exponents, indices_up_to, mi_binomial, sub_indices, unit

SAME_DISTRIBUTION_TOL = 1e-10


@dataclass(frozen=True)
class SplitSpec:
    """Coordinate split Z^g = Z^g1 x Z^g2, g1 the leading block."""

    g1: int
    g2: int

    def __post_init__(self):
        if self.g1 < 1 or self.g2 < 1:
            raise ValueError("both blocks of a split must be nonempty")


@lru_cache(maxsize=64)
def _cumulant_plan(keys: tuple, g: int) -> tuple:
    """The terms of the moment-cumulant recursion for a table with these
    keys: for each a with |a| >= 1, in order of |a|, the pair (a, terms)
    with terms the triples (C(a', b), b + e_i, a' - b) of the sum, in the
    lexicographic order of b (see moments_to_cumulants)."""
    plan = []
    for a in sorted((k for k in keys if sum(k) >= 1), key=sum):
        i = next(k for k in range(g) if a[k] > 0)
        ap = tuple(a[k] - (1 if k == i else 0) for k in range(g))
        terms = tuple(
            (
                mi_binomial(ap, b),
                tuple(b[k] + (1 if k == i else 0) for k in range(g)),
                tuple(ap[k] - b[k] for k in range(g)),
            )
            for b in sub_indices(ap)
            if b != ap
        )
        plan.append((a, terms))
    return tuple(plan)


def moments_to_cumulants(moments: dict, g: int) -> dict:
    """Cumulants kappa_a from raw moments mu_a = E[X^a], for every a with
    1 <= |a| and all componentwise-smaller moments present.

    Standard recursion from M'(v) = M(v) K'(v) for the generating functions:
    with i the first coordinate where a_i > 0 and a' = a - e_i,

        kappa_a = mu_a - sum_{b < a'} C(a', b) kappa_{b + e_i} mu_{a' - b}.

    The terms depend only on the table's keys and g, so they are planned
    once per key tuple and cached; each call does only the products and
    subtractions.  Table values may be scalars or equal-shape arrays (one
    entry per point of a stack); the input table is never modified.  A
    missing ancestor moment raises KeyError.
    """
    kappa = {}
    for a, terms in _cumulant_plan(tuple(moments), g):
        acc = moments[a]
        for c, bi, rest in terms:
            acc = acc - c * kappa[bi] * moments[rest]
        kappa[a] = acc
    return kappa


def moment_table(derivs: dict, theta=None) -> dict:
    """Raw moments mu_a = (2*pi)^-|a| D^a_u theta / theta for every entry of
    a table {a: D^a_u theta} of theta derivatives.

    `theta` is the normalizer; by default the table's own a = 0 entry.
    Table values (and `theta`) may be scalars or equal-shape arrays, one
    entry per point of a stack.
    """
    if theta is None:
        theta = derivs[(0,) * len(next(iter(derivs)))]
    return {a: v / theta / TWO_PI ** sum(a) for a, v in derivs.items()}


def moment_covariance(mus: dict, indices) -> np.ndarray:
    """Covariance matrix of the monomials X^a, a in `indices`:

        C[p, q] = mu_{a_p + a_q} - mu_{a_p} mu_{a_q}

    from a raw moment table holding every sum a_p + a_q.  With the unit
    indices e_i this is the covariance of X; with the monomials of the
    sufficient statistic it is the Hessian of log theta up to weights.
    The matrix is exactly symmetric.
    """
    return np.array(
        [
            [mus[tuple(map(operator.add, a, b))] - mus[a] * mus[b] for b in indices]
            for a in indices
        ]
    )


def mean_cov(mus: dict, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of X in Z^g from raw moments up to order two."""
    units = [unit(g, i) for i in range(g)]
    return np.array([mus[a] for a in units]), moment_covariance(mus, units)


def cross_entropy(log_theta, u, B, mean, second):
    """E_q[-log p] = log theta - 2*pi <u, mean> + pi <B, second> for the
    law p with parameters (u, B) and log-normalizer log_theta, and any q
    with that mean and second moments E_q[X X^T] = `second`; <., .> is the
    entrywise (Frobenius) pairing.

    The one place the formula is written.  At the law's own moments it is
    the entropy of p (DiscreteGaussian.entropy); at a target's moments it
    is the objective that moment matching minimises (fitting.fit), whose
    minimum is the entropy of the fitted law (Cover & Thomas, Elements of
    Information Theory, Thm 12.1.1).
    """
    return log_theta - TWO_PI * np.dot(u, mean) + math.pi * np.sum(B * second)


def canonical_parameters(u, B):
    """Unique representative of (u, B) under the integer-shift action

        (a, beta).(u, B) = (u + i*a + i/2*diag(beta), B - i*beta)

    for integer a and symmetric integer beta, which leaves the distribution
    unchanged: canonical Im(B) and Im(u) entries lie in [0, 1), boundary
    values flooring downward.  Returns (u, B, witness (a, beta)).
    """
    u = np.asarray(u, dtype=complex)
    B = np.asarray(B, dtype=complex)
    # the action subtracts i*beta, so beta = floor(Im B) lands Im in [0,1)
    beta = np.floor(B.imag).astype(np.int64)
    shift = 0.5 * np.diag(beta).astype(float)
    a = -np.floor(u.imag + shift).astype(np.int64)
    return u + 1j * a + 1j * shift, B - 1j * beta, (a, beta)


class DiscreteGaussian:
    """A discrete Gaussian on Z^g with cached normalizer theta(u, B).

    Construction fails with DivisorHit when |theta| <= 10*eps: every
    statistic divides by theta, so points on (or numerically at) the theta
    divisor are invalid parameters.

    theta and every derivative table come from one engine.PointSums, `sums`,
    so each pair of lattice points +-n is summed once however many orders
    are asked for; `sums.radius` is the largest certified radius summed so
    far.  Its memo holds the even and odd parts of each pair of that ball,
    8 bytes per point for real parameters and 16 otherwise, for g >= 2 no
    more than the held int64 lattice array it indexes.
    """

    __slots__ = ("point", "theta_value", "eps", "sums", "_moments", "_moments_order", "_cumulants")

    def __init__(self, u, B, eps: float = 1e-12):
        point = ThetaPoint(u, B)
        sums = PointSums(point, eps)
        zero = (0,) * point.g
        value = sums.table([zero])[zero]
        if abs(value) <= 10.0 * eps:
            raise DivisorHit(
                f"|theta(u,B)| = {abs(value):.3e} <= 10*eps; parameters lie on "
                "the theta divisor"
            )
        self.point = point
        self.sums = sums
        self.theta_value = value
        self.eps = eps
        self._moments = {}
        self._moments_order = -1
        self._cumulants = {}

    @property
    def g(self) -> int:
        return self.point.g

    @property
    def u(self) -> np.ndarray:
        return self.point.u

    @property
    def B(self) -> np.ndarray:
        return self.point.B.entries

    def __repr__(self):
        return f"DiscreteGaussian(g={self.g}, theta={self.theta_value:.6g})"

    # -- internal -------------------------------------------------------

    def _moment_table(self, order: int) -> dict:
        # memo of mu_a for |a| <= order; a benign race only recomputes.
        # Normalized by the stored theta_value: the derivative table's a = 0
        # entry matches it only to rounding.
        if order > self._moments_order:
            derivs = self.sums.table(indices_up_to(self.g, order))
            self._moments = moment_table(derivs, self.theta_value)
            self._moments_order = order
            self._cumulants = {}  # the held cumulants came from the old moments
        return {a: v for a, v in self._moments.items() if sum(a) <= order}

    # -- pointwise ------------------------------------------------------

    def pmf(self, n) -> complex:
        """Mass at the lattice point n; real and in [0,1) for real (u, B),
        0 where its term underflows.  Raises ValueError unless n is an
        integer vector of length g."""
        n = _int_array(n, (self.g,))
        return complex(_summands_at(n[None, :], self.u, self.B)[0] / self.theta_value)

    def char_fn(self, v) -> complex:
        """Characteristic function E[e^{i v.X}] = theta(u + iv/2pi, B)/theta."""
        v = np.asarray(_real(v, ValueError, "v"), dtype=float)
        shifted = ThetaPoint(self.u + 1j * v / TWO_PI, self.point.B)
        return theta(shifted, self.eps) / self.theta_value

    # -- moments ----------------------------------------------------------

    def moment(self, a) -> complex:
        """Raw moment E[X^a] = (2*pi)^-|a| D^a_u theta / theta."""
        a = exponents(a, self.g)
        return self._moment_table(sum(a))[a]

    def central_moment(self, a) -> complex:
        """Central moment m_a = E[(X-mu)^a], by the binomial expansion over
        raw moments

            m_a = sum_{0<=b<=a} C(a,b) (-mu)^b mu_{a-b}

        with (-mu)^b the product of powered negated means.
        """
        a = exponents(a, self.g)
        mus = self._moment_table(max(sum(a), 1))  # the expansion uses the mean
        neg_mean = [-mus[unit(self.g, i)] for i in range(self.g)]
        return sum(
            mi_binomial(a, b)
            * math.prod(m**bi for m, bi in zip(neg_mean, b))
            * mus[tuple(map(operator.sub, a, b))]
            for b in sub_indices(a)
        )

    def cumulant(self, a) -> complex:
        """Cumulant kappa_a = (2*pi)^-|a| D^a_u log theta, via the exact
        moment-cumulant recursion on certified moments."""
        try:  # held: asked before, or of an order a recursion has covered
            return self._cumulants[a]
        except (KeyError, TypeError):  # not held, or not hashable
            pass
        a = exponents(a, self.g)
        if sum(a) < 1:
            raise ValueError("cumulants are defined for |a| >= 1")
        # one recursion serves every cumulant up to its order; kappa_a takes
        # the same terms in the same order in any table that holds a
        kappa = moments_to_cumulants(self._moment_table(sum(a)), self.g)
        self._cumulants.update(kappa)
        return kappa[a]

    def mean_cov(self):
        """Mean vector and covariance matrix (complex in general; real SPD
        on the real parameter slice)."""
        return mean_cov(self._moment_table(2), self.g)

    def entropy(self) -> complex:
        """H = log theta - 2*pi <u, mu> + pi <B, Sigma + mu mu^T>: the
        cross_entropy of the law at its own moments.

        For non-real parameters the principal branch of log theta is used
        (branch ambiguity is inherent there; on the real slice theta > 0 and
        the value is the genuine Shannon entropy).
        """
        mean, cov = self.mean_cov()
        second = cov + np.outer(mean, mean)
        return cross_entropy(np.log(self.theta_value), self.u, self.B, mean, second)

    # -- marginals and group actions -------------------------------------

    def marginal_pmf(self, s: SplitSpec, n1) -> complex:
        """Mass of the leading-block marginal at n1:

            P(X_1 = n1) = e(n1.u1 - 1/2 n1^T B11 n1) * theta(u2 - B12^T n1, B22) / theta
        """
        if s.g1 + s.g2 != self.g:
            raise ValueError(f"split {s} does not match g={self.g}")
        n1 = _int_array(n1, (s.g1,))
        g1 = s.g1
        B = self.B
        B11, B12, B22 = B[:g1, :g1], B[:g1, g1:], B[g1:, g1:]
        u1, u2 = self.u[:g1], self.u[g1:]
        t2 = theta(ThetaPoint(u2 - B12.T @ n1, B22), self.eps)
        return complex(_summands_at(n1[None, :], u1, B11)[0] * t2 / self.theta_value)

    def translate(self, m, n) -> "DiscreteGaussian":
        """Distribution of X + n, realized as the parameter shift
        (u + i*m + B*n, B); the i*m shift alone changes nothing."""
        m = _int_array(m, (self.g,))
        n = _int_array(n, (self.g,))
        new_u = self.u + 1j * m + self.B @ n
        return DiscreteGaussian(new_u, self.point.B, self.eps)

    def unimodular(self, alpha) -> "DiscreteGaussian":
        """Distribution of alpha @ X for alpha in GL(g, Z): parameters map to
        (alpha^-T u, alpha^-T B alpha^-1)."""
        shape = (self.g, self.g)
        alpha = _int_array(alpha, shape, NotUnimodular, "alpha")
        det = int(round(float(np.linalg.det(alpha.astype(float)))))
        if det not in (-1, 1):
            raise NotUnimodular(f"det(alpha) = {det}; must be +-1")
        inv = np.round(np.linalg.inv(alpha.astype(float)))
        inv = _int_array(inv, shape, NotUnimodular, "alpha^-1")
        if not np.array_equal(alpha @ inv, np.eye(self.g, dtype=np.int64)):
            raise NotUnimodular("alpha is not invertible over the integers")
        new_u = inv.T @ self.u
        new_B = inv.T @ self.B @ inv
        new_B = 0.5 * (new_B + new_B.T)  # restore exact symmetry
        return DiscreteGaussian(new_u, new_B, self.eps)

    def canonicalize(self):
        """The canonical representative of this distribution (see
        canonical_parameters) and the witness (a, beta).  The pmf is
        unchanged pointwise."""
        u, B, witness = canonical_parameters(self.u, self.B)
        return DiscreteGaussian(u, B, self.eps), witness

    def same_distribution(self, other: "DiscreteGaussian") -> bool:
        """Equality of distributions: canonical parameters agree to 1e-10."""
        if self.g != other.g:
            raise ValueError("dimensions differ")
        u1, B1, _ = canonical_parameters(self.u, self.B)
        u2, B2, _ = canonical_parameters(other.u, other.B)
        du = np.max(np.abs(u1 - u2))
        dB = np.max(np.abs(B1 - B2))
        return bool(max(du, dB) < SAME_DISTRIBUTION_TOL)

    def is_independent_split(self, s: SplitSpec) -> bool:
        """True when the two blocks are independent: the off-diagonal block
        of B has entries in i*Z (zero after canonicalization), equivalently
        the pmf factorizes."""
        if s.g1 + s.g2 != self.g:
            raise ValueError(f"split {s} does not match g={self.g}")
        B12 = self.B[: s.g1, s.g1 :]
        re_ok = np.all(np.abs(B12.real) < SAME_DISTRIBUTION_TOL)
        im_ok = np.all(
            np.abs(B12.imag - np.round(B12.imag)) < SAME_DISTRIBUTION_TOL
        )
        return bool(re_ok and im_ok)


def _int_array(v, shape: tuple, error=ValueError, name: str = "a lattice vector") -> np.ndarray:
    """v as an int64 array.  Raises `error` unless v has `shape` and its
    entries are finite integers of magnitude at most 2^53, checked before
    any cast."""
    v = _real(v, error, name)
    if v.shape != shape:
        raise error(f"{name} must be an integer array of shape {shape}")
    # integers beyond 2^53 are not exact in float, and would wrap in int64
    if not np.all((v == np.round(v)) & (-(2**53) <= v) & (v <= 2**53)):
        raise error(f"{name} must hold integers of magnitude at most 2^53")
    return np.round(v).astype(np.int64)
