"""Certified evaluation of the Riemann theta function and its derivatives.

The series is

    theta(u, B) = sum_{n in Z^g} e(-1/2 n^T B n + n^T u),    e(x) = exp(2*pi*x)

over the right half-space of symmetric complex B with Re(B) positive
definite.  Note the convention: there is no imaginary unit in the exponent.
The classical upper half-space theta is recovered by z = -i*u, tau = i*B.

Every evaluation truncates the lattice sum to the Euclidean ball
||n|| <= R, where R carries a certified bound on the dropped tail: the
summand modulus is at most

    |(2*pi*n)^a| * exp(2*pi*(-1/2*lmin*||n||^2 + rho*||n||))

with lmin the smallest eigenvalue of Re(B) and rho = ||Re u||.  The tail
is grouped into shells of the sup norm, (2m+1)^g - (2m-1)^g points in
shell m, and bounded in closed form (Deconinck et al., Math. Comp. 2004):
a head term for the shells inside the ball, plus a geometric series past
it, since the ratio of consecutive shell terms does not increase
(_tail_bound).  Lattice points are enumerated by increasing ||n||^2,
lexicographic within shells, so every sum has a fixed deterministic order
and a smaller ball is a prefix of a larger one: lattice_points returns a
read-only prefix of the one ball held per genus (_BALLS), which a larger
radius replaces, built once from prefixes of the genus g - 1 ball.  No
ball may hold more than POINT_BUDGET points: a certificate that needs a
larger one raises ToleranceUnreachable before anything is enumerated, and
the held balls of all genera together hold at most that many.

The quadratic form is even in n, so the terms at n and -n share their
Gaussian factor and their quadratic phase and differ only through
e(+-n.u).  Negation reverses the lexicographic order of a shell, so the
second half of every shell is its first half negated and reversed.  The
half ball, the origin followed by the first half of each shell, is
derived once per enumeration and held in the ball's own _BALLS entry (half
as many points again as the ball); like the ball it is closed under
prefixes, and the prefix of (N + 1) // 2 points pairs the N points of a
ball prefix.  lattice_points and _half_ball read the one entry (_held), so
a ball prefix and its half ball always come from the same enumeration.

A single term t(n) = e(n.u - 1/2 n^T B n) at an explicit point is the
exp of one exponent, 2*pi*(n.u - 1/2 n^T B n), written once in
_log_summands: _summands_at takes its exp for the pmf, the marginal pmf
and the sampler's weights, and the zero finder of geometry keeps the
exponents along its line (geometry._Line).  No phase table and no pair
part is formed for a single term.  The ball evaluators sum each pair +-n
once: _pair_summands_at forms the even and odd parts t(n) + t(-n) and
t(n) - t(-n) at the points of a half ball, for the k rows of a k x g
array of arguments, and _tiled_sums contracts the N x k parts with the
monomial table n^a over the half ball: since (-n)^a = (-1)^|a| n^a, the
even-order rows take the even part and the odd-order rows the odd part.
The origin pairs with itself; its parts are set to 1 and 0 where a half
ball starts, so it is counted once.  The two evaluators differ only in
how they pick the points and the rows.

PointSums evaluates one point.  It keeps the point's pair parts over the
half ball of the largest certified ball asked for so far: a table of any
order forms parts only for the pairs past the held prefix and contracts,
as one column, the prefix it needs, so theta, the order-2 and the order-4
tables of one discrete Gaussian sum each lattice pair once.  theta,
theta_du and theta_du_many are one-shot PointSums.

theta_du_stack evaluates k arguments u (the rows of a k x g array) at one
B, and returns D^a theta for every row and multi-index.  Rows are sorted
by rho = ||Re u|| and cut into blocks of STACK_BLOCK rows, and each block
is summed over one ball, with the radius truncation_radius certifies at
the block's largest rho for the highest order asked for.  That radius is
a true certificate for every row of the block, because both parts of the
radius rule grow with rho: the tail bound (its head term and first shell
term, through the factor exp(2*pi*rho*x), x >= 0, and its shell ratio,
through exp(2*pi*rho)) and the search start (the peak of the shell-term
profile, and rho/lmin).  A radius R found at the largest rho of a block
therefore lies at or past the search start of every smaller rho, where
the bound at R is no larger and so still below eps.  A block is summed in
passes of rows: each pass forms the pair parts of its rows over the
ball's half ball with _pair_summands_at and contracts them, and its phase
tables and its two parts each hold at most TILE_ELEMENTS doubles, so a
larger ball takes more passes of fewer rows.  A repeated-B caller, such
as statistical_map_stack (through which the kummer job maps its
candidates), thus pays one certificate per block, not one per argument;
the zero finder of geometry certifies its scan of a line the same way, at
the largest rho of its window.

In a pair part, each summand is a magnitude times a unit-modulus
phase.  The phase e(i*Im E) splits into a per-point factor
c = exp(-i*pi n^T Im B n), shared by all rows and even in n, and one
factor exp(2*pi*i n_i Im u_i) per coordinate, gathered at n_i from a
table over j in [-K, K] (K the largest |n_i| of the points) built once
per row, so no sine or cosine is taken per point and row.  The rows of
-j are the exact conjugates of those of j, so the product P of the
gathered factors at -n is conj(P).
A pair therefore takes its quadratic form, c and P once, and two real
exps for the magnitudes M+- = exp(-pi n^T Re B n +- 2*pi n.Re u); its
parts are c((M+ + M-) Re P + i(M+ - M-) Im P) and
c((M+ - M-) Re P + i(M+ + M-) Im P).  At real u and B every phase is 1,
and the parts are the real M+ + M- and M+ - M-, with no tables and no
complex exp.  The parts, cast to complex and viewed as interleaved
(re, im) pairs, are contracted with the monomial rows of their parity in
one real matrix product per parity and tile of half-ball points; each
monomial row is its parent's row (a minus the last nonzero unit vector)
times one coordinate, exact while the entries are integers below 2^53.
A value that is not finite in double precision (the summands overflow)
raises ToleranceUnreachable.

The monomial table depends on the ball and the index set alone, not on
(u, B), so _tiled_sums keeps it in _TILES, keyed by (g, monomial steps):
one table of monomials (rows x N, a copy, never a view of a lattice_points
array) over the largest half ball seen for the key, built by one
_monomials call and permuted so its even-order rows come first, whose
slices are the tiles of any smaller half ball and any row count.  The
multi-indices of a table are normalised once per tuple of indices, with
the rest of its plan (_monomial_plan).
The tables of all keys take at most TILE_CACHE_BYTES, the oldest key
dropped first, and a larger table is built tile by tile and not kept.
Tile boundaries, monomial values (exact integers) and the matrix products
per tile are those of a fresh build, so results are bit-identical
whatever the cache holds.

All functions are pure; held lattice balls are immutable, and a _BALLS
entry (a ball with its half ball), a PointSums memo and a _TILES entry are
replaced whole, so a race between threads only recomputes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDefinite, ToleranceUnreachable
from .multiindex import exponents, unit

TWO_PI = 2.0 * math.pi

# Double-precision lattice sums cannot certify tails below this.
EPS_FLOOR = 1e-14

# Smallest admissible eigenvalue of Re(B); below this the sum is treated
# as divergent for practical purposes.
LAMBDA_MIN_FLOOR = 1e-12

# Rows of a stacked evaluation that share one certified lattice ball.
# Larger blocks pay fewer certificates but sum more rows over the ball of
# their largest ||Re u||, and hold a points x rows work array in memory.
STACK_BLOCK = 128

# Entries of a tile's work arrays: a block sums its lattice ball in tiles of
# points whose monomial table plus terms hold at most this many doubles, so
# memory stays bounded (about 1 MB per array) however large the ball.
TILE_ELEMENTS = 1 << 17

# Bytes of monomial tables _tiled_sums keeps between calls, over all
# (g, monomial steps) keys; the oldest key is dropped first.
TILE_CACHE_BYTES = 16 << 20

# Lattice points one ball may hold (see _max_radius); a certificate or an
# enumeration that needs more raises ToleranceUnreachable.
POINT_BUDGET = 1 << 23


class SiegelMatrix:
    """Symmetric complex g x g matrix with positive definite real part.

    The smallest eigenvalue of Re(B) is computed once at construction and
    cached; it drives every truncation certificate.
    """

    __slots__ = ("entries", "g", "lambda_min")

    def __init__(self, entries):
        B = np.array(entries, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be a square matrix")
        if not np.all(np.isfinite(B)):
            raise ValueError("B must have finite entries")
        if not np.array_equal(B, B.T):
            raise ValueError("B must be symmetric: B[i][j] == B[j][i] exactly")
        lam = float(np.linalg.eigvalsh(B.real)[0])
        if lam <= LAMBDA_MIN_FLOOR:
            raise NonPositiveDefinite(
                f"smallest eigenvalue of Re(B) is {lam:.3e}; must exceed "
                f"{LAMBDA_MIN_FLOOR:.0e}"
            )
        B.setflags(write=False)
        self.entries = B
        self.g = B.shape[0]
        self.lambda_min = lam

    def __repr__(self):
        return f"SiegelMatrix(g={self.g}, lambda_min={self.lambda_min:.6g})"


def as_siegel(B) -> SiegelMatrix:
    return B if isinstance(B, SiegelMatrix) else SiegelMatrix(B)


def _real(x, error, name: str) -> np.ndarray:
    """x as an array, or its real part when x is complex and every
    imaginary part is exactly 0.  Raises `error`, the error of the real-only
    entry point for a non-finite value of `name`, when one is not."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if x.imag.any():
            raise error(f"{name} must be real, with every imaginary part 0")
        x = x.real
    return x


class ThetaPoint:
    """Argument pair (u, B) in C^g x H_g."""

    __slots__ = ("u", "B")

    def __init__(self, u, B):
        B = as_siegel(B)
        u = np.atleast_1d(np.array(u, dtype=complex))
        if u.ndim != 1 or u.shape[0] != B.g:
            raise ValueError(f"u must be a vector of length g={B.g}")
        if not np.all(np.isfinite(u)):
            raise ValueError("u must have finite entries")
        u.setflags(write=False)
        self.u = u
        self.B = B

    @property
    def g(self) -> int:
        return self.B.g

    def __repr__(self):
        return f"ThetaPoint(g={self.g})"


@dataclass(frozen=True)
class TruncationBudget:
    """Certified Euclidean cutoff: the tail beyond ||n|| <= radius is < eps."""

    eps: float
    radius: float


def _max_radius(g: int) -> float:
    """Largest radius R whose ball ||n|| <= R in Z^g the point budget admits.

    The unit cubes about the ball's points are disjoint and lie inside the
    ball of radius R + sqrt(g)/2, so it holds at most V_g (R + sqrt(g)/2)^g
    points, V_g the volume of the unit ball; R is largest with that bound
    at most POINT_BUDGET.
    """
    volume = math.pi ** (g / 2) / math.gamma(g / 2 + 1)
    return (POINT_BUDGET / volume) ** (1.0 / g) - math.sqrt(g) / 2


def _tail_bound(g: int, lam: float, rho: float, q: int, R: int) -> float:
    """Upper bound on sum_{||n||_2 > R} |(2*pi*n)^a| |e(-1/2 n^T B n + n^T u)|
    for any multi-index a of order q.

    Points are grouped by m = ||n||_inf, N(m) = (2m+1)^g - (2m-1)^g of them
    in shell m, and E(x) = exp(2*pi*(rho*x - lam*x^2/2)).  The head, every
    shell m <= M = ceil(R), has (2M+1)^g points with |n^a| <= M^q and E at
    most E(R) (every tail point has ||n||_2 > R, and E decreases past
    rho/lam, where truncation_radius starts).  A shell m > M contributes
    at most t(m) = (2*pi)^q N(m) m^q E(m).  The ratio t(m+1)/t(m) does not
    increase with m, because none of its factors does: N(m+1)/N(m) (N(m) is
    g * integral_{-1}^{1} (2m+t)^(g-1) dt, log-concave in m by Prekopa),
    (1 + 1/m)^q and E(m+1)/E(m) = exp(2*pi*(rho - lam*(m + 1/2))).  So the
    shells past M sum to at most t(M+1) / (1 - t(M+2)/t(M+1)), and to 0 when
    t(M+1) underflows (lam so large that lam (M+1)^2 is beyond double
    range).  Returns inf when that ratio is not below 1 or a term's log
    reaches 700.
    """
    M = int(math.ceil(R))
    logc = q * math.log(TWO_PI)

    def log_term(log_count, m, x):  # log of (2*pi)^q count m^q E(x)
        return logc + log_count + q * math.log(m) + TWO_PI * (-0.5 * lam * x * x + rho * x)

    def log_shell(m):
        return log_term(math.log((2 * m + 1) ** g - (2 * m - 1) ** g), m, float(m))

    log_head = log_term(g * math.log(2 * M + 1), M, float(R))
    log_first = log_shell(M + 1)
    if log_first == -math.inf:  # every shell term past M underflows
        return math.exp(log_head)
    log_ratio = log_shell(M + 2) - log_first
    if max(log_head, log_first) >= 700.0 or log_ratio >= 0.0:
        return math.inf
    return math.exp(log_head) + math.exp(log_first) / -math.expm1(log_ratio)


def truncation_radius(B, u, a=None, eps: float = 1e-12) -> TruncationBudget:
    """Smallest integer radius whose certified tail bound is below eps.

    The bound covers the derivative summand (2*pi*n)^a for the given
    multi-index (a = None or zeros for plain theta).  The search doubles
    the radius from its start, at most to the largest radius the point
    budget admits (_max_radius), then bisects between the last radius that
    failed and the first that certified eps.  The search starts past the
    peak of the shell-term profile, or at 1 when the peak's formula leaves
    double range, which happens only for lambda_min near the top of it.

    Raises ToleranceUnreachable if eps is below the double-precision floor,
    rho = ||Re u|| or rho^2 is beyond double range, or the ball would hold
    more than POINT_BUDGET lattice points.
    """
    B = as_siegel(B)
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    q = 0 if a is None else sum(exponents(a, B.g))
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps < EPS_FLOOR:
        raise ToleranceUnreachable(
            f"eps={eps:.3e} is below the double-precision floor {EPS_FLOOR:.0e}"
        )
    lam = B.lambda_min
    with np.errstate(over="ignore"):
        rho = float(np.linalg.norm(u.real))
    if not math.isfinite(rho * rho):
        big = float(np.abs(u.real).max())
        raise ToleranceUnreachable(f"||Re u||^2 is beyond double range (largest |Re u_i| is {big:.3e})")
    top = math.floor(_max_radius(B.g))

    # start past the peak of the shell-term profile so shell terms decrease;
    # the sup-norm shell count contributes an extra x^(g-1) factor
    q_eff = q + B.g - 1
    peak = (rho + math.sqrt(rho * rho + 2.0 * lam * q_eff / math.pi)) / (2.0 * lam)
    # peak is not finite only when 2 lam (times q_eff) is beyond double range;
    # the peak then lies below 1, as rho^2 is finite and lam that large
    R = max(1, int(math.ceil(rho / lam)), int(math.ceil(peak))) if math.isfinite(peak) else 1
    # double, at most to top, until R certifies eps; then bisect between the
    # last radius that failed and R (never below the start)
    failed = R - 1
    while R > top or _tail_bound(B.g, lam, rho, q, R) >= eps:
        if R >= top:
            raise ToleranceUnreachable(
                f"eps={eps:.3e} needs a radius above {top}, beyond {POINT_BUDGET} points at g={B.g}"
            )
        failed, R = R, min(2 * R, top)
    while failed + 1 < R:
        mid = (failed + R) // 2
        if _tail_bound(B.g, lam, rho, q, mid) < eps:
            R = mid
        else:
            failed = mid
    return TruncationBudget(eps=eps, radius=float(R))


# g -> (r2, points, squared norms, half ball) of the largest ball
# ||n||^2 <= r2 enumerated so far in Z^g, the half ball (_first_halves)
# derived once per enumeration; entries are replaced whole, and dropped, the
# largest of another genus first, while all hold more than POINT_BUDGET points.
_BALLS: dict = {}


def _ball(g: int, r2: int) -> tuple:
    """The held ball of Z^g, enumerated anew as ||n||^2 <= r2 if smaller.
    At g > 1 the points (x, m) are written in order of x, then of m in the
    prefix ||m||^2 <= r2 - x^2 of the genus g - 1 ball, so a stable sort by
    ||n||^2 leaves each shell in lexicographic order."""
    held = _BALLS.get(g, (-1,))
    if held[0] >= r2:
        return held
    K = math.isqrt(r2)
    if g == 1:
        pts = (np.arange(1, 2 * K + 2) // 2)[:, None]  # 0, 1, 1, 2, 2, ...
        pts[1::2] *= -1
        n2 = pts[:, 0] ** 2
    else:
        _, sub, sub_n2, _ = _ball(g - 1, r2)
        counts = np.searchsorted(sub_n2, r2 - np.arange(-K, K + 1) ** 2, side="right")
        ends = np.cumsum(counts)
        n2 = np.empty(ends[-1], dtype=np.int64)
        for x, lo, hi in zip(range(-K, K + 1), ends - counts, ends):
            n2[lo:hi] = x * x + sub_n2[: hi - lo]
        order = np.argsort(n2, kind="stable")
        n2 = n2[order]
        # point f as written: c - K, then sub[f - start of chunk c]
        pts = np.empty((len(n2), g), dtype=np.int64)
        for lo in range(0, len(n2), TILE_ELEMENTS):
            f = order[lo : lo + TILE_ELEMENTS]
            c = np.searchsorted(ends, f, side="right")
            pts[lo : lo + len(f), 0] = c - K
            pts[lo : lo + len(f), 1:] = sub[f - ends[c] + counts[c]]
        del order  # freed before the half ball is derived
    pts.setflags(write=False)
    held = _BALLS[g] = (r2, pts, n2, _first_halves(pts))
    # snapshots and a default pop, so threads may race
    others = sorted((len(b[2]), h) for h, b in list(_BALLS.items()) if h != g)
    while others and sum(len(b[2]) for b in list(_BALLS.values())) > POINT_BUDGET:
        _BALLS.pop(others.pop()[1], None)
    return held


def _first_halves(pts: np.ndarray) -> np.ndarray:
    """The half ball of a ball prefix `pts` in the order of lattice_points:
    the origin, then the first half of each shell.  A shell is in
    lexicographic order, which negation reverses, so its second half is its
    first half negated and reversed, and its first half is the points whose
    first nonzero coordinate is negative.  Read-only, and a prefix of the
    half ball of any larger ball."""
    first = pts[:, -1] <= 0  # the origin, or a first nonzero coordinate < 0
    for c in pts.T[-2::-1]:
        np.copyto(first, c < 0, where=c != 0)
    half = pts[first]
    half.setflags(write=False)
    return half


def _held(g: int, radius: float) -> tuple:
    """The held entry of _BALLS that covers ||n||_2 <= radius in Z^g, and
    how many of its points lie in that ball.  Raises ToleranceUnreachable,
    before enumerating anything, when the ball could hold more than
    POINT_BUDGET points (radius above _max_radius(g))."""
    if radius > _max_radius(g):
        raise ToleranceUnreachable(f"radius {radius:g} at g={g} is beyond {POINT_BUDGET} points")
    r2 = int(math.floor(radius * radius + 1e-9))
    held = _ball(int(g), r2)
    return held, int(held[2].searchsorted(r2, side="right"))


def lattice_points(g: int, radius: float) -> np.ndarray:
    """All n in Z^g with ||n||_2 <= radius, sorted by (||n||^2, lex).

    Returns a read-only prefix of the ball held for g.  Raises
    ToleranceUnreachable, before enumerating anything, when the ball could
    hold more than POINT_BUDGET points (radius above _max_radius(g)).
    """
    (_, pts, _, _), n = _held(g, radius)
    return pts[:n]


def _half_ball(g: int, radius: float) -> np.ndarray:
    """The half ball of lattice_points(g, radius): the (N + 1) // 2 points
    that pair its N points, a read-only prefix of the half ball held in the
    same _BALLS entry, so both come from one enumeration."""
    (_, _, _, half), n = _held(g, radius)
    return half[: (n + 1) // 2]


class _Plan(NamedTuple):
    """The bookkeeping of a table that depends on its multi-indices alone."""

    idx: tuple  # the multi-indices, normalised by exponents
    steps: tuple  # (parent row, coordinate) of each monomial row past row 0
    perm: np.ndarray  # the monomial rows, those of even order first
    even: int  # how many rows have even order
    select: np.ndarray  # the row of each multi-index in the permuted table
    scale: np.ndarray  # the column of factors (2*pi)^|a|
    worst: tuple  # the first index of highest order


@lru_cache(maxsize=64)
def _monomial_plan(indices: tuple, g: int) -> _Plan:
    """The plan of a table of the multi-indices `indices`, each normalised
    once here, so a repeated tuple of indices is not normalised again.

    Row 0 of the monomial table n^a is n^0 = 1; every other row is a pair
    (parent row, coordinate i), its parent being a - e_i for the last
    nonzero coordinate i of a.  Ancestors that the indices lack get rows
    too, parents before children.  The table _tiled_sums holds has its rows
    permuted so the even orders come first, for each parity is contracted
    with its own part of the pair summands.  The truncation radius is
    certified for the worst index.
    """
    idx = tuple(exponents(a, g) for a in indices)
    rows = {(0,) * g: 0}
    steps = []
    orders = [0]

    def row(a):
        if a not in rows:
            i = max(j for j, aj in enumerate(a) if aj)
            parent = row(a[:i] + (a[i] - 1,) + a[i + 1 :])
            steps.append((parent, i))
            orders.append(orders[parent] + 1)
            rows[a] = len(steps)
        return rows[a]

    picked = np.array([row(a) for a in idx], dtype=np.intp)
    odd = np.array(orders) % 2
    perm = np.argsort(odd, kind="stable")
    select = np.argsort(perm)[picked]
    scale = np.array([TWO_PI ** sum(a) for a in idx])[:, None]
    for a in (perm, select, scale):
        a.setflags(write=False)
    worst = max(idx, key=sum) if idx else (0,) * g
    return _Plan(idx, tuple(steps), perm, len(odd) - int(odd.sum()), select, scale, worst)


def _plan(indices, g: int) -> _Plan:
    """_monomial_plan of `indices`, any iterable of multi-indices; one that
    holds an unhashable index, such as a list, is normalised first."""
    indices = tuple(indices)
    try:
        return _monomial_plan(indices, g)
    except TypeError:
        return _monomial_plan(tuple(exponents(a, g) for a in indices), g)


def _monomials(cols: np.ndarray, steps: tuple) -> np.ndarray:
    """The monomial table of `steps` (see _monomial_plan) at the points
    whose coordinates are the rows of `cols` (g x N): one multiply per row."""
    mono = np.empty((len(steps) + 1, cols.shape[1]))
    mono[0] = 1.0
    for r, (parent, i) in enumerate(steps, start=1):
        np.multiply(mono[parent], cols[i], out=mono[r])
    return mono


def _phase_tables(Y: np.ndarray, K: int) -> np.ndarray:
    """exp(2*pi*i*j*y) at [c, j + K, r] for j in [-K, K] and y = Y[r, c]
    (g x (2K+1) x k); the rows of -j are the exact conjugates of those of j."""
    angle = (TWO_PI * np.arange(K + 1))[None, :, None] * Y.T[:, None, :]
    tables = np.empty((Y.shape[1], 2 * K + 1, Y.shape[0]), dtype=complex)
    np.cos(angle, out=tables.real[:, K:])
    np.sin(angle, out=tables.imag[:, K:])
    tables[:, :K] = tables[:, :K:-1].conj()
    return tables


def _pair_summands(pts, x, re_V, tables, K: int, B_planes) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd parts t(n) + t(-n) and t(n) - t(-n) of the summands
    t = e(n.v - 1/2 n^T B n) at the lattice points `pts` (int, N x g, every
    |n_i| <= K; x the same points as floats) for each argument v, a column
    of re_V = Re V^T with its phase tables (_phase_tables(Im V, K)): two
    N x k arrays.  B_planes holds Re B and Im B; with tables None (real V
    and B, B_planes holding Re B alone) every phase is 1, and the parts are
    real.

    The quadratic form, its phase exp(-i pi n^T Im B n) = c and the product
    P of the phase tables are formed once per pair; the magnitudes are two
    real exps, M+- = exp(-pi n^T Re B n +- 2 pi n.Re v).  The term at -n
    has the phase c conj(P), the rows of -j being the conjugates of those
    of j, so with P = a + ib the parts are c((M+ + M-)a + i(M+ - M-)b) and
    c((M+ - M-)a + i(M+ + M-)b).
    """
    quad = np.einsum("cpi,pi->cp", x @ B_planes, x)
    lin = x @ re_V
    lin *= TWO_PI
    gauss = (-np.pi * quad[0])[:, None]
    plus = gauss + lin
    np.exp(plus, out=plus)
    minus = np.exp(np.subtract(gauss, lin, out=lin), out=lin)
    even = plus + minus
    odd = np.subtract(plus, minus, out=minus)
    if tables is None:
        return even, odd
    phase = tables[0, pts[:, 0] + K]
    for i in range(1, pts.shape[1]):
        phase *= tables[i, pts[:, i] + K]
    c = np.exp(-1j * np.pi * quad[1])[:, None]
    parts = []
    for re, im in ((even, odd), (odd, even)):
        part = np.empty(phase.shape, dtype=complex)
        np.multiply(re, phase.real, out=part.real)
        np.multiply(im, phase.imag, out=part.imag)
        part *= c
        parts.append(part)
    return parts[0], parts[1]


# (g, monomial steps) -> the monomial table (rows x N) of the largest half
# ball kept for that key, its rows in the order of the plan's perm; entries
# are replaced whole.
_TILES: dict = {}
_TILES_LOCK = threading.Lock()


def _tiled_sums(half: np.ndarray, even: np.ndarray, odd: np.ndarray, plan: _Plan) -> np.ndarray:
    """sum_n n^a t_n over the ball whose half ball is `half`, for each row a
    of the plan's monomial table (rows of the result, in the order of
    plan.perm) and each column of the terms t (columns of the result,
    complex), given as the N x k even and odd parts at the half ball
    (_pair_summands_at).  An even row takes the even part and an odd row
    the odd part, for n^a at -n is (-1)^|a| n^a.

    The points are taken in tiles, slices of the table _TILES holds, whose
    monomials plus parts hold at most TILE_ELEMENTS doubles; each tile's
    parts, cast to complex when real, are contracted in one real matrix
    product per parity as interleaved (re, im) pairs.
    """
    n, g = half.shape
    rows, E = len(plan.steps) + 1, plan.even
    key = (g, plan.steps)
    monos = _TILES.get(key, np.empty((0, 0)))
    if monos.shape[1] < n and n * rows * 8 <= TILE_CACHE_BYTES:
        monos = _monomials(half.T.astype(float), plan.steps)[plan.perm]
        with _TILES_LOCK:
            _TILES.pop(key, None)
            _TILES[key] = monos
            while sum(m.nbytes for m in _TILES.values()) > TILE_CACHE_BYTES:
                del _TILES[next(iter(_TILES))]
    k = even.shape[1]
    step = max(1, TILE_ELEMENTS // (rows + 4 * k))
    sums = np.zeros((rows, 2 * k))
    for lo in range(0, n, step):
        tile = slice(lo, min(lo + step, n))
        if monos.shape[1] >= n:
            mono = monos[:, tile]
        else:
            mono = _monomials(half[tile].T.astype(float), plan.steps)[plan.perm]
        sums[:E] += mono[:E] @ even[tile].astype(complex, copy=False).view(float)
        if E < rows:
            sums[E:] += mono[E:] @ odd[tile].astype(complex, copy=False).view(float)
    return sums.view(complex)


def _log_summands(pts: np.ndarray, U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """2*pi*(n.u - 1/2 n^T B n), the log of the summand e(n.u - 1/2 n^T B n),
    at the integer points `pts` (N x g) for each argument u at the matrix
    B.  U is one argument (a g-vector), for which N values are returned, or
    the k x g array of k arguments, for which an N x k array is.  Real when
    U and B are real, complex otherwise."""
    x = pts.astype(float)
    quad = np.einsum("pi,pi->p", x @ B, x)
    if U.ndim == 2:
        quad = quad[:, None]
    return TWO_PI * (x @ U.T - 0.5 * quad)


def _summands_at(pts: np.ndarray, U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """e(n.u - 1/2 n^T B n) at the integer points `pts` (N x g), for each
    argument u at the matrix B: the exp of _log_summands, shaped as it is,
    formed in chunks of points whose floats and B products hold at most
    TILE_ELEMENTS doubles.  The summands are 0 where they underflow and
    not finite where they overflow.  The pmf and the sampler's weights form
    their summands here, one per point; the ball evaluators form pair parts
    (_pair_summands_at).
    """
    step = max(1, TILE_ELEMENTS // (3 * pts.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate(
            [np.exp(_log_summands(pts[lo : lo + step], U, B)) for lo in range(0, len(pts), step)]
        )


def _pair_summands_at(half: np.ndarray, U: np.ndarray, B: np.ndarray) -> tuple:
    """The even and odd parts t(n) + t(-n) and t(n) - t(-n) of the summands
    at the points `half` of a half ball (N x g), for each row u of the
    k x g array U at the matrix B: two N x k arrays, complex, or real when
    U and B are real, not finite where they overflow.  The parts are formed
    by _pair_summands with phase tables up to K, the largest |n_i|, in
    chunks whose float points and B products hold at most TILE_ELEMENTS
    doubles; real U and B take no phase tables and no complex exp, for
    then every phase is 1.

    The origin pairs with itself: when half starts there, that is when it
    holds the start of its half ball, its parts are set to 1 and 0, so its
    term is counted once.  No other point is the origin.

    The phase tables of one argument hold g(2K + 1) entries, at most
    POINT_BUDGET for a half ball of _half_ball: K is at most the largest
    radius lattice_points admits, floor(_max_radius(g)), which is
    2^22 - 1 at g = 1 and at most 1,633 at g >= 2.
    """
    g = U.shape[1]
    K = int(np.abs(half).max(initial=0))
    re_V = np.ascontiguousarray(U.real.T)
    if U.imag.any() or B.imag.any():
        B_planes, tables = np.array([B.real, B.imag]), _phase_tables(U.imag, K)
    else:
        B_planes, tables = np.array([B.real]), None
    step = max(1, TILE_ELEMENTS // (3 * g))
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = [
            _pair_summands(c, c.astype(float), re_V, tables, K, B_planes)
            for c in (half[lo : lo + step] for lo in range(0, len(half), step))
        ]
    even, odd = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
    if not half[0].any():
        even[0], odd[0] = 1.0, 0.0
    return even, odd


def _require_finite(values: np.ndarray):
    if not np.isfinite(values).all():
        raise ToleranceUnreachable(
            "theta or one of its derivatives is not finite in double precision "
            "(the summands overflow)"
        )


def _derivatives(half: np.ndarray, even: np.ndarray, odd: np.ndarray, plan: _Plan) -> np.ndarray:
    """D^a theta = (2*pi)^|a| sum_n n^a t_n for each multi-index of the plan
    (rows) and each column of the terms t (columns), given by their even
    and odd parts at the half ball `half` (see _tiled_sums).

    Raises ToleranceUnreachable when a value is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = plan.scale * _tiled_sums(half, even, odd, plan)[plan.select]
    _require_finite(values)
    return values


class PointSums:
    """Certified tables D^a_u theta at one point (u, B), all from one memo
    of the point's pair summands.

    The memo holds the even and odd parts _pair_summands_at forms at the
    point, over the half ball of the largest certified ball asked for so
    far, in the shell order of lattice_points, and that ball's radius.  A
    table certifies its radius for the highest order of its indices, forms
    parts only for the pairs past the held prefix (a smaller half ball is
    a prefix of a larger one) and hands the half ball's prefix of the memo
    to _tiled_sums as one column.  A table is therefore bit-identical to a
    one-shot one and independent of the order in which tables were asked
    for: a part does not depend on the ball it was formed for, since the
    phase-table entry at j is the same for every table radius K >= |j|, and
    only the part at the origin, the first of every half ball, is set
    apart.  The memo, (radius, even, odd), is replaced as one object, so a
    race between threads only recomputes.
    """

    __slots__ = ("point", "eps", "_held")

    def __init__(self, point: ThetaPoint, eps: float = 1e-12):
        self.point = point
        self.eps = eps
        empty = np.empty((0, 1))
        self._held = (None, empty, empty)

    @property
    def radius(self):
        """Radius of the largest ball summed so far (None before any table)."""
        return self._held[0]

    def table(self, indices) -> dict:
        """D^a_u theta, to certified absolute error < eps, for every
        multi-index a in `indices`, keyed by exponent tuple.

        Raises ToleranceUnreachable when a value is not finite in double
        precision (the summands overflow) or a certificate cannot be issued.
        """
        p = self.point
        plan = _plan(indices, p.g)
        radius = truncation_radius(p.B, p.u, plan.worst, self.eps).radius
        half = _half_ball(p.g, radius)
        _, even, odd = self._held
        if len(half) > len(even):
            more = _pair_summands_at(half[len(even) :], p.u[None, :], p.B.entries)
            if len(even):
                more = [np.concatenate(pair) for pair in zip((even, odd), more)]
            even, odd = more
            self._held = (radius, even, odd)
        n = len(half)
        values = _derivatives(half, even[:n], odd[:n], plan)[:, 0]
        return {a: complex(v) for a, v in zip(plan.idx, values)}


def theta_du_stack(indices, U, B, eps: float = 1e-12) -> np.ndarray:
    """D^a_u theta(u, B) for every row u of U and every multi-index a in
    `indices`, each to certified absolute error < eps.

    U is a k x g array of arguments at the one matrix B.  Returns a complex
    k x len(indices) array; column j holds the multi-index indices[j].

    Rows are taken in order of increasing ||Re u|| and summed in blocks of
    STACK_BLOCK rows, each block over one lattice ball certified at its
    largest ||Re u|| for the highest order in `indices` (see the module
    docstring for why that radius certifies every row of the block).  A
    block is summed in passes of rows: a pass forms the even and odd parts
    of its rows over the ball's half ball with _pair_summands_at (real
    ones, with no phase tables, when its rows and B are real) and
    contracts them with _tiled_sums.  Its phase tables and its two parts
    together each hold at most TILE_ELEMENTS doubles, so a large ball
    takes several passes.

    Raises ToleranceUnreachable when a value is not finite in double
    precision (the summands overflow) or a certificate cannot be issued.
    """
    B = as_siegel(B)
    g = B.g
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[1] != g:
        raise ValueError(f"U must be a k x {g} array of arguments")
    plan = _plan(indices, g)
    out = np.empty((len(U), len(plan.idx)), dtype=complex)
    order = np.argsort(np.einsum("ri,ri->r", U.real, U.real), kind="stable")
    for start in range(0, len(U), STACK_BLOCK):
        block = order[start : start + STACK_BLOCK]
        radius = truncation_radius(B, U[block[-1]], plan.worst, eps).radius
        half = _half_ball(g, radius)
        # rows per pass over the ball: their phase tables, g x (2K+1)
        # complex entries per row, and their two parts, 2N complex entries
        # per row, each hold at most TILE_ELEMENTS doubles
        per_pass = max(1, TILE_ELEMENTS // (2 * max(g * (2 * int(radius) + 1), 2 * len(half))))
        for lo in range(0, len(block), per_pass):
            rows = block[lo : lo + per_pass]
            parts = _pair_summands_at(half, U[rows], B.entries)
            out[rows] = _derivatives(half, *parts, plan).T
    return out


def theta(p: ThetaPoint, eps: float = 1e-12) -> complex:
    """theta(u, B) to certified absolute error < eps."""
    zero = (0,) * p.g
    return PointSums(p, eps).table([zero])[zero]


def theta_du(a, p: ThetaPoint, eps: float = 1e-12) -> complex:
    """Mixed partial D^a_u theta = (2*pi)^|a| sum n^a e(...), error < eps.

    a is a multi-index over the g coordinates of u.
    """
    a = exponents(a, p.g)
    return PointSums(p, eps).table([a])[a]


def theta_du_many(indices, p: ThetaPoint, eps: float = 1e-12) -> dict:
    """D^a_u theta for every multi-index in `indices`, one lattice pass.

    A single radius certified for the highest derivative order covers the
    lower orders as well (their summand bounds are smaller shellwise).
    """
    return PointSums(p, eps).table(indices)


def theta_dB(i: int, j: int, p: ThetaPoint, eps: float = 1e-12) -> complex:
    """Derivative of theta in the symmetric entry pair B_ij = B_ji, via the
    heat equation:

        d theta / d B_ii = -(1/4pi) D^2_{u_i} theta
        d theta / d B_ij = -(1/2pi) D_{u_i} D_{u_j} theta   (i < j)

    Indices are 0-based with 0 <= i <= j < g.
    """
    if not (0 <= i <= j < p.g):
        raise ValueError("need 0 <= i <= j < g")
    a = unit(p.g, i, j)
    if i == j:
        return -theta_du(a, p, eps) / (4.0 * math.pi)
    return -theta_du(a, p, eps) / TWO_PI
