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

with lmin the smallest eigenvalue of Re(B) and rho = ||Re u||, and the tail
is bounded shell by shell in the sup norm, (2k+1)^g - (2k-1)^g points per
shell.  Lattice points are enumerated by increasing ||n||^2, lexicographic
within shells, so every sum has a fixed deterministic order.

One point is evaluated through PointSums, which keeps the summands of its
point over the largest certified ball asked for so far.  Because the
points are shell-ordered, a smaller ball is a prefix of a larger one: a
table of any order forms summands only for the points past the held
prefix and contracts the prefix it needs, so theta, the order-2 and the
order-4 tables of one discrete Gaussian sum each lattice point once.
theta, theta_du and theta_du_many are one-shot PointSums.  PointSums forms
its summands with _summands_at, the one summand formula at explicit
points, which the pmf and the sampler's weights use too.

Many arguments are evaluated stacked.  theta_du_stack takes k arguments u
(the rows of a k x g array) at one B and returns D^a theta for every row
and multi-index, with the summand formula (_summands) and the tiled
contraction (_tiled_sums) that PointSums uses.  Rows are sorted by
rho = ||Re u|| and cut into blocks of STACK_BLOCK rows, and each block is
summed over one ball, with the radius truncation_radius certifies at the
block's largest rho for the highest order asked for.  That radius is a
true certificate for every row of the block, because both parts of the
radius rule grow with rho: the tail bound (rho enters each shell term only
through the factor exp(2*pi*rho*x), x >= 0) and the search start (the peak
of the shell-term profile, and rho/lmin).  A radius R found at the largest
rho of a block therefore lies at or past the search start of every smaller
rho, where the bound at R is no larger and so still below eps.  Repeated-B
callers (the scan of find_theta_zero, the kummer job) thus pay one
certificate per block, not one per argument.

Each summand is a magnitude times a unit-modulus phase.  The magnitude
exp(2*pi*(n.Re u - 1/2 n^T Re B n)) is one exp per point and row.  The
phase e(i*Im E) splits into a per-point factor exp(-i*pi n^T Im B n),
shared by all rows, and one factor exp(2*pi*i n_i Im u_i) per coordinate,
gathered at n_i from a table over j in [-K, K] (K the block radius) built
once per row for the whole ball, so no sine or cosine is taken per point
and row.  Rows whose tables would exceed TILE_ELEMENTS doubles are summed
in several passes over the ball.  The complex terms, viewed as interleaved
(re, im) pairs, are contracted with the table of monomials n^a in one real
matrix product per tile of lattice points; each monomial row is its
parent's row (a minus the last nonzero unit vector) times one coordinate,
exact while the entries are integers below 2^53.  A value that is not
finite in double precision (the summands overflow) raises
ToleranceUnreachable.

The monomial table depends on the ball and the index set alone, not on
(u, B), so _tiled_sums keeps its tiles (the points as floats and their
monomials) in _TILES, keyed by (g, monomial steps, tile step).  A key
holds the tiles of the largest ball seen for it; a smaller ball of the
same g is a prefix of it and reads whole tiles, then a column slice of the
last one.  The tiles of all keys take at most TILE_CACHE_BYTES, the
oldest key dropped first, and a ball whose tiles alone exceed it is built
tile by tile and not kept.  They are copies, never views of a
lattice_points array.  Tile boundaries, monomial values (exact integers) and the one
matrix product per tile are those of a fresh build, so results are
bit-identical whatever the cache holds.

All functions are pure; cached lattice enumerations are immutable, and a
PointSums memo and a _TILES entry are replaced whole, so a race between
threads only recomputes.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

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

# Bytes of float and monomial tiles _tiled_sums keeps between calls, over
# all (g, monomial steps, tile step) keys; the oldest key is dropped first.
TILE_CACHE_BYTES = 16 << 20

DEFAULT_MAX_RADIUS = 10_000
MAX_RADIUS_ENV = "THETA_GAUSS_MAX_RADIUS"


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


def _max_radius() -> float:
    raw = os.environ.get(MAX_RADIUS_ENV)
    if raw is None:
        return float(DEFAULT_MAX_RADIUS)
    return float(raw)


def _log_gauss(lam: float, rho: float, x: float) -> float:
    # log of exp(2*pi*(-lam*x^2/2 + rho*x))
    return TWO_PI * (-0.5 * lam * x * x + rho * x)


def _tail_bound(g: int, lam: float, rho: float, q: int, R: int) -> float:
    """Upper bound on sum_{||n||_2 > R} |(2*pi*n)^a| |e(-1/2 n^T B n + n^T u)|
    for any multi-index a of order q.

    Points are grouped by m = ||n||_inf.  For m <= R the exponential factor
    is at most its value at ||n||_2 = R (every tail point has ||n||_2 > R)
    and |n^a| <= m^q <= R^q; for m > R the shell bound N(m) m^q E(m) applies.
    Requires R at or beyond the peak of the shell-term profile so that the
    series is decreasing; the caller guarantees that.
    """
    M = int(math.ceil(R))
    logc = q * math.log(TWO_PI) if q else 0.0

    # head: every sup-norm shell m <= M, exponential pinned at x = R
    log_head = (
        logc
        + g * math.log(2 * M + 1)
        + (q * math.log(M) if q else 0.0)
        + _log_gauss(lam, rho, float(R))
    )
    total = math.exp(log_head) if log_head < 700.0 else math.inf

    # shells beyond the cutoff, with geometric closure
    prev = math.inf
    m = M + 1
    for _ in range(100_000):
        n_shell = float((2 * m + 1) ** g - (2 * m - 1) ** g)
        log_t = logc + math.log(n_shell) + q * math.log(m) + _log_gauss(lam, rho, float(m))
        term = math.exp(log_t) if log_t < 700.0 else math.inf
        total += term
        ratio = term / prev if prev > 0 else 0.0
        if term == 0.0:
            return total
        if ratio < 0.5 and term < total * 1e-17 + 1e-300:
            # ratios are decreasing, so the remainder is geometric
            return total + term * ratio / (1.0 - ratio)
        prev = term
        m += 1
    return math.inf


def truncation_radius(B, u, a=None, eps: float = 1e-12) -> TruncationBudget:
    """Smallest integer radius whose certified tail bound is below eps.

    The bound covers the derivative summand (2*pi*n)^a for the given
    multi-index (a = None or zeros for plain theta).

    Raises ToleranceUnreachable if eps is below the double-precision floor
    or the radius would exceed the hard cap (default 1e4, overridable via
    the THETA_GAUSS_MAX_RADIUS environment variable).
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
    rho = float(np.linalg.norm(u.real))
    cap = _max_radius()

    # start past the peak of the shell-term profile so shell terms decrease;
    # the sup-norm shell count contributes an extra x^(g-1) factor
    q_eff = q + B.g - 1
    peak = (rho + math.sqrt(rho * rho + 2.0 * lam * q_eff / math.pi)) / (2.0 * lam)
    lo = max(1, int(math.ceil(rho / lam)), int(math.ceil(peak)))

    if _tail_bound(B.g, lam, rho, q, lo) < eps:
        R = lo
    else:
        # exponential then binary search for the minimal admissible radius
        hi = lo
        while _tail_bound(B.g, lam, rho, q, hi) >= eps:
            hi *= 2
            if hi > cap:
                raise ToleranceUnreachable(
                    f"radius needed for eps={eps:.3e} exceeds the cap {cap:.0f}"
                )
        lo_search = hi // 2
        while lo_search + 1 < hi:
            mid = (lo_search + hi) // 2
            if _tail_bound(B.g, lam, rho, q, mid) < eps:
                hi = mid
            else:
                lo_search = mid
        R = max(hi, lo)
    if R > cap:
        raise ToleranceUnreachable(
            f"radius {R} for eps={eps:.3e} exceeds the cap {cap:.0f}"
        )
    return TruncationBudget(eps=eps, radius=float(R))


@lru_cache(maxsize=128)
def _lattice_points_cached(g: int, r2: int) -> np.ndarray:
    K = int(math.isqrt(r2))
    ax = np.arange(-K, K + 1)
    if g == 1:
        pts = ax.reshape(-1, 1)
    elif g == 2:
        pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        # chunk over the first coordinate to keep peak memory at (2K+1)^(g-1)
        rest = np.stack(
            np.meshgrid(*([ax] * (g - 1)), indexing="ij"), axis=-1
        ).reshape(-1, g - 1)
        rest_n2 = np.einsum("pi,pi->p", rest, rest)
        chunks = []
        for x0 in ax:
            keep = rest[rest_n2 <= r2 - x0 * x0]
            col = np.full((len(keep), 1), x0)
            chunks.append(np.hstack([col, keep]))
        pts = np.vstack(chunks)
    n2 = np.einsum("pi,pi->p", pts, pts)
    mask = n2 <= r2
    pts, n2 = pts[mask], n2[mask]
    # increasing ||n||^2, lexicographic within shells (primary key last)
    keys = tuple(pts[:, i] for i in reversed(range(g))) + (n2,)
    order = np.lexsort(keys)
    pts = np.ascontiguousarray(pts[order])
    pts.setflags(write=False)
    return pts


def lattice_points(g: int, radius: float) -> np.ndarray:
    """All n in Z^g with ||n||_2 <= radius, sorted by (||n||^2, lex).

    Returned array is read-only and cached.
    """
    r2 = int(math.floor(radius * radius + 1e-9))
    return _lattice_points_cached(int(g), r2)


@lru_cache(maxsize=64)
def _monomial_plan(idx: tuple, g: int) -> tuple[tuple, np.ndarray, np.ndarray, tuple]:
    """Rows of the monomial table n^a for the multi-indices idx, and the
    rest of theta_du_stack's bookkeeping that depends on idx alone.

    Row 0 is n^0 = 1; every other row is a pair (parent row, coordinate i),
    its parent being a - e_i for the last nonzero coordinate i of a.
    Ancestors that idx lacks get rows too, parents before children.
    Returns the pairs, the row of each multi-index of idx, the column of
    factors (2*pi)^|a| and the index of highest order (the first such),
    which the truncation radius is certified for.
    """
    rows = {(0,) * g: 0}
    steps = []

    def row(a):
        if a not in rows:
            i = max(j for j, aj in enumerate(a) if aj)
            parent = row(a[:i] + (a[i] - 1,) + a[i + 1 :])
            steps.append((parent, i))
            rows[a] = len(steps)
        return rows[a]

    select = np.array([row(a) for a in idx], dtype=np.intp)
    scale = np.array([TWO_PI ** sum(a) for a in idx])[:, None]
    select.setflags(write=False)
    scale.setflags(write=False)
    worst = max(idx, key=sum) if idx else (0,) * g
    return tuple(steps), select, scale, worst


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


def _summands(pts, x, re_V, tables, K: int, B_planes) -> np.ndarray:
    """e(n.v - 1/2 n^T B n) at the lattice points `pts` (int, N x g, every
    |n_i| <= K; x the same points as floats) for each argument v, a column
    of re_V = Re V^T with its phase tables (_phase_tables(Im V, K)).
    Returns an N x k complex array.  B_planes holds Re B and Im B.
    """
    quad = np.einsum("cpi,pi->cp", x @ B_planes, x)
    # magnitude exp(2 pi (n.Re v - 1/2 n^T Re B n)), points x arguments
    mag = x @ re_V
    mag -= 0.5 * quad[0, :, None]
    mag *= TWO_PI
    np.exp(mag, out=mag)
    # times the phase exp(-i pi n^T Im B n) prod_i exp(2 pi i n_i Im v_i)
    terms = np.exp(-1j * np.pi * quad[1])[:, None] * mag
    for i in range(pts.shape[1]):
        terms *= tables[i, pts[:, i] + K]
    return terms


# (g, monomial steps, tile step) -> ((float tile, monomial tile), ...) of
# the largest ball kept for that key; entries are replaced whole.
_TILES: dict = {}
_TILES_LOCK = threading.Lock()


def _tiled_sums(pts: np.ndarray, k: int, steps: tuple, terms_of) -> np.ndarray:
    """sum_n n^a t_n over the lattice points `pts` for each row a of the
    monomial table `steps` (rows of the result) and each of k arguments
    (columns), where terms_of(lo, tile, x) returns the N x k complex terms
    t_n of the tile pts[lo : lo + N] (x: the tile as floats).

    The points are taken in tiles whose monomial table plus terms hold at
    most TILE_ELEMENTS doubles, each contracted in one real matrix product.
    The float and monomial tiles are read from _TILES where a ball at
    least this large is held for (g, steps, tile step), and kept there
    when this ball is larger and its tiles fit in TILE_CACHE_BYTES.
    """
    n, g = pts.shape
    step = max(1, TILE_ELEMENTS // (len(steps) + 1 + 2 * k))
    key = (g, steps, step)
    held = _TILES.get(key, ())
    keep = (
        n > sum(len(x) for x, _ in held)
        and n * (len(steps) + 1 + g) * 8 <= TILE_CACHE_BYTES
    )
    kept = []
    sums = np.zeros((len(steps) + 1, 2 * k))
    for j, lo in enumerate(range(0, n, step)):
        tile = pts[lo : lo + step]
        if j < len(held) and len(held[j][0]) >= len(tile):
            x, mono = held[j][0][: len(tile)], held[j][1][:, : len(tile)]
        else:
            x = tile.astype(float)
            mono = _monomials(x.T, steps)
        if keep:
            kept.append((x, mono))
        sums += mono @ terms_of(lo, tile, x).view(float)
    if keep:
        with _TILES_LOCK:
            _TILES.pop(key, None)
            _TILES[key] = tuple(kept)
            while (
                sum(xt.nbytes + mt.nbytes for t in _TILES.values() for xt, mt in t)
                > TILE_CACHE_BYTES
            ):
                del _TILES[next(iter(_TILES))]
    return sums.view(complex)


def _summands_at(pts: np.ndarray, u: np.ndarray, B: np.ndarray) -> np.ndarray:
    """e(n.u - 1/2 n^T B n) at the integer points `pts` (N x g), for one
    argument u at the matrix B: the kernel _summands with phase tables up
    to K, the largest |n_i|, in chunks whose float points and B products
    hold at most TILE_ELEMENTS doubles.  Returns N complex summands, which
    are not finite where they overflow.

    Raises ToleranceUnreachable when K exceeds the radius cap, since the
    tables hold 2K + 1 entries per coordinate.
    """
    K, cap = int(np.abs(pts).max(initial=0)), _max_radius()
    if K > cap:
        raise ToleranceUnreachable(f"lattice point beyond the radius cap {cap:.0f}")
    B_planes = np.array([B.real, B.imag])
    re_V, tables = np.ascontiguousarray(u.real[:, None]), _phase_tables(u.imag[None, :], K)
    step = max(1, TILE_ELEMENTS // (3 * len(u)))
    chunks = [pts[lo : lo + step] for lo in range(0, len(pts), step)]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [_summands(c, c.astype(float), re_V, tables, K, B_planes) for c in chunks]
    return np.concatenate(terms)[:, 0]


def _require_finite(values: np.ndarray):
    if not np.isfinite(values).all():
        raise ToleranceUnreachable(
            "theta or one of its derivatives is not finite in double precision "
            "(the summands overflow)"
        )


class PointSums:
    """Certified tables D^a_u theta at one point (u, B), all from one memo
    of the point's summands.

    The memo holds e(n.u - 1/2 n^T B n) over the largest certified ball
    asked for so far, in the shell order of lattice_points, and that
    ball's radius.  A table certifies its radius for the highest order of
    its indices, forms summands only for the points past the held prefix
    (a smaller ball is a prefix of a larger one) and contracts the ball's
    prefix with the monomial table, in the tiles theta_du_stack uses, so a
    table is bit-identical to a one-shot one and independent of the order
    in which tables were asked for: a summand does not depend on the ball
    it was formed for, since the phase-table entry at j is the same for
    every table radius K >= |j|.  The memo, (radius, summands), is
    replaced as one object, so a race between threads only recomputes.
    """

    __slots__ = ("point", "eps", "_held")

    def __init__(self, point: ThetaPoint, eps: float = 1e-12):
        self.point = point
        self.eps = eps
        self._held = (None, np.empty(0, dtype=complex))

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
        idx = tuple(exponents(a, p.g) for a in indices)
        steps, select, scale, worst = _monomial_plan(idx, p.g)
        radius = truncation_radius(p.B, p.u, worst, self.eps).radius
        pts = lattice_points(p.g, radius)
        terms = self._held[1]
        if len(pts) > len(terms):
            terms = np.concatenate([terms, _summands_at(pts[len(terms) :], p.u, p.B.entries)])
            self._held = (radius, terms)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _tiled_sums(pts, 1, steps, lambda lo, tile, x: terms[lo : lo + len(tile), None])
        values = (scale * sums[select])[:, 0]
        _require_finite(values)
        return {a: complex(v) for a, v in zip(idx, values)}


def theta_du_stack(indices, U, B, eps: float = 1e-12) -> np.ndarray:
    """D^a_u theta(u, B) for every row u of U and every multi-index a in
    `indices`, each to certified absolute error < eps.

    U is a k x g array of arguments at the one matrix B.  Returns a complex
    k x len(indices) array; column j holds the multi-index indices[j].

    Rows are taken in order of increasing ||Re u|| and summed in blocks of
    STACK_BLOCK rows, each block over one lattice ball certified at its
    largest ||Re u|| for the highest order in `indices` (see the module
    docstring for why that radius certifies every row of the block).  The
    ball is summed in tiles of at most TILE_ELEMENTS array entries, and a
    block whose phase tables would exceed that in several passes of rows.

    Raises ToleranceUnreachable when a value is not finite in double
    precision (the summands overflow) or a certificate cannot be issued.
    """
    B = as_siegel(B)
    g = B.g
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[1] != g:
        raise ValueError(f"U must be a k x {g} array of arguments")
    idx = tuple(exponents(a, g) for a in indices)
    steps, select, scale, worst = _monomial_plan(idx, g)
    B_planes = np.array([B.entries.real, B.entries.imag])
    out = np.empty((len(U), len(idx)), dtype=complex)
    order = np.argsort(np.einsum("ri,ri->r", U.real, U.real), kind="stable")
    for start in range(0, len(U), STACK_BLOCK):
        block = order[start : start + STACK_BLOCK]
        radius = truncation_radius(B, U[block[-1]], worst, eps).radius
        pts = lattice_points(g, radius)
        K = int(radius)
        # rows per pass over the ball: their phase tables, g x (2K+1)
        # complex entries per row, hold at most TILE_ELEMENTS doubles
        per_pass = max(1, TILE_ELEMENTS // (2 * g * (2 * K + 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(block), per_pass):
                rows = block[lo : lo + per_pass]
                re_V = np.ascontiguousarray(U[rows].real.T)
                tables = _phase_tables(U[rows].imag, K)
                sums = _tiled_sums(
                    pts,
                    len(rows),
                    steps,
                    lambda _, tile, x: _summands(tile, x, re_V, tables, K, B_planes),
                )
                out[rows] = (scale * sums[select]).T
    _require_finite(out)
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
