"""Exact sampling from real-parameter discrete Gaussians.

The sampler works about the lattice point m = round(B^-1 u) nearest the
mode.  By the translation action, X - m is the discrete Gaussian at
(u - Bm, B), whose argument lies in the fundamental cell B [-1/2, 1/2]^g,
so theta there, the certified radius of its tail bound and the weights
depend on the spread of the law and not on the distance of its mean from
the origin.  One function (_support_weights) certifies, enumerates and
weighs the support in that frame: the ball whose certified tail mass is
below tail_eps, in the deterministic shell order, weighed at (u - Bm, B)
and then moved to m.  draw builds the cumulative weights and inverts the
CDF with 53-bit uniforms from a counter-based Philox generator.  The
sampled law equals the pmf restricted to the enumerated support,
renormalized; its total variation distance from the true pmf is below
tail_eps by construction.  Identical (parameters, count, config) always
produce the identical sample.

The support (its points, weights, theta and radius) is held on the law's
CanonicalPoint, so draw, chi_square and support_radius on one point form
it once.  draw inverts the CDF
exactly through a guide table of min(16 * support size, count) entries,
with np.searchsorted only for the few draws the table leaves unresolved.
Samples keep their public N x g shape, but chi_square counts them
coordinate-major: it builds each row's cell index one coordinate (one
column of the sample) at a time and counts the indices with one
np.bincount, with no row-wise mask or gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _real, _summands_at, lattice_points, theta, truncation_radius
from .errors import InvalidParameters, TooFewSamples
from .fitting import CanonicalPoint, _about_mode

RNG_ALGORITHM = "philox4x64"  # numpy Philox, 53-bit mantissa uniforms

MIN_EXPECTED_CELL = 5.0


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SamplerConfig:
    tail_eps: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tail_eps < 1e-3:
            raise ValueError("tail_eps must lie in (0, 1e-3)")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")


def support_radius(p: CanonicalPoint, tail_eps: float) -> float:
    """Radius R with total pmf mass beyond ||n - m|| <= R below tail_eps,
    m = round(B^-1 u) the lattice point nearest the mode: the radius of the
    support that _support_weights holds on p for tail_eps.

    R is the engine's certified radius for theta at (u - Bm, B) with the
    tail bound tail_eps * theta(u - Bm, B), so it does not grow with the
    distance of the mean from the origin.  Raises ToleranceUnreachable
    when that bound is below the engine's double-precision floor EPS_FLOOR
    (theta(u - Bm, B) >= 1, so this can happen for tail_eps < EPS_FLOOR).
    """
    return _support_weights(p, tail_eps)[3]


def _support_weights(p: CanonicalPoint, tail_eps: float):
    """Support points in shell order about m = round(B^-1 u), their
    unnormalised weights, theta and the support radius, the last three
    those of the law of X - m, the discrete Gaussian at (u - Bm, B).

    The ball is certified and weighed in that centred frame (_about_mode):
    its radius is the engine's for the tail bound tail_eps * theta(u - Bm, B),
    its weights are the engine's summands (_summands_at) at (u - Bm, B) on
    the ball about the origin, and m is added to the points only after.
    Weights and theta share the frame, so weights / theta is the pmf at
    (u, B) on the support, and no weight grows with the distance of the
    mean from the origin.  Raises ToleranceUnreachable when m is beyond
    2^53 or u - Bm is not finite (_about_mode), when theta(u - Bm, B) is
    not finite, or when the tail bound is below EPS_FLOOR.

    The result is read-only and is held on p for the last tail_eps asked
    (p cannot change, see CanonicalPoint), so draw followed by chi_square
    or support_radius on one point forms the support once."""
    if p._support is not None and p._support[0] == tail_eps:
        return p._support[1]
    m, centred = _about_mode(p)
    t = theta(centred, 1e-12).real
    radius = truncation_radius(centred.B, centred.u, None, tail_eps * t).radius
    ball = lattice_points(p.g, radius)
    weights = _summands_at(ball, centred.u.real, p.B).real
    pts = ball + m.astype(np.int64)
    pts.setflags(write=False)
    weights.setflags(write=False)
    support = (pts, weights, t, radius)
    object.__setattr__(p, "_support", (tail_eps, support))
    return support


def _invert_cdf(cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, x, side="right"), exactly, through a guide table
    (Chen & Asau 1974; Devroye 1986, section III.2.4).  cdf is a cumulative
    sum of non-negative weights with k / cdf[-1] finite (draw's include the
    weight 1 of m), and 0 <= x <= cdf[-1].

    Bucket b holds the x with floor(x * scale) = b, scale = k / cdf[-1]
    (the last bucket also those above), with k = min(16 * len(cdf), len(x))
    buckets: 16 per support point, but never more than the draw count, so a
    wide support drawn a few times adds no table beyond one integer per
    support point.  Rounded, x * scale is still monotone in x, so the cdf
    entries of lower buckets lie below every x of bucket b, and their count
    is a lower bound of its answer.  Each x takes at most two upward steps
    from that bound; the few still unresolved (clusters of tiny weights)
    are searched by np.searchsorted."""
    k = min(16 * len(cdf), len(x))
    scale = k / cdf[-1]
    # each entry's bucket, cast as it is formed: no float copy of the cdf
    buckets = np.multiply(cdf, scale, out=np.empty(len(cdf), np.intp), casting="unsafe")
    below = np.bincount(buckets, minlength=k)
    guide = np.zeros(k, dtype=np.intp)
    np.cumsum(below[: k - 1], out=guide[1:])
    idx = guide[np.minimum((x * scale).astype(np.intp), k - 1)]
    # past the end the clip reads cdf[-1] <= x, so the answer len(cdf) is
    # left to the search
    todo = np.flatnonzero(cdf.take(idx, mode="clip") <= x)
    for _ in range(2):
        if not todo.size:
            return idx
        idx[todo] += 1
        todo = todo[cdf.take(idx[todo], mode="clip") <= x[todo]]
    idx[todo] = np.searchsorted(cdf, x[todo], side="right")
    return idx


def draw(p: CanonicalPoint, count: int, cfg: SamplerConfig) -> np.ndarray:
    """`count` i.i.d. draws by inverse CDF over the enumerated support.

    Returns an integer array of shape (count, g); reproducible given the
    seed (Philox counter-based stream, one uniform per draw).  The CDF is
    inverted exactly (_invert_cdf, a guide table of min(16 * support size,
    count) entries), so each draw is the support point that
    np.searchsorted(cdf, uniform * cdf[-1], side="right") picks.  Raises
    ValueError unless count is an integer of at least 1.
    """
    if not _is_integer(count):
        raise ValueError(f"count must be an integer, not {count!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    pts, weights, _, _ = _support_weights(p, cfg.tail_eps)
    cdf = np.cumsum(weights)
    uniforms = np.random.Generator(np.random.Philox(cfg.seed)).random(count) * cdf[-1]
    idx = np.minimum(_invert_cdf(cdf, uniforms), len(pts) - 1)
    return np.take(pts, idx, axis=0)


def chi_square(sample, p: CanonicalPoint) -> tuple[float, int]:
    """Pearson goodness-of-fit statistic of a sample against the pmf at p.

    Support cells with expected count >= 5 are kept individually (shell
    order); everything else, including the off-support complement, is pooled
    into one cell, which is merged into the smallest kept cell when its own
    expectation is below 5.  Kept cells whose expectations lie within a
    relative 1e-9 (the support's tail_eps) of the smallest count as tied,
    and the first of them in shell order about m = round(B^-1 u), by
    ||n - m||^2 and then lexicographically, takes the pooled cell.  Returns
    (statistic, dof) with dof = cells - 1.

    Rows are counted by one np.bincount over their index in the bounding
    box of the kept cells, widened by one cell on every side, and each kept
    cell reads its count at its own index.  Each coordinate of a row is
    clipped into the box, so a row outside the kept cells' bounding box
    lands on the margin and, like a row on any other cell that is not kept,
    falls in the pooled cell.  The counts never exceed that widened box,
    which lies inside the box m + [-R - 1, R + 1]^g about the support ball,
    whatever the range of the sample.  Float rows are truncated toward
    zero; they are clipped before the cast, so a finite row beyond the int64
    range is pooled like any other far row, and so is a Python int beyond
    that range, read as a float.

    A 1-D sample is read as univariate.  Raises ValueError unless the
    sample is N x g, InvalidParameters when a row is not finite or not
    real, and TooFewSamples when no cell reaches the threshold.
    """
    sample = np.asarray(sample)
    if sample.dtype == object:  # such as Python ints beyond the int64 range
        try:
            sample = sample.astype(float)
        except (TypeError, ValueError, OverflowError) as err:
            raise InvalidParameters("sample rows must be finite real numbers") from err
    elif sample.dtype.kind not in "biufc":  # strings, dates, ...
        raise InvalidParameters("sample rows must be finite real numbers")
    if sample.ndim == 1:  # flat list of scalars is a univariate sample
        sample = sample.reshape(-1, 1)
    if sample.ndim != 2 or sample.shape[1] != p.g:
        raise ValueError(f"sample must be an N x {p.g} array of lattice vectors")
    if sample.size == 0:
        raise TooFewSamples("empty sample")
    sample = _real(sample, InvalidParameters, "sample rows")
    if not np.isfinite(sample).all():
        raise InvalidParameters("sample rows must be finite")
    n_obs = sample.shape[0]

    tail_eps = 1e-9
    pts, weights, t, _ = _support_weights(p, tail_eps)
    probs = weights / t

    expected = n_obs * probs
    keep = expected >= MIN_EXPECTED_CELL
    if not np.any(keep):
        raise TooFewSamples(
            f"no cell reaches expected count {MIN_EXPECTED_CELL} at N={n_obs}"
        )

    kept_pts = pts[keep]
    kept_exp = expected[keep]
    # the box has a margin of one pooled cell on every side; each coordinate
    # is clipped into it before any shift or cast, so no far-away row can
    # leave the int64 range, and the cast truncates a float toward zero
    lo, hi = kept_pts.min(axis=0) - 1, kept_pts.max(axis=0) + 1
    shape = tuple(hi - lo + 1)
    flat = np.zeros(n_obs, dtype=np.intp)
    for c, a, b, size in zip(sample.T, lo, hi, shape):  # one coordinate at a time
        flat *= size
        flat += np.clip(c, a, b).astype(np.intp, copy=False) - a
    counts = np.bincount(flat, minlength=np.prod(shape))
    kept_obs = counts[np.ravel_multi_index(tuple((kept_pts - lo).T), shape)].astype(float)

    pooled_exp = n_obs - float(kept_exp.sum())
    pooled_obs = n_obs - float(kept_obs.sum())
    if pooled_exp >= MIN_EXPECTED_CELL:
        exp_cells = np.append(kept_exp, pooled_exp)
        obs_cells = np.append(kept_obs, pooled_obs)
    else:
        # the first in shell order among the cells within a relative
        # tail_eps of the smallest, so the last bits of a tie do not choose
        k = int(np.flatnonzero(kept_exp <= kept_exp.min() * (1.0 + tail_eps))[0])
        kept_exp[k] += pooled_exp
        kept_obs[k] += pooled_obs
        exp_cells, obs_cells = kept_exp, kept_obs

    stat = float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
    return stat, len(exp_cells) - 1
