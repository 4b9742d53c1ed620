"""Exact sampling from real-parameter discrete Gaussians.

The sampler works about the lattice point m = round(B^-1 u) nearest the
mode.  By the translation action, X - m is the discrete Gaussian at
(u - Bm, B), whose argument lies in the fundamental cell B [-1/2, 1/2]^g,
so theta there, and the certified radius of its tail bound, depend on the
spread of the law and not on the distance of its mean from the origin.
The sampler enumerates the ball about m whose certified tail mass is
below tail_eps, in the deterministic shell order about m, builds the
cumulative weights and inverts the CDF with 53-bit uniforms from a
counter-based Philox generator.  The sampled law equals the pmf restricted
to the enumerated support, renormalized; its total variation distance from
the true pmf is below tail_eps by construction.  Identical (parameters,
count, config) always produce the identical sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ThetaPoint, _summands_at, lattice_points, theta, truncation_radius
from .errors import InvalidParameters, ToleranceUnreachable, TooFewSamples
from .fitting import CanonicalPoint

RNG_ALGORITHM = "philox4x64"  # numpy Philox, 53-bit mantissa uniforms

MIN_EXPECTED_CELL = 5.0


@dataclass(frozen=True)
class SamplerConfig:
    tail_eps: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tail_eps < 1e-3:
            raise ValueError("tail_eps must lie in (0, 1e-3)")


def support_radius(p: CanonicalPoint, tail_eps: float) -> float:
    """Radius R with total pmf mass beyond ||n - m|| <= R below tail_eps,
    m = round(B^-1 u) the lattice point nearest the mode.

    R is the engine's certified radius for theta at (u - Bm, B) with the
    tail bound tail_eps * theta(u - Bm, B), so it does not grow with the
    distance of the mean from the origin.  Raises ToleranceUnreachable
    when that bound is below the engine's double-precision floor EPS_FLOOR
    (theta(u - Bm, B) >= 1, so this can happen for tail_eps < EPS_FLOOR).
    """
    return _certified_ball(p, tail_eps)[2]


def _certified_ball(p: CanonicalPoint, tail_eps: float) -> tuple[np.ndarray, float, float]:
    """m = round(B^-1 u), theta(u - Bm, B) and the certified radius about m."""
    m = np.round(np.linalg.solve(p.B, p.u))
    tp = ThetaPoint(p.u - p.B @ m, p.B)
    t = theta(tp, 1e-12).real
    budget = truncation_radius(tp.B, tp.u, None, tail_eps * t)
    return m.astype(np.int64), t, budget.radius


def _support_weights(p: CanonicalPoint, tail_eps: float):
    """Support points in shell order about m = round(B^-1 u), their
    unnormalised weights at (u, B), theta(u, B) and the support radius.

    theta(u, B) = theta(u - Bm, B) exp(2 pi (m.u - 1/2 m^T B m)); the
    weights and that factor are the engine's summands (_summands_at) at
    (u, B) and the absolute points, so they overflow, and
    ToleranceUnreachable is raised, for a mean far enough from the origin."""
    m, t, radius = _certified_ball(p, tail_eps)
    pts = lattice_points(p.g, radius) + m
    weights = _summands_at(pts, p.u, p.B).real
    t *= weights[0]  # pts[0] = m: the ball's points start at its centre
    if not (np.isfinite(weights).all() and np.isfinite(t)):
        raise ToleranceUnreachable("sampler weights overflow double precision")
    return pts, weights, t, radius


def draw(p: CanonicalPoint, count: int, cfg: SamplerConfig) -> np.ndarray:
    """`count` i.i.d. draws by inverse CDF over the enumerated support.

    Returns an integer array of shape (count, g); reproducible given the
    seed (Philox counter-based stream, one uniform per draw).
    """
    return _draw(p, count, cfg)[0]


def _draw(p: CanonicalPoint, count: int, cfg: SamplerConfig) -> tuple[np.ndarray, float]:
    """draw, and the support radius it sampled within (see support_radius)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    pts, weights, _, radius = _support_weights(p, cfg.tail_eps)
    cdf = np.cumsum(weights)
    total = cdf[-1]
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    uniforms = rng.random(count) * total
    idx = np.searchsorted(cdf, uniforms, side="right")
    idx = np.minimum(idx, len(pts) - 1)
    return pts[idx].astype(np.int64), radius


def chi_square(sample, p: CanonicalPoint) -> tuple[float, int]:
    """Pearson goodness-of-fit statistic of a sample against the pmf at p.

    Support cells with expected count >= 5 are kept individually (shell
    order); everything else, including the off-support complement, is pooled
    into one cell, which is merged into the smallest kept cell when its own
    expectation is below 5.  Returns (statistic, dof) with dof = cells - 1.

    Rows are counted through a cell index: a table over the bounding box of
    the kept cells maps each box cell to its position among the kept cells
    (shell order) or to -1, and every row outside that box or on a -1 entry
    falls in the pooled cell.  The table never exceeds the kept cells'
    bounding box, which lies inside the box m + [-R, R]^g of the support ball,
    whatever the range of the sample.  Float rows are truncated to integers
    first.

    A 1-D sample is read as univariate.  Raises ValueError unless the
    sample is N x g, InvalidParameters when a row is not finite and
    TooFewSamples when no cell reaches the threshold.
    """
    sample = np.asarray(sample)
    if sample.ndim == 1:  # flat list of scalars is a univariate sample
        sample = sample.reshape(-1, 1)
    if sample.ndim != 2 or sample.shape[1] != p.g:
        raise ValueError(f"sample must be an N x {p.g} array of lattice vectors")
    if sample.size == 0:
        raise TooFewSamples("empty sample")
    if not np.isfinite(sample).all():
        raise InvalidParameters("sample rows must be finite")
    n_obs = sample.shape[0]

    pts, weights, t, _ = _support_weights(p, 1e-9)
    probs = weights / t

    expected = n_obs * probs
    keep = expected >= MIN_EXPECTED_CELL
    if not np.any(keep):
        raise TooFewSamples(
            f"no cell reaches expected count {MIN_EXPECTED_CELL} at N={n_obs}"
        )

    kept_pts = pts[keep]
    kept_exp = expected[keep]
    lo, hi = kept_pts.min(axis=0), kept_pts.max(axis=0)
    shape = tuple(hi - lo + 1)
    table = np.full(np.prod(shape), -1, dtype=np.intp)
    table[np.ravel_multi_index(tuple((kept_pts - lo).T), shape)] = np.arange(len(kept_pts))
    sample = sample.astype(np.int64, copy=False)
    # compare before subtracting, so no far-away row can overflow
    inside = np.all((sample >= lo) & (sample <= hi), axis=1)
    cells = table[np.ravel_multi_index(tuple((sample[inside] - lo).T), shape)]
    kept_obs = np.bincount(cells[cells >= 0], minlength=len(kept_pts)).astype(float)

    pooled_exp = n_obs - float(kept_exp.sum())
    pooled_obs = n_obs - float(kept_obs.sum())
    if pooled_exp >= MIN_EXPECTED_CELL:
        exp_cells = np.append(kept_exp, pooled_exp)
        obs_cells = np.append(kept_obs, pooled_obs)
    else:
        k = int(np.argmin(kept_exp))
        kept_exp[k] += pooled_exp
        kept_obs[k] += pooled_obs
        exp_cells, obs_cells = kept_exp, kept_obs

    stat = float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
    return stat, len(exp_cells) - 1
