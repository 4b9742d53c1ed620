"""The sampler's inverse CDF: the guide table returns exactly what
np.searchsorted(cdf, x, side="right") returns, draw picks the same support
points as the plain search, and the widest g = 1 support draws without a
guide larger than the draw count."""

import tracemalloc

import numpy as np
import pytest

from thetagauss import CanonicalPoint, SamplerConfig, sampler
from thetagauss.engine import TWO_PI
from thetagauss.sampler import draw


def searched(cdf, x):
    return np.searchsorted(cdf, x, side="right")


def with_ulp_below(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf)])


def probe_points(cdf):
    """x = 0, every cdf entry and every bucket edge, each also 1 ulp below,
    kept inside [0, cdf[-1]]; enough of them that the guide has its full
    16 buckets per support point."""
    k = 16 * len(cdf)
    edges = np.arange(k + 1) * (cdf[-1] / k)
    x = with_ulp_below(np.concatenate([[0.0], cdf, edges]))
    x = x[(x >= 0.0) & (x <= cdf[-1])]
    reps = -(-k // len(x))  # the guide never holds more buckets than points
    return np.tile(x, reps)


def check(cdf):
    x = probe_points(cdf)
    got = sampler._invert_cdf(cdf, x)
    assert got.dtype == np.intp
    assert np.array_equal(got, searched(cdf, x))


class TestInvertCdf:
    def test_one_point_support(self):
        check(np.array([0.75]))
        x = np.array([0.0, 0.3, np.nextafter(0.75, 0.0), 0.75])
        assert sampler._invert_cdf(np.array([0.75]), x).tolist() == [0, 0, 0, 1]

    def test_runs_of_zero_weights(self):
        weights = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.5, 0.0, 1e-3, 0.0, 0.0])
        check(np.cumsum(weights))

    def test_random_cdfs_with_zero_weights(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(100):
            n = int(rng.integers(1, 400))
            weights = rng.exponential(size=n) * (rng.random(n) >= 0.2)
            weights[rng.integers(n)] = 1.0
            check(np.cumsum(weights))

    def test_tail_of_tiny_weights_takes_the_search(self, monkeypatch):
        """10^5 points, the last half below 1e-12 of the largest weight:
        their buckets hold thousands of cdf entries, so draws there are
        left unresolved by the two steps and go to np.searchsorted."""
        rng = np.random.Generator(np.random.Philox(5))
        n = 100_000
        weights = np.concatenate([rng.uniform(0.5, 1.0, n // 2), rng.uniform(0.0, 1e-13, n // 2)])
        cdf = np.cumsum(weights)
        x = with_ulp_below(cdf[n // 2 - 1 :: 97])
        x = np.concatenate([x, rng.random(2 * n) * cdf[-1]])
        searches = []
        search = np.searchsorted

        def counting(a, v, side="left"):
            searches.append(len(v))
            return search(a, v, side=side)

        monkeypatch.setattr(sampler.np, "searchsorted", counting)
        got = sampler._invert_cdf(cdf, x)
        monkeypatch.undo()
        assert searches and searches[-1] > 0
        assert np.array_equal(got, searched(cdf, x))


def searched_draw(p, count, cfg):
    """draw by a plain binary search of the cumulative weights."""
    pts, weights, _, _ = sampler._support_weights(p, cfg.tail_eps)
    cdf = np.cumsum(weights)
    uniforms = np.random.Generator(np.random.Philox(cfg.seed)).random(count) * cdf[-1]
    return np.take(pts, np.minimum(searched(cdf, uniforms), len(pts) - 1), axis=0)


def distance_38():
    """TestOverflow's law in test_sampler: Sigma = [[1, .3], [.3, 1]],
    mean (38, -19)."""
    B = np.linalg.inv([[1.0, 0.3], [0.3, 1.0]]) / TWO_PI
    return CanonicalPoint(B @ np.array([38.0, -19.0]), B)


LAWS = {
    "g1": lambda: CanonicalPoint([0.37], [[0.05]]),
    "g2_wide": lambda: CanonicalPoint([0.4, -0.2], [[0.01, 0.002], [0.002, 0.012]]),
    "distance_38": distance_38,
}


class TestDrawEqualsTheSearch:
    def test_wide_law_has_2000_support_points(self):
        assert len(sampler._support_weights(LAWS["g2_wide"](), 1e-9)[0]) >= 2000

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_seeds_0_to_19(self, law):
        p = LAWS[law]()
        for seed in range(20):
            cfg = SamplerConfig(seed=seed)
            for count in (1, 7, 5000):
                assert np.array_equal(draw(p, count, cfg), searched_draw(p, count, cfg))


def test_widest_support_draws_within_a_capped_guide():
    """g = 1, B = 1e-10: 534,301 support points.  1,000 draws allocate at
    most 3 * 8N + 64 * count bytes beyond the held support; a guide of 16
    buckets per support point alone would take 128N."""
    p = CanonicalPoint([0.0], [[1e-10]])
    cfg = SamplerConfig(seed=1)
    n = len(sampler._support_weights(p, cfg.tail_eps)[0])
    assert n == 534_301
    count = 1000
    tracemalloc.start()
    try:
        x = draw(p, count, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, searched_draw(p, count, cfg))
    assert peak <= 3 * 8 * n + 64 * count
