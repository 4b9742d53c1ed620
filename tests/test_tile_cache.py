"""The monomial tiles engine._tiled_sums keeps per (g, monomial steps,
tile step): built once per ball, read as a prefix by smaller balls, bounded
in bytes, bit-identical to tiles built afresh."""

import sys
import threading

import numpy as np
import pytest

from thetagauss import engine
from thetagauss.distribution import DiscreteGaussian
from thetagauss.engine import (
    ThetaPoint,
    lattice_points,
    theta_du_many,
    theta_du_stack,
    truncation_radius,
)
from thetagauss.multiindex import indices_of_order, indices_up_to, unit

from test_point_sums import random_point, stats_point


@pytest.fixture
def tiles(monkeypatch):
    """An empty tile cache for the test, restored afterwards."""
    held = {}
    monkeypatch.setattr(engine, "_TILES", held)
    return held


def held_bytes(held):
    return sum(x.nbytes + m.nbytes for t in held.values() for x, m in t)


def test_second_law_builds_no_order4_table(rng, tiles, monkeypatch):
    """Two laws at different B over the same order-4 ball: only the first
    builds the order-4 monomial tiles."""
    u, B = stats_point(rng)
    B2 = B.real + 1j * (B.imag[::-1, ::-1])  # same Re B, other Im B
    built = []
    monomials = engine._monomials

    def counting(cols, steps):
        built.append(len(steps) + 1)
        return monomials(cols, steps)

    monkeypatch.setattr(engine, "_monomials", counting)
    a4 = unit(4, 0, 0, 0, 0)
    assert truncation_radius(B, u, a4).radius == truncation_radius(B2, u, a4).radius
    per_law = []
    for Bk in (B, B2):
        d = DiscreteGaussian(u, Bk)
        d.mean_cov()
        d.entropy()
        kappa = [d.cumulant(a) for a in indices_of_order(4, 4)]
        assert np.isfinite(kappa).all()
        per_law.append(built.count(70))  # rows of the order-4 table at g = 4
    assert per_law[0] > 0
    assert per_law[1] == per_law[0]


@pytest.mark.parametrize("g, order", [(2, 4), (3, 4), (4, 4), (4, 2)])
@pytest.mark.parametrize("real", [True, False])
def test_tables_bit_identical_in_any_order(rng, tiles, g, order, real):
    """Tables over a small and a large ball at one point, asked large ball
    first, small ball first and each from an emptied cache."""
    u, B = random_point(rng, g, real)
    p, idx = ThetaPoint(u, B), indices_up_to(g, order)
    small, large = 1e-5, 1e-12
    ball = {eps: lattice_points(g, truncation_radius(B, u, idx[-1], eps).radius) for eps in (small, large)}
    assert len(ball[small]) < len(ball[large])
    fresh = {}
    for eps in (small, large):
        tiles.clear()
        fresh[eps] = theta_du_many(idx, p, eps)
    for first, second in ((large, small), (small, large)):
        tiles.clear()
        got = {first: theta_du_many(idx, p, first)}
        got[second] = theta_du_many(idx, p, second)
        for eps in (small, large):
            assert np.array_equal(list(got[eps].values()), list(fresh[eps].values()))
            assert list(got[eps]) == list(fresh[eps])


@pytest.mark.parametrize("g", [2, 3])
def test_stack_blocks_bit_identical_in_any_order(rng, tiles, g):
    """theta_du_stack blocks of equal height over a near (small) and a far
    (large) ball: the far block's tiles are the near block's prefix."""
    u, B = stats_point(rng, g)
    idx = indices_up_to(g, 2)
    near = u + 0.01 * rng.normal(size=(16, g))
    far = 3.0 * near
    fresh = {}
    for name, U in (("near", near), ("far", far)):
        tiles.clear()
        fresh[name] = theta_du_stack(idx, U, B)
    for order in (("far", "near"), ("near", "far")):
        tiles.clear()
        got = {name: theta_du_stack(idx, {"near": near, "far": far}[name], B) for name in order}
        for name in order:
            assert np.array_equal(got[name], fresh[name])


def test_held_bytes_bounded_and_large_table_not_kept(rng, tiles):
    """After a g = 5 order-4 table at R = 7 (89,527 points x 126 rows, about
    90 MB of tiles) the cache holds no more than TILE_CACHE_BYTES, and not
    that table: it is not admitted, so the tiles held before it stay."""
    for _ in range(3):
        u, B = stats_point(rng)
        theta_du_many(indices_up_to(4, 4), ThetaPoint(u, B))
        assert 0 < held_bytes(tiles) <= engine.TILE_CACHE_BYTES
    A = np.random.default_rng(0).normal(size=(5, 5))
    B5, u5 = A @ A.T / 5 + 0.5 * np.eye(5), np.full(5, 0.1)
    idx5 = indices_up_to(5, 4)
    assert truncation_radius(B5, u5, idx5[-1]).radius == 7
    before = dict(tiles)
    theta_du_many(idx5, ThetaPoint(u5, B5))
    assert list(tiles) == list(before)
    assert all(tiles[key] is before[key] for key in before)


def test_oldest_key_dropped_first(rng, tiles, monkeypatch):
    """Under a bound that holds the order-4 tiles but not the order-2 tiles
    beside them, the older order-2 key goes and results do not change."""
    u, B = stats_point(rng, 3)
    p = ThetaPoint(u, B)
    size = {}
    for q in (2, 4):
        tiles.clear()
        theta_du_many(indices_up_to(3, q), p)
        size[q] = held_bytes(tiles)
    monkeypatch.setattr(engine, "TILE_CACHE_BYTES", size[2] + size[4] - 1)
    tiles.clear()
    first = theta_du_many(indices_up_to(3, 2), p)
    (key2,) = tiles
    theta_du_many(indices_up_to(3, 4), p)
    assert key2 not in tiles
    assert held_bytes(tiles) == size[4]
    again = theta_du_many(indices_up_to(3, 2), p)
    assert np.array_equal(list(again.values()), list(first.values()))


def test_no_tile_is_a_view_of_lattice_points(rng, tiles):
    """The cache holds copies, so an enumeration evicted from the lattice
    cache is freed."""
    balls = set()
    for g in (2, 3, 4):
        u, B = stats_point(rng, g)
        for q, eps in ((2, 1e-12), (4, 1e-12), (4, 1e-6)):
            idx = indices_up_to(g, q)
            theta_du_many(idx, ThetaPoint(u, B), eps)
            balls.add((g, truncation_radius(B, u, idx[-1], eps).radius))
        theta_du_stack(indices_up_to(g, 2), u + 0.1 * rng.normal(size=(8, g)), B)
    arrays = [lattice_points(g, r) for g, r in balls]
    held = [a for t in tiles.values() for x, m in t for a in (x, m)]
    assert held
    for a in held:
        assert not any(np.shares_memory(a, pts) for pts in arrays)


def test_threads_share_the_cache(rng, tiles):
    """More threads than cores, a short switch interval: every table equals
    its one-thread value and the bound holds."""
    points = [ThetaPoint(*stats_point(rng, 3)) for _ in range(3)]
    jobs = [(indices_up_to(3, q), p, eps) for p in points for q in (2, 4) for eps in (1e-6, 1e-12)]
    want = []
    for job in jobs:
        tiles.clear()
        want.append(list(theta_du_many(*job).values()))
    tiles.clear()
    errors = []

    def work(shift):
        try:
            for r in range(4):
                for j in np.roll(np.arange(len(jobs)), shift + r):
                    got = list(theta_du_many(*jobs[j]).values())
                    if not np.array_equal(got, want[j]):
                        errors.append(j)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert held_bytes(tiles) <= engine.TILE_CACHE_BYTES
