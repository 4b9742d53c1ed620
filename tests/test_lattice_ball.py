"""The lattice ball engine.lattice_points holds per genus: every radius reads
a prefix of the largest ball enumerated so far for its g, a larger ball
replaces the held one, and the monomial table of _tiled_sums is one per
(g, monomial steps), whatever the number of rows it is contracted with."""

import itertools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from thetagauss import engine
from thetagauss.engine import lattice_points, theta_du_stack, truncation_radius
from thetagauss.multiindex import indices_up_to

from test_point_sums import stats_point


@pytest.fixture
def balls(monkeypatch):
    """No ball held at the start of the test; the held balls restored after."""
    held = {}
    monkeypatch.setattr(engine, "_BALLS", held, raising=False)
    return held


def brute_ball(g, radius):
    """The cube |n_i| <= radius filtered to ||n||^2 <= radius^2 and sorted
    by (||n||^2, lex)."""
    K, r2 = math.floor(radius), math.floor(radius * radius + 1e-9)
    pts = [n for n in itertools.product(range(-K, K + 1), repeat=g) if sum(x * x for x in n) <= r2]
    return np.array(sorted(pts, key=lambda n: (sum(x * x for x in n), n))).reshape(-1, g)


@pytest.mark.parametrize("g, top", [(1, 60.0), (2, 15.0), (3, 7.0), (4, 4.5), (5, 3.2)])
@pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
def test_any_order_of_radii_gives_the_brute_force_ball(balls, g, top, order):
    radii = sorted({0.0, 0.5, 1.0, math.sqrt(2), 2.0, math.sqrt(5), 3.0, top / 2, top})
    if order == "descending":
        radii.reverse()
    elif order == "shuffled":
        random.Random(g).shuffle(radii)
    for radius in radii:
        pts = lattice_points(g, radius)
        assert np.array_equal(pts, brute_ball(g, radius))
        assert not pts.flags.writeable
    assert sorted(balls) == list(range(1, g + 1))
    largest = lattice_points(g, top)
    for radius in radii:
        assert np.shares_memory(lattice_points(g, radius), largest)


def test_threads_share_the_held_balls(balls):
    """More threads than cores, a short switch interval, each asking the
    radii in its own order from no held ball: every array equals the
    brute-force ball."""
    radii = {g: [0.5, 1.5, 2.5, 3.5, 4.5, 6.0, 8.0] for g in (2, 3)}
    want = {(g, r): brute_ball(g, r) for g in radii for r in radii[g]}
    jobs = list(want)
    errors = []

    def work(seed):
        try:
            for g, r in random.Random(seed).sample(jobs, len(jobs)):
                if not np.array_equal(lattice_points(g, r), want[g, r]):
                    errors.append((g, r))
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


def test_increasing_radii_hold_one_ball(balls):
    """Five increasing radii at g = 3 leave less than two balls' bytes
    allocated: each larger ball replaces the one before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for radius in range(40, 45):
            n = len(lattice_points(3, radius))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * n * 3 * 8


def test_stack_heights_share_one_monomial_table(rng, monkeypatch):
    """theta_du_stack with 16 rows and then 5 of them over one ball (so
    tiles of two heights) builds the monomial table once, over the ball's
    half ball."""
    monkeypatch.setattr(engine, "_TILES", {})
    u, B = stats_point(rng, 3)
    idx = indices_up_to(3, 2)
    U = u + 0.01 * rng.normal(size=(16, 3))
    far = np.argsort(np.einsum("ri,ri->r", U.real, U.real), kind="stable")[-5:]
    built = []
    monomials = engine._monomials

    def counting(cols, steps):
        built.append(cols.shape[1])
        return monomials(cols, steps)

    monkeypatch.setattr(engine, "_monomials", counting)
    radius = truncation_radius(B, U[far[-1]], idx[-1]).radius
    whole = theta_du_stack(idx, U, B)
    part = theta_du_stack(idx, U[far], B)
    assert built == [(len(lattice_points(3, radius)) + 1) // 2]  # the half ball
    assert np.allclose(part, whole[far], rtol=1e-12, atol=0)


def test_held_balls_of_all_genera_stay_within_the_budget(balls, monkeypatch):
    """The largest admitted ball at g = 1..5 in turn, under a budget of 5000
    points: the held balls of all genera hold at most 5000 points after
    each."""
    monkeypatch.setattr(engine, "POINT_BUDGET", 5000)
    for g in range(1, 6):
        pts = lattice_points(g, math.floor(engine._max_radius(g)))
        assert sum(len(n2) for _, _, n2, _ in balls.values()) <= 5000
        assert np.array_equal(pts, brute_ball(g, math.floor(engine._max_radius(g))))
