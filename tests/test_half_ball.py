"""The antipodal pairs of the lattice ball: the half ball held in each
ball's entry, the even and odd parts of the pair summands and the tables
the ball evaluators contract from them."""

import numpy as np
import pytest

from thetagauss import engine
from thetagauss.distribution import DiscreteGaussian, moments_to_cumulants
from thetagauss.engine import PointSums, ThetaPoint, lattice_points, theta_du_many, theta_du_stack
from thetagauss.multiindex import indices_of_order, indices_up_to

from oracles import brute_theta_du_rows
from test_point_sums import random_point

RADII = {1: 40.0, 2: 12.0, 3: 6.5, 4: 4.5, 5: 3.2}


def shells(g, radius):
    """The shells of the held ball to `radius`: (squared norm, points)."""
    pts = lattice_points(g, radius)
    n2 = np.einsum("pi,pi->p", pts, pts)
    cuts = np.flatnonzero(np.diff(n2)) + 1
    return [(int(s[0] @ s[0]), s) for s in np.split(pts, cuts)]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_each_shell_is_its_first_half_then_that_half_negated_and_reversed(g):
    (n2, origin), *rest = shells(g, RADII[g])
    assert n2 == 0 and len(origin) == 1
    for _, shell in rest:
        m = len(shell) // 2
        assert len(shell) == 2 * m
        assert np.array_equal(shell[m:], -shell[:m][::-1])


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_half_ball_is_the_origin_and_the_first_half_of_each_shell(g):
    for radius in (0.0, 1.0, 2.5, RADII[g]):
        want = [s[: max(1, len(s) // 2)] for _, s in shells(g, radius)]
        half = engine._half_ball(g, radius)
        assert np.array_equal(half, np.concatenate(want))
        assert not half.flags.writeable
        # every point of the ball is a half-ball point or its negation, once
        pairs = {tuple(n) for n in half} | {tuple(-n) for n in half}
        assert pairs == {tuple(n) for n in lattice_points(g, radius)}
    small = engine._half_ball(g, 1.0)
    large = engine._half_ball(g, RADII[g])
    assert np.array_equal(large[: len(small)], small)


def test_half_ball_follows_its_ball_when_entries_are_replaced(monkeypatch):
    """After a larger ball of the same genus and a ball of another genus
    replace held entries, the half ball at an earlier radius is still the
    half ball of the points lattice_points returns there."""
    monkeypatch.setattr(engine, "_BALLS", {})
    monkeypatch.setattr(engine, "POINT_BUDGET", 5000)
    radii = (0.0, 1.0, 2.5, 4.0)
    for r in radii:
        engine._half_ball(3, r)
    lattice_points(3, 7.0)  # a larger ball of the same genus
    lattice_points(2, 35.0)  # another genus, which drops the g = 3 ball
    assert 3 not in engine._BALLS
    for g, rs in ((3, radii), (2, radii + (35.0,))):
        for r in rs:
            want = engine._first_halves(lattice_points(g, r))
            assert np.array_equal(engine._half_ball(g, r), want)


@pytest.mark.parametrize("real", [True, False])
def test_parts_sum_each_pair(rng, real):
    """The even and odd parts at the half ball are t(n) + t(-n) and
    t(n) - t(-n) of the pointwise summands, and the origin counts once."""
    g = 3
    u, B = random_point(rng, g, real)
    U = np.array([u, 0.5 * u])
    half = engine._half_ball(g, 4.0)
    even, odd = engine._pair_summands_at(half, U, B)
    plus = engine._summands_at(half, U, B)
    minus = engine._summands_at(-half, U, B)
    # the exponents are rounded apart, so the terms agree to a few ulps of
    # their exponents, which reach about -120 here
    size = np.abs(plus) + np.abs(minus)
    assert np.all(np.abs(even - (plus + minus))[1:] <= 1e-13 * size[1:])
    assert np.all(np.abs(odd - (plus - minus))[1:] <= 1e-13 * size[1:])
    assert np.all(even[0] == 1.0) and np.all(odd[0] == 0.0)
    # a chunk past the origin is left as it is at its first point
    rest_even, rest_odd = engine._pair_summands_at(half[1:], U, B)
    assert np.array_equal(rest_even, even[1:]) and np.array_equal(rest_odd, odd[1:])


@pytest.mark.parametrize("g", [4, 5])
@pytest.mark.parametrize("real", [True, False])
def test_tables_asked_in_turn_equal_one_shot_tables(rng, g, real):
    """theta, then order 3, then order 4 from one memo: every table is bit
    for bit the one-shot table, so the origin is counted once however the
    memo grows."""
    u, B = random_point(rng, g, real)
    p = ThetaPoint(u, B)
    sums = PointSums(p)
    for q in (0, 3, 4):
        idx = indices_up_to(g, q)
        got = sums.table(idx)
        want = theta_du_many(idx, p)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


@pytest.mark.parametrize("g, K", [(1, 12), (2, 10), (3, 8), (4, 6), (5, 5)])
@pytest.mark.parametrize("real", [True, False])
def test_odd_orders_agree_with_brute_force(rng, g, K, real):
    """Odd-order tables, which the odd parts alone make, against the sum
    over the cube [-K, K]^g, for one point and for a stack of rows."""
    u, B = random_point(rng, g, real)
    idx = indices_of_order(g, 1) + indices_of_order(g, 3)
    U = u + 0.1 * rng.normal(size=(3, g))
    refs = brute_theta_du_rows(np.vstack([u, U]), B, idx, K)
    table = theta_du_many(idx, ThetaPoint(u, B))
    rows = np.vstack([[table[a] for a in idx], theta_du_stack(idx, U, B)])
    bound = 2e-12 + 1e-12 * np.max(np.abs(refs), axis=1, keepdims=True)
    assert np.all(np.abs(rows - refs) <= bound)


def test_indices_in_any_form_share_one_plan():
    """Lists, arrays and floats of integer value give the table of the
    same tuples, keyed by the tuples."""
    p = ThetaPoint([0.2 + 0.1j, -0.3], [[1.0, 0.2], [0.2, 0.8]])
    want = theta_du_many([(0, 0), (1, 0), (1, 1), (0, 3)], p)
    for indices in (
        [[0, 0], [1, 0], [1, 1], [0, 3]],
        np.array([[0, 0], [1, 0], [1, 1], [0, 3]]),
        [(0.0, 0.0), (1.0, 0.0), (1, 1.0), (0, 3.0)],
        ((0, 0), (1, 0), (1, 1), (0, 3)),
    ):
        got = theta_du_many(indices, p)
        assert list(got) == list(want)
        assert all(type(x) is int for a in got for x in a)
        assert list(got.values()) == list(want.values())
    with pytest.raises(ValueError):
        theta_du_many([(0.5, 0)], p)
    with pytest.raises(TypeError):
        theta_du_many([(1, None)], p)


@pytest.mark.parametrize("orders", [(4, 2, 1), (1, 2, 4), (2, 4, 3)])
def test_cumulants_do_not_depend_on_the_order_asked(rng, orders):
    """Every cumulant equals, bit for bit, its entry in one recursion over
    the law's moment table, in any order of request and index form."""
    u, B = random_point(rng, 2, False)
    d = DiscreteGaussian(u, B)
    asked = [a for q in orders for a in indices_of_order(2, q)]
    for a in asked:
        assert d.cumulant(list(a)) == d.cumulant(a)
    fresh = DiscreteGaussian(u, B)
    kappa = moments_to_cumulants(fresh._moment_table(max(orders)), 2)
    for a in asked:
        assert np.complex128(d.cumulant(a)).tobytes() == np.complex128(kappa[a]).tobytes()
