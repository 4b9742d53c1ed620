import numpy as np
import pytest

from thetagauss.multiindex import (
    exponents,
    indices_of_order,
    indices_up_to,
    mi_binomial,
    moment_map_indices,
    sub_indices,
    unit,
)


def test_exponents_normalizes_and_checks_dimension():
    assert exponents([1, 2]) == (1, 2)
    assert exponents(2) == (2,)
    with pytest.raises(ValueError):
        exponents([1, 2], g=3)


def test_binomial_and_subindices():
    assert mi_binomial((2, 1), (1, 1)) == 2
    assert mi_binomial((3, 2), (2, 0)) == 3
    subs = sub_indices((1, 2))
    assert len(subs) == 6
    assert (0, 0) in subs and (1, 2) in subs


def test_graded_lex_ordering():
    assert indices_of_order(2, 2) == [(2, 0), (1, 1), (0, 2)]
    ups = indices_up_to(2, 2)
    assert ups == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_moment_map_indices_skip_order_one():
    labels = moment_map_indices(2, 3)
    assert labels[0] == (0, 0)
    assert (1, 0) not in labels and (0, 1) not in labels
    assert labels == [(0, 0), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    # coordinate count matches C(g+d, d) - g - 1 plus the constant
    assert len(labels) == 10 - 2 - 1 + 1


def test_unit_counts_each_listed_coordinate():
    assert unit(3, 1) == (0, 1, 0)
    assert unit(2, 0, 0) == (2, 0)
    assert unit(2, 1, 0) == unit(2, 0, 1) == (1, 1)
    assert unit(2) == (0, 0)


@pytest.mark.parametrize(
    "build, args",
    [
        (indices_of_order, (3, 2)),
        (indices_up_to, (3, 2)),
        (moment_map_indices, (2, 3)),
    ],
)
def test_cached_index_lists_are_fresh_lists(build, args):
    first = build(*args)
    expected = list(first)
    first.append((9,) * args[0])
    first.reverse()
    del first[0]
    assert build(*args) == expected


@pytest.mark.parametrize(
    "a, g, expected",
    [
        ((1, 2), None, (1, 2)),
        ([1, 2], None, (1, 2)),
        (range(2), None, (0, 1)),
        (2, None, (2,)),
        (np.int64(2), None, (2,)),
        ((True, 0), None, (1, 0)),
        ((False,), None, (0,)),
        ((np.int64(2), np.int32(1)), None, (2, 1)),
        (np.array([1, 2]), None, (1, 2)),
        ((1.0, 2), None, (1, 2)),
        ((np.float64(1.0), 0), None, (1, 0)),
        (np.array([0.0, 1.0]), None, (0, 1)),
        ((1, 2), 2, (1, 2)),
        ((), None, ()),
        ((), 0, ()),
    ],
)
def test_exponents_accepts_as_before(a, g, expected):
    t = exponents(a, g)
    assert t == expected
    assert type(t) is tuple and all(type(x) is int for x in t)


@pytest.mark.parametrize(
    "a, g, error",
    [
        ((-1, 0), None, ValueError),
        ([0, -2], None, ValueError),
        (-1, None, ValueError),
        ((np.int64(-1),), None, ValueError),
        ((True, -1), None, ValueError),
        ((float("nan"),), None, ValueError),
        ((1, 2), 3, ValueError),
        ([1, 2], 1, ValueError),
        (range(1, 3), 3, ValueError),
        (None, None, TypeError),
        ((1, None), None, TypeError),
        ((1.5, 0), None, ValueError),
        ((-0.5, 1), None, ValueError),
        ("12", None, ValueError),
    ],
)
def test_exponents_rejects_as_before(a, g, error):
    with pytest.raises(error):
        exponents(a, g)
