"""Multi-index bookkeeping for derivatives, moments and cumulants.

A multi-index a = (a_1, ..., a_g) of nonnegative integers labels the mixed
partial of order a_i in the i-th variable; |a| = sum a_i is its order.
Public entry points take a multi-index as any sequence of nonnegative ints
(or one int for g = 1) and normalize it through :func:`exponents`, which
returns a tuple of Python ints and passes such a tuple through unchanged.

The index lists (:func:`indices_of_order`, :func:`indices_up_to`,
:func:`moment_map_indices`) depend only on (g, order): each grade is built
once and cached, and every call returns a fresh list, so a caller may
modify what it gets.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import lru_cache
from math import comb
from typing import Sequence


def exponents(a, g: int | None = None) -> tuple[int, ...]:
    """Normalize `a`, a sequence of nonnegative integers or one such
    integer, to a tuple of Python ints, checking its length against g.

    Raises ValueError for an entry that is negative or not an integer
    (fractional, infinite, nan or a string), TypeError for an entry that is
    not a number.
    """
    if type(a) is tuple and all(type(x) is int and x >= 0 for x in a):
        t = a  # already normal
    else:
        items = tuple(a) if isinstance(a, Iterable) else (a,)
        try:
            t = tuple(int(x) for x in items)
        except OverflowError as err:  # an infinite entry
            raise ValueError("multi-index components must be integers") from err
        if any(x != y for x, y in zip(t, items)):
            raise ValueError("multi-index components must be integers")
        if any(x < 0 for x in t):
            raise ValueError("multi-index components must be nonnegative")
    if g is not None and len(t) != g:
        raise ValueError(f"multi-index has length {len(t)}, expected {g}")
    return t


def mi_binomial(a: Sequence[int], b: Sequence[int]) -> int:
    """Product of componentwise binomials C(a, b) = prod_i C(a_i, b_i)."""
    out = 1
    for ai, bi in zip(a, b):
        out *= comb(ai, bi)
    return out


def unit(g: int, *idx: int) -> tuple[int, ...]:
    """The multi-index e_i + e_j + ... of length g, one count for each listed
    coordinate: unit(3, 1) = (0, 1, 0), unit(2, 0, 0) = (2, 0), and unit(g)
    is the zero index."""
    a = [0] * g
    for i in idx:
        a[i] += 1
    return tuple(a)


def sub_indices(a: Sequence[int]) -> list[tuple[int, ...]]:
    """All b with 0 <= b <= a componentwise, in lexicographic order."""
    return list(itertools.product(*[range(x + 1) for x in a]))


@lru_cache(maxsize=128)
def _grade(g: int, k: int) -> tuple[tuple[int, ...], ...]:
    out = [a for a in itertools.product(range(k + 1), repeat=g) if sum(a) == k]
    out.sort(reverse=True)
    return tuple(out)


def indices_of_order(g: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length g with |a| = k, lexicographically descending.

    This is the graded-lex convention used for projective coordinates:
    (2,0) before (1,1) before (0,2).
    """
    return list(_grade(g, k))


def indices_up_to(g: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |a| <= max_order, graded then lex descending."""
    out: list[tuple[int, ...]] = []
    for k in range(max_order + 1):
        out.extend(_grade(g, k))
    return out


def moment_map_indices(g: int, d: int) -> list[tuple[int, ...]]:
    """Coordinate ordering of the degree-d projective moment map: the
    constant index a = 0 first, then grades 2..d (order-one indices are
    excluded), lex descending within each grade."""
    out: list[tuple[int, ...]] = [(0,) * g]
    for k in range(2, d + 1):
        out.extend(_grade(g, k))
    return out
