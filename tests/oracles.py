"""Independent brute-force oracles for the test suite.

Every oracle here sums the defining series directly over a full coordinate
cube, with no shared code path into the library: no certified radii, no
shell ordering, no moment recursions.  Cumulant oracles use the classical
set-partition (Moebius) formula rather than the library's recursion.

The random-parameter generators are re-exported from thetagauss.properties;
their divisor filter is a direct cube sum, not the library's kernel.
"""

import itertools
import math

import numpy as np

from thetagauss.properties import random_complex_params, random_real_params  # noqa: F401

TWO_PI = 2.0 * np.pi


def cube(g, K):
    return list(itertools.product(range(-K, K + 1), repeat=g))


def weight(n, u, B):
    n = np.asarray(n, dtype=float)
    return np.exp(TWO_PI * (-0.5 * n @ B @ n + n @ u))


def brute_theta(u, B, K=12):
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    return sum(weight(n, u, B) for n in cube(len(u), K))


def brute_theta_du_rows(U, B, indices, K):
    """D^a theta for every row u of U (k x g) and every multi-index a, as
    the sum of (2 pi n)^a e(-1/2 n^T B n + n.u) over the cube [-K, K]^g,
    with the complex exponent taken whole (k x len(indices))."""
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    n = np.array(cube(U.shape[1], K), dtype=float)
    quad = np.einsum("pi,ij,pj->p", n, B, n)
    mono = np.array([np.prod((TWO_PI * n) ** np.array(a), axis=1) for a in indices])
    return np.array([mono @ np.exp(TWO_PI * (n @ u - 0.5 * quad)) for u in U])


def mp_theta_du(u, B, indices, K, dps=30):
    """D^a theta at one u for every multi-index a, summed over the cube
    [-K, K]^g in mpmath at `dps` digits from the exact binary values of u
    and B.  Points whose double-precision term bound is below 1e-30 of the
    largest are skipped."""
    import mpmath

    u = np.atleast_1d(np.asarray(u, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    g = len(u)
    n = np.array(cube(g, K), dtype=float)
    bound = TWO_PI * (n @ u.real - 0.5 * np.einsum("pi,ij,pj->p", n, B.real, n))
    bound += 2.0 * np.log1p(TWO_PI * np.abs(n).sum(axis=1))
    n = n[bound >= bound.max() - 69.0].astype(int)
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    with mpmath.workdps(dps):
        two_pi = 2 * mpmath.pi
        mu = [mpmath.mpc(x.real, x.imag) for x in u]
        # B_ii / 2 and B_ij (i < j): quad / 2 = sum over pairs of p_i p_j times these
        half = [mpmath.mpc(B[i, j].real, B[i, j].imag) / (2 if i == j else 1) for i, j in pairs]
        scale = [two_pi ** sum(a) for a in indices]
        acc = [mpmath.mpc(0)] * len(indices)
        for p in n.tolist():
            expo = sum(pi * ui for pi, ui in zip(p, mu)) - sum(
                p[i] * p[j] * b for (i, j), b in zip(pairs, half)
            )
            term = mpmath.exp(two_pi * expo)
            for j, a in enumerate(indices):
                mono = math.prod(pi**ai for pi, ai in zip(p, a))
                if mono:
                    acc[j] += mono * term
        return np.array([complex(c * x) for c, x in zip(scale, acc)])


def brute_moment(u, B, a, K=12):
    """E[X^a] as a direct pmf-weighted lattice sum."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    t = brute_theta(u, B, K)
    acc = 0.0 + 0.0j
    for n in cube(len(u), K):
        mono = 1.0
        for ni, ai in zip(n, a):
            mono *= float(ni) ** ai
        acc += mono * weight(n, u, B)
    return acc / t


def brute_central_moment(u, B, a, K=12):
    """E[(X - mu)^a] directly, mu itself from the brute moment."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    g = len(u)
    mu = [brute_moment(u, B, tuple(int(i == k) for k in range(g)), K) for i in range(g)]
    t = brute_theta(u, B, K)
    acc = 0.0 + 0.0j
    for n in cube(g, K):
        mono = 1.0 + 0.0j
        for ni, mi, ai in zip(n, mu, a):
            mono *= (float(ni) - mi) ** ai
        acc += mono * weight(n, u, B)
    return acc / t


def _set_partitions(items):
    """All partitions of a list, generated recursively."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_cumulant(u, B, a, K=12):
    """kappa_a by the set-partition formula

        kappa_a = sum_pi (-1)^(|pi|-1) (|pi|-1)! prod_blocks mu_block

    over partitions of the multiset of coordinate labels in a."""
    g = len(a)
    labels = [i for i in range(g) for _ in range(a[i])]
    moments = {}

    def mu_of(block):
        key = tuple(sorted(block))
        if key not in moments:
            idx = [0] * g
            for i in block:
                idx[i] += 1
            moments[key] = brute_moment(u, B, tuple(idx), K)
        return moments[key]

    acc = 0.0 + 0.0j
    fact = [1, 1, 2, 6, 24]
    for part in _set_partitions(labels):
        prod = 1.0 + 0.0j
        for block in part:
            prod *= mu_of(block)
        acc += (-1.0) ** (len(part) - 1) * fact[len(part) - 1] * prod
    return acc


def brute_entropy(u, B, K=12):
    """-sum p log p over a cube, real parameters."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    ws = np.array([weight(n, u, B).real for n in cube(len(u), K)])
    p = ws / ws.sum()
    p = p[p > 0]  # 0 log 0 = 0
    return float(-(p * np.log(p)).sum())


def brute_marginal(u, B, n1, K=14):
    """Leading-coordinate marginal of a g=2 distribution by direct summation."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    t = brute_theta(u, B, K)
    return sum(weight((n1, n2), u, B) for n2 in range(-K, K + 1)) / t


def brute_pmf(u, B, K=12):
    """{cell: probability} over the cube, real parameters."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    t = brute_theta(u, B, K).real
    return {n: weight(n, u, B).real / t for n in cube(len(u), K)}


def brute_pmf_about(u, B, centre, K):
    """{cell: probability} over the cube centre + [-K, K]^g, real
    parameters, normalised over the cube.  Exponents are taken relative to
    the largest, so a mode far from the origin does not overflow."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    cells = [tuple(int(c) + k for c, k in zip(centre, n)) for n in cube(len(u), K)]
    n = np.array(cells, dtype=float)
    expo = TWO_PI * (n @ u - 0.5 * np.einsum("pi,ij,pj->p", n, B, n))
    w = np.exp(expo - expo.max())
    return dict(zip(cells, w / w.sum()))


def brute_pearson(sample, u, B, min_expected=5.0, K=12, centre=None):
    """(Pearson statistic, dof) by the documented cell rule, from the cube
    pmf (about `centre` when given, see brute_pmf_about) and a plain dict
    of counts.  Cells with expected count >= min_expected are kept; the
    rest of the lattice is one pooled cell, merged into the smallest kept
    cell when its own expectation is below min_expected.  Cells within a
    relative 1e-9 of the smallest tie, and the tie goes to the first by
    ||n - m||^2 and then n - m lexicographically, m = round(B^-1 u) (or
    `centre`).  Rows are truncated to integers toward zero."""
    pmf = brute_pmf(u, B, K) if centre is None else brute_pmf_about(u, B, centre, K)
    if centre is None:
        centre = np.round(np.linalg.solve(np.atleast_2d(B), np.atleast_1d(u))).astype(int)
    counts = {}
    for row in sample:
        key = tuple(int(x) for x in row)
        counts[key] = counts.get(key, 0) + 1
    n_obs = len(sample)
    cells = {
        n: [n_obs * p, float(counts.get(n, 0))] for n, p in pmf.items() if n_obs * p >= min_expected
    }
    pooled_exp = n_obs - sum(e for e, _ in cells.values())
    pooled_obs = n_obs - sum(o for _, o in cells.values())
    if pooled_exp >= min_expected:
        cells[None] = [pooled_exp, pooled_obs]
    else:

        def shell(n):  # ||n - m||^2, then n - m lexicographically
            d = tuple(int(a) - int(c) for a, c in zip(n, centre))
            return sum(x * x for x in d), d

        least = min(e for e, _ in cells.values())
        smallest = cells[min((n for n, (e, _) in cells.items() if e <= least * (1 + 1e-9)), key=shell)]
        smallest[0] += pooled_exp
        smallest[1] += pooled_obs
    return sum((o - e) ** 2 / e for e, o in cells.values()), len(cells) - 1
