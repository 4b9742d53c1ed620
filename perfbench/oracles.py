"""Brute-force reference sums, independent of the library.

Every quantity is a plain weighted sum over a coordinate cube (or box)
of lattice points, with weights exp(2*pi*(-1/2 n^T B n + n^T u)).  No
truncation certificate, derivative table or moment recursion of
`thetagauss` is used, so agreement with the library is evidence that
both are right.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def box(lo, hi) -> np.ndarray:
    """All integer points n with lo <= n <= hi componentwise, as rows."""
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=1)


def cube(g: int, half: int) -> np.ndarray:
    return box([-half] * g, [half] * g)


def weights(pts: np.ndarray, u, B) -> np.ndarray:
    """Unnormalised pmf exp(2*pi*(-1/2 n^T B n + n^T u)) at each row of pts."""
    P = pts.astype(float)
    B = np.asarray(B)
    quad = np.sum((P @ B) * P, axis=1)
    return np.exp(TWO_PI * (-0.5 * quad + P @ np.asarray(u)))


def theta(pts: np.ndarray, u, B) -> complex:
    return complex(weights(pts, u, B).sum())


def law(pts: np.ndarray, u, B):
    """(theta, pmf, mean, covariance) of the discrete Gaussian summed over pts."""
    w = weights(pts, u, B)
    t = w.sum()
    p = w / t
    P = pts.astype(float)
    mean = p @ P
    C = P - mean
    cov = (C * p[:, None]).T @ C
    return t, p, mean, cov


def entropy_real(p: np.ndarray) -> float:
    """Shannon entropy -sum p log p of a real pmf (zero terms skipped)."""
    p = p.real
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def entropy_formula(t, mean, cov, u, B) -> complex:
    """log theta - 2*pi <u, mu> + pi <B, Sigma + mu mu^T> (principal log)."""
    second = cov + np.outer(mean, mean)
    return complex(
        np.log(t) - TWO_PI * np.dot(u, mean) + math.pi * np.sum(np.asarray(B) * second)
    )


def fourth_cumulants(pts: np.ndarray, p: np.ndarray, mean, indices) -> np.ndarray:
    """Order-4 cumulants from central moments,

        kappa_ijkl = m_ijkl - m_ij m_kl - m_ik m_jl - m_il m_jk,

    one value per exponent tuple in `indices` (each of total order 4)."""
    C = pts.astype(float) - mean
    g = pts.shape[1]
    m2 = (C * p[:, None]).T @ C
    out = []
    for a in indices:
        axes = [i for i in range(g) for _ in range(a[i])]
        i, j, k, l = axes
        m4 = np.sum(p * C[:, i] * C[:, j] * C[:, k] * C[:, l])
        out.append(m4 - m2[i, j] * m2[k, l] - m2[i, k] * m2[j, l] - m2[i, l] * m2[j, k])
    return np.array(out)


def pearson(sample: np.ndarray, pts: np.ndarray, probs: np.ndarray, min_expected: float):
    """Pearson statistic with the cell rule of the library's documented
    contract: cells with expected count >= min_expected are kept, the rest
    of the lattice is one pooled cell, merged into the smallest kept cell
    when its own expectation is below min_expected.  Observed counts come
    from np.unique over the integer draws."""
    n_obs = len(sample)
    expected = n_obs * probs
    keep = expected >= min_expected
    uniq, counts = np.unique(sample, axis=0, return_counts=True)
    observed = {tuple(int(x) for x in row): int(c) for row, c in zip(uniq, counts)}
    kept_exp = expected[keep].copy()
    kept_obs = np.array(
        [observed.get(tuple(int(x) for x in row), 0) for row in pts[keep]], dtype=float
    )
    pooled_exp = n_obs - float(kept_exp.sum())
    pooled_obs = n_obs - float(kept_obs.sum())
    if pooled_exp >= min_expected:
        kept_exp = np.append(kept_exp, pooled_exp)
        kept_obs = np.append(kept_obs, pooled_obs)
    else:
        k = int(np.argmin(kept_exp))
        kept_exp[k] += pooled_exp
        kept_obs[k] += pooled_obs
    stat = float(np.sum((kept_obs - kept_exp) ** 2 / kept_exp))
    return stat, len(kept_exp) - 1


def order4_indices(g: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length g and total order 4."""
    return sorted(
        (a for a in itertools.product(range(5), repeat=g) if sum(a) == 4), reverse=True
    )
