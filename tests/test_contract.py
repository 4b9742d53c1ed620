"""The contract of the real slice: over a seeded sweep of real parameters
at g <= 2, from near the smallest admitted spread to the top of double
range, every public call returns finite values or raises a
ThetaGaussError, with no warning on the way.

The sweep is Philox-seeded, so a failing case is the same on every run:
- u entries are O(1) (standard normal) or +-10^e, e uniform in [-300, 300];
- B = b [[1, r], [r, 1]] (b at g = 1), |r| < 0.99 and b = 10^e, with e
  uniform in [-13, 308.25] for three cases in four and in [307, 308.25],
  where 2 b and b + b leave double range, for the fourth.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from thetagauss import CanonicalPoint, MomentData, SamplerConfig, chi_square, draw, support_radius
from thetagauss.errors import ThetaGaussError
from thetagauss.fitting import forward_moments

CASES = 64
DRAWS = 200


def _sweep(seed: int = 0) -> list:
    rng = np.random.Generator(np.random.Philox(seed))

    def entry():
        if rng.random() < 0.5:
            return float(rng.standard_normal())
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))

    cases = []
    for _ in range(CASES):
        g = int(rng.integers(1, 3))
        low = -13.0 if rng.random() < 0.75 else 307.0
        b = 10.0 ** rng.uniform(low, 308.25)
        r = rng.uniform(-0.99, 0.99)
        B = (b * np.array([[1.0, r], [r, 1.0]]))[:g, :g]
        cases.append(([entry() for _ in range(g)], B.tolist()))
    return cases


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def holds(call, *args):
    """call(*args) with every float it returns finite, or None when it
    raises a ThetaGaussError."""
    try:
        out = call(*args)
    except ThetaGaussError:
        return None
    if dataclasses.is_dataclass(out):  # CanonicalPoint, MomentData
        values = [getattr(out, f.name) for f in dataclasses.fields(out) if f.init]
    else:
        values = [out]
    for value in values:
        assert np.isfinite(np.asarray(value, dtype=float)).all(), f"{call.__name__} returned {out}"
    return out


@pytest.mark.parametrize("u, B", _sweep(), ids=[f"case{i}" for i in range(CASES)])
def test_finite_or_typed_error(u, B):
    holds(MomentData, u, B)
    p = holds(CanonicalPoint, u, B)
    if p is None:
        return
    holds(forward_moments, p)
    if holds(support_radius, p, 1e-9) is None:
        return
    x = holds(draw, p, DRAWS, SamplerConfig(seed=1))
    if x is not None:
        holds(chi_square, x, p)
