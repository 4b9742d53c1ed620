"""The property layer: its generators stand apart from the kernel, and
verify reads its worst defects."""

import math

import numpy as np

from thetagauss import engine, properties, verify


def _boom(*args, **kwargs):
    raise AssertionError("the library kernel was called")


def _checks():
    return {r["name"]: r for r in verify.run_all(seed=0)}


class TestGenerators:
    def test_divisor_filter_does_not_use_the_kernel(self, rng, monkeypatch):
        monkeypatch.setattr(engine, "theta_du_stack", _boom)
        monkeypatch.setattr(engine, "theta", _boom)
        for g in (1, 2, 3):
            u, B = properties.random_complex_params(rng, g)
            assert u.shape == (g,) and B.shape == (g, g)
            assert np.array_equal(B, B.T)


class TestVerifyReadsTheRunners:
    def test_patched_runner_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(properties, "run_parity", lambda rng, count: 1.0)
        checks = _checks()
        assert checks["theta.parity"]["passed"] is False
        assert checks["theta.quasiperiodicity"]["passed"] is True

    def test_nan_defect_is_a_failure(self, rng, monkeypatch):
        monkeypatch.setattr(properties, "theta", lambda p, eps: complex("nan"))
        assert math.isnan(properties.run_parity(rng, 3))
        check = _checks()["theta.parity"]
        assert check["passed"] is False and "nan" in check["detail"]
