"""Built-in invariant checks for the `verify` CLI command.

Each check runs one runner of thetagauss.properties, which the test suite
runs too, and passes when the worst defect is below the check's bound.
"""

from __future__ import annotations

import numpy as np

from . import properties


def _check(runner: str, count: int, bound: float):
    def check(rng):
        worst = getattr(properties, runner)(rng, count)
        return worst < bound, f"max defect = {worst:.2e} (bound {bound:.0e})"

    return check


# (name, runner, instances, bound on the worst defect); each runner is
# looked up in thetagauss.properties when its check runs
ALL_CHECKS = [
    (name, _check(runner, count, bound))
    for name, runner, count, bound in [
        ("theta.quasiperiodicity", "run_quasiperiodicity", 10, 1e-11),
        ("theta.parity", "run_parity", 10, 2e-12),
        ("theta.block_factorization", "run_factorization", 8, 1e-11),
        ("theta.heat_equation_fd", "run_heat_equation_fd", 6, 1e-6),
        ("theta.jacobi_identity", "run_jacobi_identity", 8, 1e-9),
        ("theta.truncation_monotonicity", "run_truncation_monotonicity", 6, 1e-12),
        ("distribution.normalization", "run_normalization", 6, 1e-11),
        ("distribution.moment_oracle", "run_moment_oracle", 3, 1e-8),
        ("distribution.entropy_oracle", "run_entropy_oracle", 4, 1e-8),
        ("distribution.marginal_oracle", "run_marginal_oracle", 4, 1e-9),
        ("distribution.group_actions", "run_group_actions", 5, 1e-11),
        ("fitting.roundtrip", "run_fit_roundtrip", 4, 1e-7),
        ("sampler.determinism", "run_sampler_determinism", 1, 1.0),
        ("geometry.cubic_identity", "run_cubic_identity", 6, 1e-8),
        ("geometry.map_translation_invariance", "run_map_translation_invariance", 4, 1e-8),
    ]
]


def run_all(seed: int = 0) -> list[dict]:
    """Run every built-in check; each record carries name/passed/detail."""
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.Generator(np.random.Philox(seed))
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results
