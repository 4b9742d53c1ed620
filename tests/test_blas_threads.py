"""A fit from a sample does not depend on the BLAS thread count: the same
draws fitted in child processes at OPENBLAS_NUM_THREADS=1 and =2 give the
same target and the same FitReport, bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import thetagauss

# the 100,000 draws of test_fitting's large-n recovery test, whose sample
# variance moved in its last digits with the thread count of a BLAS product
CHILD = """
import thetagauss as tg
from thetagauss import fitting

x = tg.draw(tg.CanonicalPoint([0.1], [[0.8]]), 100_000, tg.SamplerConfig(tail_eps=1e-9, seed=7))
targets = []
fit = fitting.fit
fitting.fit = lambda target, tol: targets.append(target) or fit(target, tol)
r = fitting.fit_from_sample(x, tol=1e-9)
(t,) = targets
print(t.mu.tobytes().hex(), t.sigma.tobytes().hex())
print(r.params.u.tobytes().hex(), r.params.B.tobytes().hex(), r.iterations, r.converged)
print(float(r.grad_norm).hex(), float(r.objective).hex())
"""


def _fit_at(threads: int) -> str:
    src = str(Path(thetagauss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sample_fit_is_the_same_at_one_and_two_blas_threads():
    assert _fit_at(1) == _fit_at(2)
