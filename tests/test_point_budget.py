"""The point budget that sizes every lattice ball, and the radius search.

The laws that need a ball beyond the budget are run in a child process
under a 2 GB address-space limit, so that a regression fails its test with
a MemoryError instead of exhausting the memory of the machine.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import thetagauss
from thetagauss import engine
from thetagauss.engine import lattice_points, truncation_radius
from thetagauss.errors import ToleranceUnreachable


def test_radius_past_ten_thousand_doublings_is_certified():
    # the search doubles 4000 -> 8000 -> 16000 and bisects back to 8146
    assert truncation_radius([[1e-5]], [0.04], None, 1e-12).radius == 8146


def test_search_clamps_its_doubling_to_the_budget(monkeypatch):
    # at g = 1 a budget of 2R + 2 points admits radii up to R + 1/2, so the
    # step from 8000 to 16000 is clamped to the certified radius 8146
    monkeypatch.setattr(engine, "POINT_BUDGET", 2 * 8146 + 2)
    assert math.floor(engine._max_radius(1)) == 8146
    assert truncation_radius([[1e-5]], [0.04], None, 1e-12).radius == 8146
    monkeypatch.setattr(engine, "POINT_BUDGET", 2 * 8146)
    with pytest.raises(ToleranceUnreachable):
        truncation_radius([[1e-5]], [0.04], None, 1e-12)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_largest_admitted_ball_fits_the_budget(monkeypatch, g):
    monkeypatch.setattr(engine, "POINT_BUDGET", 5000)
    top = engine._max_radius(g)
    assert len(lattice_points(g, math.floor(top))) <= 5000
    with pytest.raises(ToleranceUnreachable):
        lattice_points(g, top + 0.5)


def test_phase_tables_are_held_to_the_budget(monkeypatch):
    """The phase tables of one argument, g(2K + 1) entries for K the largest
    |n_i| of a half ball, fit the point budget for every half ball the
    engine forms: K is at most the largest radius lattice_points admits."""
    for g in range(1, 6):
        K = math.floor(engine._max_radius(g))
        assert g * (2 * K + 1) <= engine.POINT_BUDGET
    monkeypatch.setattr(engine, "POINT_BUDGET", 5000)
    for g in range(1, 6):
        half = engine._half_ball(g, math.floor(engine._max_radius(g)))
        K = int(np.abs(half).max())
        assert g * (2 * K + 1) <= 5000


CASES = {
    "lattice_points": "lattice_points(5, 30)",
    "wide_g5_law": "DiscreteGaussian(np.zeros(5), np.eye(5) / (18 * np.pi))",
    "wide_g5_support": (
        "support_radius(CanonicalPoint(np.zeros(5), np.eye(5) / (18 * np.pi)), 1e-9)"
    ),
    "ill_conditioned_order_4": (
        "theta_du_many(indices_up_to(3, 4), ThetaPoint([0.5, 0.5, 0.0], np.diag([1e-3, 1.0, 1.0])))"
    ),
}

CHILD = textwrap.dedent(
    """
    import json, resource, sys, time
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    import numpy as np
    from thetagauss import cli
    from thetagauss.distribution import DiscreteGaussian
    from thetagauss.engine import ThetaPoint, lattice_points, theta_du_many
    from thetagauss.errors import ToleranceUnreachable
    from thetagauss.fitting import CanonicalPoint
    from thetagauss.multiindex import indices_up_to
    from thetagauss.sampler import support_radius

    cases, params, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
    result = {}
    for name, expr in cases.items():
        start = time.perf_counter()
        try:
            eval(expr)
            outcome = "returned"
        except ToleranceUnreachable:
            outcome = "ToleranceUnreachable"
        except MemoryError:
            outcome = "MemoryError"
        result[name] = [outcome, time.perf_counter() - start]
    code = cli.main(["moments", "--params", params, "--output", out])
    result["cli"] = [code, json.load(open(out))["error"]]
    print(json.dumps(result))
    """
)


@pytest.fixture(scope="module")
def beyond_budget(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("budget")
    b = 1.0 / (18.0 * math.pi)
    B = [[[b if i == j else 0.0, 0.0] for j in range(5)] for i in range(5)]
    params = tmp / "p.json"
    params.write_text(json.dumps({"g": 5, "u": [[0.0, 0.0]] * 5, "B": B}), encoding="utf-8")
    src = str(Path(thetagauss.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(CASES), str(params), str(tmp / "out.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ball_beyond_the_budget_raises_within_a_second(beyond_budget, name):
    outcome, seconds = beyond_budget[name]
    assert outcome == "ToleranceUnreachable"
    assert seconds < 1.0


def test_cli_moments_beyond_the_budget_exits_3(beyond_budget):
    assert beyond_budget["cli"] == [3, "ToleranceUnreachable"]
