"""A target wider, or narrower, than the engine can fit is a numerical
failure (ToleranceUnreachable, CLI exit 3) that names the target
covariance, not an error about the start point's B, which the caller
never gave."""

import json
import warnings

import numpy as np
import pytest

from thetagauss import MomentData, fit, fit_from_sample
from thetagauss.errors import ToleranceUnreachable

from test_cli import run, strict_loads


@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_from_sample([[0], [1], [10**30]]),
        lambda: fit_from_sample([[0.0], [1.0], [1e7]]),
        lambda: fit(MomentData([0.0], [[1e13]])),
    ],
    ids=["int_sample_1e30", "float_sample_1e7", "target_sigma_1e13"],
)
def test_wide_target_raises_tolerance_unreachable(call):
    with pytest.raises(ToleranceUnreachable, match="largest eigenvalue"):
        call()


@pytest.mark.parametrize(
    "mu, sigma",
    [([0.0], [[1e-310]]), ([0.3, 0.0], np.diag([1e-310, 1.0]))],
    ids=["sigma_1e-310", "diag_1e-310_1"],
)
def test_narrow_target_raises_tolerance_unreachable(mu, sigma):
    """Sigma^-1 / 2 pi is beyond double range: no warning, and an error
    that names the target's smallest eigenvalue."""
    target = MomentData(mu, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceUnreachable, match="smallest eigenvalue"):
            fit(target)


@pytest.mark.parametrize(
    "argv, params",
    [
        (["fit", "--mu", "[0.0]", "--sigma", "[[1e13]]"], None),
        (["fit"], {"data": [[0.0], [1.0], [1e7]]}),
        (["fit", "--mu", "[0.0]", "--sigma", "[[1e-310]]"], None),
    ],
    ids=["target", "data", "narrow_target"],
)
def test_cli_exits_3(tmp_path, argv, params):
    if params is not None:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        argv = argv + ["--params", str(path)]
    code, text = run(tmp_path, argv)
    assert code == 3
    assert strict_loads(text)["error"] == "ToleranceUnreachable"
