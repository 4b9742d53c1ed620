"""A target wider than the engine can fit is a numerical failure
(ToleranceUnreachable, CLI exit 3) that names the target covariance, not
an error about the start point's B, which the caller never gave."""

import json

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
    "argv, params",
    [
        (["fit", "--mu", "[0.0]", "--sigma", "[[1e13]]"], None),
        (["fit"], {"data": [[0.0], [1.0], [1e7]]}),
    ],
    ids=["target", "data"],
)
def test_cli_exits_3(tmp_path, argv, params):
    if params is not None:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        argv = argv + ["--params", str(path)]
    code, text = run(tmp_path, argv)
    assert code == 3
    assert strict_loads(text)["error"] == "ToleranceUnreachable"
