"""Input errors of the CLI (exit 2 with the named field) and of the
library (ValueError) that no other test reaches."""

import json

import numpy as np
import pytest

from thetagauss import CanonicalPoint, DiscreteGaussian, MomentData
from thetagauss.engine import SiegelMatrix, truncation_radius

from test_cli import run, strict_loads

COMPLEX_U = json.dumps({"g": 1, "u": [[0.2, 0.3]], "B": [[[1.0, 0.0]]]})
REAL = json.dumps({"g": 1, "u": [[0.2, 0.0]], "B": [[[1.0, 0.0]]]})


@pytest.mark.parametrize(
    "argv, params, field",
    [
        (["sample", "--count", "3"], COMPLEX_U, "u"),
        (["sample"], REAL, "count"),
        (["map", "--d", "1"], REAL, "d"),
        (["theta"], "{not json", "params_file"),
        (["theta"], "[1, 2]", "params_file"),
        (["theta"], json.dumps({"g": 0, "B": []}), "g"),
        (["fit", "--mu", "[0.0", "--sigma", "[[1.0]]"], None, "mu"),
    ],
    ids=["sample_complex_u", "sample_no_count", "map_d_1", "invalid_json", "json_list", "g_0", "mu"],
)
def test_cli_exits_2_on_the_field(tmp_path, argv, params, field):
    if params is not None:
        path = tmp_path / "p.json"
        path.write_text(params, encoding="utf-8")
        argv = argv + ["--params", str(path)]
    code, text = run(tmp_path, argv)
    assert code == 2
    doc = strict_loads(text)
    assert (doc["error"], doc["field"]) == ("InputError", field)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SiegelMatrix([[1.0, 0.0]]), "square"),
        (lambda: truncation_radius([[1.0]], [0.0], None, 0.0), "eps"),
        (lambda: truncation_radius([[1.0]], [0.0], None, -1e-9), "eps"),
        (lambda: MomentData(np.zeros(2), np.eye(3)), "mu and sigma"),
        (lambda: CanonicalPoint(np.zeros(2), np.eye(3)), "u and B"),
        (lambda: DiscreteGaussian([0.0, 0.0], np.eye(2)).cumulant((0, 0)), "cumulant"),
    ],
    ids=["non_square_B", "eps_zero", "eps_negative", "moment_sizes", "point_sizes", "cumulant_0"],
)
def test_library_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
