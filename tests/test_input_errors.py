"""Input errors of the CLI (exit 2 with the named field) and of the
library (ValueError, or the typed error of a complex value given to a
real-only entry point) that no other test reaches."""

import json

import numpy as np
import pytest

from thetagauss import (
    CanonicalPoint,
    DiscreteGaussian,
    MomentData,
    SplitSpec,
    chi_square,
    fit_from_sample,
)
from thetagauss.engine import SiegelMatrix, truncation_radius
from thetagauss.errors import InvalidParameters, NonPositiveDefinite, NotUnimodular

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


LAW = DiscreteGaussian([0.1], [[1.0]])
POINT = CanonicalPoint([0.1, -0.2], [[1.0, 0.2], [0.2, 0.8]])
SAMPLE = np.array([[0, 0], [1, 0], [0, 1], [-1, 1], [0, -1]] * 4)

# real-only entry points: each call at a real value and the error it raises
# for a non-finite one, which it must raise for an imaginary part too
REAL_ONLY = {
    "pmf_n": (lambda n: LAW.pmf(n), np.array([1.0]), ValueError),
    "marginal_pmf_n1": (
        lambda n1: DiscreteGaussian([0.1, 0.0], np.eye(2)).marginal_pmf(SplitSpec(1, 1), n1),
        np.array([1.0]),
        ValueError,
    ),
    "translate_n": (lambda n: LAW.translate([0], n).u, np.array([2.0]), ValueError),
    "unimodular_alpha": (lambda a: LAW.unimodular(a).u, np.array([[-1.0]]), NotUnimodular),
    "char_fn_v": (lambda v: LAW.char_fn(v), np.array([0.5]), ValueError),
    "point_u": (lambda u: CanonicalPoint(u, np.eye(2)).u, np.array([0.1, 0.2]), ValueError),
    "point_B": (lambda B: CanonicalPoint([0.1, 0.2], B).B, np.eye(2), NonPositiveDefinite),
    "moments_mu": (lambda mu: MomentData(mu, np.eye(2)).mu, np.array([0.1, 0.2]), ValueError),
    "moments_sigma": (lambda s: MomentData([0.1, 0.2], s).sigma, np.eye(2), NonPositiveDefinite),
    "fit_data": (lambda x: fit_from_sample(x, tol=1e-6).params.u, SAMPLE.astype(float), ValueError),
    "chi_square_rows": (lambda x: chi_square(x, POINT), SAMPLE.astype(float), InvalidParameters),
}


@pytest.mark.parametrize("name", list(REAL_ONLY))
def test_real_only_entry_points_refuse_imaginary_parts(name):
    """A complex value with every imaginary part exactly 0 is the real one;
    any other imaginary part raises the entry point's typed error (it used
    to be dropped with a ComplexWarning, so the call answered as if the
    value were real)."""
    call, value, error = REAL_ONLY[name]
    want = call(value)
    got = call(value + 0j)
    assert np.array_equal(np.asarray(got), np.asarray(want))
    with pytest.raises(error, match="real"):
        call(value + 1e-3j * np.ones_like(value))
    bad = value.astype(complex)
    bad.flat[-1] += 1j * np.nan
    with pytest.raises(error):
        call(bad)
