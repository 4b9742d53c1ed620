"""The CLI's wire format: dumps encodes, one decoder reads every numeric field."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import thetagauss
from thetagauss import cli


class TestDumps:
    """dumps writes library values in the explicit pair and list form."""

    @pytest.mark.parametrize("z", [1.5 - 0.25j, np.complex128(1.5 - 0.25j), np.complex64(1.5 - 0.25j)])
    def test_complex_scalar(self, z):
        assert cli.dumps({"z": z}) == cli.dumps({"z": [float(z.real), float(z.imag)]})
        assert cli.dumps(1.5 - 0.25j) == "[1.5, -0.25]"

    def test_complex_array(self):
        z = np.array([[0.1 + 2j, -0.0 - 3.5j], [1e-300 + 0j, 7 + 1e300j]])
        pairs = [[[float(w.real), float(w.imag)] for w in row] for row in z]
        assert cli.dumps(z) == cli.dumps(pairs)
        assert cli.dumps(z[0]) == cli.dumps(pairs[0])

    def test_numpy_integers(self):
        assert cli.dumps(np.int64(-7)) == cli.dumps(-7) == "-7"
        draws = np.array([[0, -1], [2**40, 3]], dtype=np.int64)
        assert cli.dumps(draws) == cli.dumps([[0, -1], [2**40, 3]]) == "[[0, -1], [1099511627776, 3]]"

    def test_nested_real_arrays(self):
        M = np.array([[0.1, 2.0], [1 / 3, -4.5]])
        assert cli.dumps({"B": M, "u": M[0]}) == cli.dumps(
            {"B": [[0.1, 2.0], [1 / 3, -4.5]], "u": [0.1, 2.0]}
        )
        assert cli.dumps(M[1, 0]) == "0.3333333333333333"

    def test_tuples_and_numpy_bools(self):
        assert cli.dumps([(2, 0), (1, 1)]) == "[[2, 0], [1, 1]]"
        assert cli.dumps({"ok": np.bool_(True)}) == '{"ok": true}'

    def test_floats_read_back_as_the_same_doubles(self):
        values = [-0.0, 1.0, 1 / 3, 1e300, np.float32(0.1)]
        got = json.loads(cli.dumps(values))
        assert all(type(x) is float for x in got)
        want = np.array(values, dtype=float)
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))

    def test_non_finite_complex_is_numerical_failure(self):
        with pytest.raises(thetagauss.errors.NumericalFailure):
            cli.dumps(np.array([complex(0.0, float("inf"))]))


B1 = [[[1.0, 0.0]]]
NAN = float("nan")
HUGE = 10**400  # an integer beyond the float range

# field: (command, params file with the field's value, five bad values)
FIELDS = {
    "g": ("theta", {"g": 1, "B": B1}, [True, "1", NAN, HUGE, [1]]),
    "u": (
        "theta",
        {"g": 1, "B": B1, "u": [[0.1, 0.0]]},
        [[[True, 0.0]], [["0.1", 0.0]], [[NAN, 0.0]], [[HUGE, 0]], [[0.1, 0.0], [0.2, 0.0]]],
    ),
    "B": (
        "theta",
        {"g": 1, "B": B1},
        [[[[False, 0.0]]], [[["1", 0.0]]], [[[1.0, NAN]]], [[[HUGE, 0]]], [[1.0, 0.0]]],
    ),
    "n": ("pmf", {"g": 1, "B": B1, "n": [0]}, [[True], ["0"], [NAN], [HUGE], [0, 1]]),
    "mu": (
        "fit",
        {"mu": [0.5], "sigma": [[1.0]]},
        [[True], ["0.5"], [NAN], [HUGE], [[0.5]]],
    ),
    "sigma": (
        "fit",
        {"mu": [0.5], "sigma": [[1.0]]},
        [[[True]], [["1"]], [[NAN]], [[HUGE]], [[1.0, 0.0]]],
    ),
    "data": (
        "fit",
        {"data": [[0], [1], [2]]},
        [[[0], [True], [2]], [[0], ["1"], [2]], [[0], [NAN], [2]], [[0], [HUGE], [2]], [[0], [1, 2], [2]]],
    ),
}
BAD = ["bool", "string", "nan", "beyond_float", "shape"]


def run_params(tmp_path, command, doc):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    code = cli.main([command, "--params", str(params), "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"), parse_constant=lambda c: 1 / 0)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("bad", BAD)
def test_decoder_names_the_field(tmp_path, field, bad):
    command, doc, values = FIELDS[field]
    code, err = run_params(tmp_path, command, {**doc, field: values[BAD.index(bad)]})
    assert code == 2
    assert (err["error"], err["field"]) == ("InputError", field)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_decoder_accepts_the_good_value(tmp_path, field):
    command, doc, _ = FIELDS[field]
    code, out = run_params(tmp_path, command, doc)
    assert code == 0, out


@pytest.mark.parametrize("flag, value", [("--mu", "[true]"), ("--mu", "[1e400]"), ("--sigma", "[[1.0], [2.0]]")])
def test_decoder_reads_flags(tmp_path, flag, value):
    argv = {"--mu": "[0.5]", "--sigma": "[[1.0]]", flag: value}
    out = tmp_path / "out.json"
    code = cli.main(["fit", *[x for kv in argv.items() for x in kv], "--output", str(out)])
    assert code == 2
    assert json.loads(out.read_text(encoding="utf-8"))["field"] == flag[2:]


def test_cli_runs_with_numpy_alone(tmp_path):
    """numpy is the one runtime dependency: verify and sample run with
    scipy and mpmath unimportable."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"g": 1, "u": [[0.2, 0.0]], "B": B1}), encoding="utf-8")
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = sys.modules["mpmath"] = None
        from thetagauss import cli
        out, params = sys.argv[1:]
        codes = [
            cli.main(["verify", "--output", out]),
            cli.main(["sample", "--params", params, "--count", "5", "--output", out]),
        ]
        sys.exit(max(codes))
        """
    )
    src = str(Path(thetagauss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.json"), str(params)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["command"] == "sample"


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"data": [[0], [1], [2]]}, ["--mu", "[0.5]", "--sigma", "[[1.0]]"]),
        ({"data": [[0], [1], [2]]}, ["--mu", "[true]"]),
        ({"data": [[0], [1], [2]], "sigma": [[1.0]]}, []),
    ],
)
def test_fit_takes_data_or_a_target(tmp_path, doc, flags):
    """A moment target beside a data file is an input error, not ignored."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main(["fit", "--params", str(params), *flags, "--output", str(out)]) == 2
    assert json.loads(out.read_text(encoding="utf-8"))["field"] == "data"
