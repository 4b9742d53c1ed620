"""The CLI's sample command reads u and B through the library's one test of
a real parameter (engine._real): any nonzero imaginary part, however
small, is an input error on its field, as it is for the library's
real-only entry points (tests/test_input_errors.py)."""

import json

import pytest

from test_cli import run, strict_loads

TINY_IMAG_U = {"g": 1, "u": [[0.2, 1e-13]], "B": [[[1.0, 0.0]]]}
TINY_IMAG_B = {"g": 1, "u": [[0.2, 0.0]], "B": [[[1.0, 1e-13]]]}


@pytest.mark.parametrize("params, field", [(TINY_IMAG_U, "u"), (TINY_IMAG_B, "B")], ids=["u", "B"])
def test_sample_exits_2_on_a_tiny_imaginary_part(tmp_path, params, field):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    code, text = run(tmp_path, ["sample", "--count", "3", "--params", str(path)])
    assert code == 2
    doc = strict_loads(text)
    assert (doc["error"], doc["field"]) == ("InputError", field)

