"""The command-line interface, run in-process through cli.main."""

import json

import numpy as np
import pytest

from thetagauss import cli
from thetagauss.engine import ThetaPoint, theta
from thetagauss.geometry import ProjectivePoint, kummer_quartic_fit, statistical_map

# |Im B12| >= 0.2 keeps the surface from splitting into a product of curves
B_KUMMER = np.array([[0.9 + 0.1j, 0.15 + 0.3j], [0.15 + 0.3j, 1.1 - 0.2j]])


def strict_loads(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_params(path, B, u=None):
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    doc = {"g": len(B), "B": [[[z.real, z.imag] for z in row] for row in B]}
    if u is not None:
        doc["u"] = [[z.real, z.imag] for z in np.atleast_1d(np.asarray(u, dtype=complex))]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, argv):
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8")


class TestKummer:
    def test_document(self, tmp_path):
        params = write_params(tmp_path / "p.json", B_KUMMER)
        code, text = run(tmp_path, ["kummer", "--params", params, "--seed", "5"])
        assert code == 0
        doc = strict_loads(text)
        assert doc["command"] == "kummer"
        res = doc["result"]
        assert res["points_used"] == 60 == doc["inputs_echo"]["count"]
        assert res["residual"] < 1e-10
        assert len(res["coefficients"]) == 35

    def test_same_seed_same_bytes(self, tmp_path):
        params = write_params(tmp_path / "p.json", B_KUMMER)
        argv = ["kummer", "--params", params, "--seed", "11", "--count", "40"]
        code1, text1 = run(tmp_path, argv)
        code2, text2 = run(tmp_path, argv)
        assert code1 == code2 == 0
        assert text1 == text2
        assert strict_loads(text1)["result"]["points_used"] == 40

    def test_points_are_the_one_at_a_time_draws(self, tmp_path):
        # the stacked job keeps the points the per-candidate loop kept:
        # (x1, x2, y1, y2) in Philox stream order, |theta| >= 0.2 accepted
        seed, count = 7, 45
        params = write_params(tmp_path / "p.json", B_KUMMER)
        code, text = run(
            tmp_path, ["kummer", "--params", params, "--seed", str(seed), "--count", str(count)]
        )
        assert code == 0
        res = strict_loads(text)["result"]

        rng = np.random.Generator(np.random.Philox(seed))
        points = []
        while len(points) < count:
            x = rng.uniform(0.0, 1.0, 2)
            y = rng.uniform(0.0, 1.0, 2)
            u = 1j * x + B_KUMMER @ y
            if abs(theta(ThetaPoint(u, B_KUMMER), 1e-10)) >= 0.2:
                points.append(statistical_map(2, ThetaPoint(u, B_KUMMER), 1e-13))
        want = kummer_quartic_fit(B_KUMMER, points)
        # the quartic is the same through any points of the surface; the
        # rest of the spectrum depends on which points were fitted
        assert res["second_smallest"] == pytest.approx(want.singular_values[-2], rel=1e-9)
        got = ProjectivePoint([complex(*z) for z in res["coefficients"]])
        assert ProjectivePoint(want.coeffs).distance(got) < 1e-8

    def test_too_few_points_is_input_error(self, tmp_path):
        params = write_params(tmp_path / "p.json", B_KUMMER)
        code, text = run(tmp_path, ["kummer", "--params", params, "--count", "35"])
        assert code == 2
        doc = strict_loads(text)
        assert doc["error"] == "InputError" and doc["field"] == "count"

    def test_g1_is_input_error(self, tmp_path):
        params = write_params(tmp_path / "p.json", [[1.0]])
        code, text = run(tmp_path, ["kummer", "--params", params])
        assert code == 2
        assert strict_loads(text)["field"] == "g"


class TestNumericalFailure:
    def test_overflowing_moments_exit_3(self, tmp_path):
        params = write_params(tmp_path / "p.json", [[1.0]], [25.0])
        code, text = run(tmp_path, ["moments", "--params", params])
        assert code == 3
        doc = strict_loads(text)
        assert doc["error"] == "ToleranceUnreachable"

    @pytest.mark.parametrize("u", [0.0, 0.3 + 0.1j])
    def test_finite_moments_exit_0(self, tmp_path, u):
        params = write_params(tmp_path / "p.json", [[1.0]], [u])
        code, text = run(tmp_path, ["moments", "--params", params])
        assert code == 0
        assert len(strict_loads(text)["result"]["mean"]) == 1
