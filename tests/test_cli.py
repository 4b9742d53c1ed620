"""The command-line interface, run in-process through cli.main."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from thetagauss import cli, errors, geometry, verify
from thetagauss.engine import ThetaPoint, theta
from thetagauss.geometry import (
    ProjectivePoint,
    identifiability_probe,
    kummer_quartic_fit,
    statistical_map,
)
from thetagauss.multiindex import indices_up_to

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

    def test_one_stacked_evaluation_per_batch(self, tmp_path, monkeypatch):
        # each batch draws exactly the points still missing and maps them
        # all with one evaluation of the whole degree-2 table; theta is never
        # evaluated on its own to filter the candidates.  Under 1 % of the
        # candidates are rejected at this B, so one or two batches are the
        # usual case.
        calls = []

        def counting(indices, U, B, eps):
            out = evaluate(indices, U, B, eps)
            calls.append((list(indices), len(U), np.abs(out[:, 0])))
            return out

        evaluate = geometry.theta_du_stack
        monkeypatch.setattr(geometry, "theta_du_stack", counting)
        count = 45
        params = write_params(tmp_path / "p.json", B_KUMMER)
        code, _ = run(tmp_path, ["kummer", "--params", params, "--seed", "7", "--count", str(count)])
        assert code == 0
        kept = 0
        for indices, rows, t in calls:
            assert indices == indices_up_to(2, 2)
            assert rows == count - kept
            kept += int(np.sum(t >= 0.2))
        assert kept >= count

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


class TestNonFinite:
    def test_dumps_refuses_non_finite_floats(self):
        for x in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
            with pytest.raises(errors.NumericalFailure):
                cli.dumps({"value": [x]})

    def test_non_finite_result_is_numerical_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.PointSums, "table", lambda *_: {(0,): complex(float("inf"), 0.0)})
        params = write_params(tmp_path / "p.json", [[1.0]])
        code, text = run(tmp_path, ["theta", "--params", params])
        assert code == 3
        assert strict_loads(text)["error"] == "NumericalFailure"

    def test_probe_without_trials_is_input_error(self, tmp_path):
        params = write_params(tmp_path / "p.json", [[1.0]])
        code, text = run(tmp_path, ["probe", "--params", params, "--trials", "0"])
        assert code == 2
        assert strict_loads(text)["error"] == "InputError"
        with pytest.raises(ValueError):
            identifiability_probe(np.eye(1), trials=0)


class TestNonFiniteParameters:
    """JSON admits NaN and Infinity; a params file holding one is an input
    error on its field."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("theta", {"g": 1, "u": [[float("inf"), 0.0]], "B": [[[1.0, 0.0]]]}, "u"),
            ("sample", {"g": 1, "u": [[float("inf"), 0.0]], "B": [[[1.0, 0.0]]]}, "u"),
            ("sample", {"g": 1, "u": [[0.0, float("nan")]], "B": [[[1.0, 0.0]]]}, "u"),
            ("theta", {"g": 1, "u": [[float("nan"), 0.0]], "B": [[[1.0, 0.0]]]}, "u"),
            ("moments", {"g": 1, "B": [[[float("nan"), 0.0]]]}, "B"),
            ("theta", {"g": 1, "B": [[[10**400, 0]]]}, "B"),
        ],
    )
    def test_exit_2_on_the_field(self, tmp_path, command, doc, field):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run(tmp_path, [command, "--params", str(params), "--count", "3"])
        assert code == 2
        err = strict_loads(text)
        assert (err["error"], err["field"]) == ("InputError", field)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, tol):
        params = write_params(tmp_path / "p.json", [[1.0]])
        code, text = run(tmp_path, ["theta", "--params", params, "--tol", tol])
        assert code == 2
        assert strict_loads(text)["field"] == "tol"


class TestVerify:
    def test_all_checks_pass(self, tmp_path):
        code, text = run(tmp_path, ["verify"])
        assert code == 0
        result = strict_loads(text)["result"]
        assert len(result["checks"]) == len(verify.ALL_CHECKS) == 15
        assert result["all_passed"] is True
        assert all(c["passed"] is True for c in result["checks"])

    def test_failed_check_exits_3_with_the_document(self, tmp_path, monkeypatch):
        failing = ("forced.failure", lambda rng: (False, "forced"))
        monkeypatch.setattr(verify, "ALL_CHECKS", [failing] + verify.ALL_CHECKS[1:])
        code, text = run(tmp_path, ["verify"])
        assert code == 3
        doc = strict_loads(text)
        assert doc["command"] == "verify"
        assert doc["result"]["all_passed"] is False
        assert doc["result"]["checks"][0] == {
            "name": "forced.failure", "passed": False, "detail": "forced"
        }


class TestErrorOutput:
    """An error found while reading the flags or the params file goes to
    --output like any other document."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["theta"], "params_file"),
            (["theta", "--params", "missing.json"], "params_file"),
            (["theta", "--tol", "-1"], "tol"),
            (["frobnicate"], "argv"),
        ],
    )
    def test_written_to_output(self, tmp_path, capsys, argv, field):
        out = tmp_path / "o.json"
        code = cli.main(argv + ["--output", str(out)])
        assert code == 2
        assert capsys.readouterr().out == ""
        doc = strict_loads(out.read_text(encoding="utf-8"))
        assert doc["error"] == "InputError" and doc["field"] == field

    def test_unreadable_output_flag_falls_back_to_stdout(self, capsys):
        assert cli.main(["theta", "--output"]) == 2
        doc = strict_loads(capsys.readouterr().out)
        assert doc["error"] == "InputError" and doc["field"] == "argv"

    @pytest.mark.parametrize("parse_error", [False, True])
    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys, parse_error):
        """A job that ran, or a parse error, whose --output cannot be
        written: exit 2 and an InputError document on stdout."""
        params = write_params(tmp_path / "p.json", [[1.0]], [0.1])
        argv = ["theta", "--params", params, "--tol", "-1" if parse_error else "1e-10"]
        out = tmp_path / "nodir" / "o.json"
        assert cli.main(argv + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "" and not out.exists()
        doc = strict_loads(captured.out)
        assert doc["error"] == "InputError" and doc["field"] == "output"
        assert str(out) in doc["message"]


class TestBooleanParameters:
    """JSON true and false are not numbers, though bool subclasses int."""

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("theta", {"g": 1, "u": [[False, 0]], "B": [[[1.0, 0.0]]]}, "u"),
            ("theta", {"g": 1, "B": [[[True, 0]]]}, "B"),
            ("sample", {"g": 1, "u": [[True, 0.0]], "B": [[[1.0, 0.0]]]}, "u"),
            ("theta", {"g": True, "B": [[[1.0, 0.0]]]}, "g"),
            ("pmf", {"g": 1, "B": [[[1.0, 0.0]]], "n": [True]}, "n"),
        ],
    )
    def test_exit_2_on_the_field(self, tmp_path, command, doc, field):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run(tmp_path, [command, "--params", str(params), "--count", "3"])
        assert code == 2
        err = strict_loads(text)
        assert (err["error"], err["field"]) == ("InputError", field)


class TestFitTargetFields:
    @pytest.mark.parametrize(
        "mu, sigma, field",
        [
            ("[NaN]", "[[1.0]]", "mu"),
            ('["a"]', "[[1.0]]", "mu"),
            ("[0.5, 0.5]", "[[1.0]]", "sigma"),
        ],
    )
    def test_invalid_target_names_its_field(self, tmp_path, mu, sigma, field):
        code, text = run(tmp_path, ["fit", "--mu", mu, "--sigma", sigma])
        assert code == 2
        err = strict_loads(text)
        assert (err["error"], err["field"]) == ("InputError", field)


class TestParseConfig:
    def test_flags_of_one_call_do_not_reach_the_next(self):
        """parse_config reuses one parser; each call starts from its
        defaults."""
        first = cli.parse_config(
            ["fit", "--mu", "[1.0]", "--sigma", "[[2.0]]", "--seed", "5", "--tol", "1e-6"]
        )
        second = cli.parse_config(["fit", "--mu", "[0.5]", "--sigma", "[[1.0]]"])
        assert (first.mu, first.sigma, first.seed, first.tol) == ([1.0], [[2.0]], 5, 1e-6)
        assert (second.mu, second.sigma, second.seed, second.tol) == ([0.5], [[1.0]], 0, 1e-9)
        assert second.params == {} and second.params_file is None


class TestFitBooleans:
    """A JSON true/false in the fit target is an input error on its field,
    not a 1 or 0."""

    @pytest.mark.parametrize(
        "mu, sigma, field",
        [
            ("[true]", "[[1.0]]", "mu"),
            ("[0.5, false]", "[[1.0, 0.0], [0.0, 1.0]]", "mu"),
            ("[0.5]", "[[true]]", "sigma"),
            ("[0.5, 0.5]", "[[1.0, 0.0], [false, 1.0]]", "sigma"),
        ],
    )
    def test_flags(self, tmp_path, mu, sigma, field):
        code, text = run(tmp_path, ["fit", "--mu", mu, "--sigma", sigma])
        assert code == 2
        err = strict_loads(text)
        assert (err["error"], err["field"]) == ("InputError", field)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"mu": [True], "sigma": [[1.0]]}, "mu"),
            ({"mu": [0.5], "sigma": [[False]]}, "sigma"),
            ({"data": [[0, 1], [1, True], [2, 0], [1, 1]]}, "data"),
            ({"data": [0, 1, False, 2, 1]}, "data"),
        ],
    )
    def test_params_file(self, tmp_path, doc, field):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run(tmp_path, ["fit", "--params", str(params)])
        assert code == 2
        err = strict_loads(text)
        assert (err["error"], err["field"]) == ("InputError", field)

    def test_numbers_still_fit(self, tmp_path):
        code, text = run(tmp_path, ["fit", "--mu", "[1, 0.5]", "--sigma", "[[1, 0], [0, 1]]"])
        assert code == 0
        assert strict_loads(text)["result"]["converged"] is True


class TestSampleCommand:
    def test_theta_evaluated_once(self, tmp_path, monkeypatch):
        """The radius in the diagnostics and the draws come from one
        support computation, so theta is evaluated once."""
        from thetagauss import CanonicalPoint, sampler

        calls = []

        def counting_theta(*args, **kwargs):
            calls.append(args)
            return theta(*args, **kwargs)

        monkeypatch.setattr(sampler, "theta", counting_theta)
        params = write_params(tmp_path / "p.json", [[0.3, 0.05], [0.05, 0.25]], [4.1, -2.7])
        code, text = run(tmp_path, ["sample", "--params", params, "--count", "50"])
        assert code == 0
        assert len(calls) == 1
        doc = strict_loads(text)
        p = CanonicalPoint([4.1, -2.7], [[0.3, 0.05], [0.05, 0.25]])
        assert doc["diagnostics"]["radius"] == sampler.support_radius(p, 1e-9)


# -- golden documents -----------------------------------------------------------
#
# Every command on small fixed inputs, and the error paths, with the exit code
# and standard output recorded in tests/golden/cli.json.  Documents must agree
# in exit code, key order and every string, int and bool.  Floats agree to
# rel 1e-12 of the largest number under the same key (a vector or matrix
# field is compared as a whole), so that entries that are zero up to rounding
# may differ by rounding under a different BLAS; the residuals of the fits and
# the cubic's residuals block are rounding-level figures and are compared at
# 1e-12 absolute, every number under such a key alike.  Rewrite the
# recorded documents from the current code with
# `PYTHONPATH=src python tests/test_cli.py`, or only the named cases, the
# others kept byte for byte, with `PYTHONPATH=src python tests/test_cli.py
# NAME...`.

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli.json"
PARAMS = "<params>"  # replaced by the path of the case's params file

U_G2 = [[0.1, 0.2], [-0.3, 0.05]]
B_G2 = [[[1.0, 0.1], [0.2, -0.3]], [[0.2, -0.3], [0.9, 0.2]]]
U_REAL_G2 = [[0.2, 0.0], [-0.1, 0.0]]
B_REAL_G2 = [[[1.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.8, 0.0]]]
B_KUMMER_PAIRS = [[[0.9, 0.1], [0.15, 0.3]], [[0.15, 0.3], [1.1, -0.2]]]

GOLDEN_CASES = {
    "theta": (["theta", "--params", PARAMS], {"g": 2, "u": U_G2, "B": B_G2}),
    "pmf": (["pmf", "--params", PARAMS], {"g": 2, "u": U_G2, "B": B_G2, "n": [1, -1]}),
    "moments": (["moments", "--params", PARAMS, "--tol", "1e-12"], {"g": 2, "u": U_G2, "B": B_G2}),
    "entropy": (["entropy", "--params", PARAMS], {"g": 2, "u": U_REAL_G2, "B": B_REAL_G2}),
    "fit": (["fit", "--mu", "[0.3, -0.2]", "--sigma", "[[1.0, 0.2], [0.2, 0.8]]"], None),
    "fit_data": (["fit", "--params", PARAMS], {"data": [[0], [1], [2], [1], [0], [-1], [1], [3]]}),
    "sample": (
        ["sample", "--params", PARAMS, "--count", "8", "--seed", "3"],
        {"g": 2, "u": U_REAL_G2, "B": B_REAL_G2},
    ),
    "verify": (["verify"], None),
    "map": (["map", "--params", PARAMS], {"g": 2, "u": U_G2, "B": B_G2}),
    "map_g1_d3": (
        ["map", "--params", PARAMS, "--d", "3"],
        {"g": 1, "u": [[0.2, 0.1]], "B": [[[1.0, 0.2]]]},
    ),
    "cubic": (["cubic", "--params", PARAMS], {"g": 1, "u": [[0.1, 0.3]], "B": [[[1.0, 0.2]]]}),
    "kummer": (
        ["kummer", "--params", PARAMS, "--count", "40", "--seed", "2"],
        {"g": 2, "B": B_KUMMER_PAIRS},
    ),
    "probe": (
        ["probe", "--params", PARAMS, "--trials", "3", "--seed", "1"],
        {"g": 1, "B": [[[1.0, 0.0]]]},
    ),
    # error paths
    "unknown_command": (["frobnicate"], None),
    "missing_params": (["theta"], None),
    "unknown_params_key": (["theta", "--params", PARAMS], {"g": 1, "B": [[[1.0, 0.0]]], "x": 1}),
    "nonsymmetric_B": (
        ["theta", "--params", PARAMS],
        {"g": 2, "B": [[[1.0, 0.0], [0.1, 0.0]], [[0.2, 0.0], [1.0, 0.0]]]},
    ),
    "non_pd_B": (["theta", "--params", PARAMS], {"g": 1, "B": [[[-1.0, 0.0]]]}),
    "cubic_g2": (["cubic", "--params", PARAMS], {"g": 2, "B": B_G2}),
    "kummer_g1": (["kummer", "--params", PARAMS], {"g": 1, "B": [[[1.0, 0.0]]]}),
    "fit_non_pd_sigma": (
        ["fit", "--mu", "[0.0, 0.0]", "--sigma", "[[1.0, 2.0], [2.0, 1.0]]"],
        None,
    ),
    "moments_overflow": (
        ["moments", "--params", PARAMS],
        {"g": 1, "u": [[25.0, 0.0]], "B": [[[1.0, 0.0]]]},
    ),
}

# keys whose string values carry rounding-level figures (verify's details)
GOLDEN_FREE_STRINGS = {"detail"}
# keys whose values are zero up to rounding
GOLDEN_ROUNDING_LEVEL = {"residual", "grad_norm", "residuals"}


def run_golden(name, tmp_dir):
    """Exit code and standard output of one golden case."""
    argv, params = GOLDEN_CASES[name]
    if params is not None:
        path = Path(tmp_dir) / f"{name}.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        argv = [str(path) if a == PARAMS else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _largest(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return max((_largest(x) for x in doc), default=0.0)
    return abs(doc) if _is_number(doc) else 0.0


def document_mismatches(got, want, scale=0.0, path="$", rounding=False):
    """Where the parsed document `got` differs from `want` (see above);
    `scale` is the largest number under the enclosing key, and `rounding`
    marks a subtree under a rounding-level key."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            keys = list(got) if isinstance(got, dict) else got
            return [f"{path}: keys {keys!r} != {list(want)}"]
        out = []
        for k in want:
            if k in GOLDEN_FREE_STRINGS and isinstance(want[k], str):
                if not isinstance(got[k], str):
                    out.append(f"{path}.{k}: {got[k]!r} is not a string")
                continue
            inner = rounding or k in GOLDEN_ROUNDING_LEVEL
            scale = 1.0 if inner else _largest(want[k])
            out += document_mismatches(got[k], want[k], scale, f"{path}.{k}", inner)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [
            m for i, (x, y) in enumerate(zip(got, want))
            for m in document_mismatches(x, y, scale, f"{path}[{i}]", rounding)
        ]
    if _is_number(got) and _is_number(want) and float in (type(got), type(want)):
        same = abs(got - want) <= 1e-12 * max(abs(want), scale)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_document(name, golden, tmp_path):
    code, text = run_golden(name, tmp_path)
    want = golden[name]
    assert code == want["exit"]
    assert text.endswith("\n") and text.count("\n") == 1
    mismatches = document_mismatches(strict_loads(text), strict_loads(want["stdout"]))
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or list(GOLDEN_CASES)
    unknown = [name for name in names if name not in GOLDEN_CASES]
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            exit_code, stdout = run_golden(case, tmp)
            recorded[case] = {"exit": exit_code, "stdout": stdout}
    recorded = {case: recorded[case] for case in GOLDEN_CASES if case in recorded}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
