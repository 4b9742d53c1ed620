"""Batch command-line interface: one job per invocation, JSON in and out.

Every run writes a single JSON document

    {command, inputs_echo, result, diagnostics: {eps, radius, iterations}}

to --output or standard output.  Exit codes: 0 success, 2 input error (a
bad flag or params file, errors.InvalidParameters, ValueError, or an
--output that cannot be written, reported on standard output), 3 numerical
failure (errors.NumericalFailure); errors are reported as
{error, field, message}.  Complex numbers are always [re, im] pairs,
matrices row-major, and all floats are printed at 17 significant digits so
the document is byte-deterministic and round-trips doubles exactly.  A
result holding inf or nan is a numerical failure, never bare JSON.
JSON true and false are not numbers in g, n, u or B.  The radius of
sample is the support radius about round(B^-1 u) (sampler.support_radius);
that of pmf, moments and entropy is the largest ball the distribution
summed (DiscreteGaussian.sums.radius).

The commands are one table, COMMANDS = {name: (run, allowed params keys)}.
run(cfg) returns (result, inputs_echo, diagnostics); a command whose keys
include "B" requires --params.  theta, pmf, moments, entropy and map
evaluate at one point (u, B) and share its prologue, _at_point.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import verify as verify_checks
from .engine import (
    EPS_FLOOR,
    ThetaPoint,
    theta,
    theta_du_stack,
    truncation_radius,
)
from .distribution import DiscreteGaussian
from .errors import InvalidParameters, NumericalFailure
from .fitting import CanonicalPoint, MomentData, fit, fit_from_sample
from .geometry import (
    ProjectivePoint,
    cubic_coefficients,
    identifiability_probe,
    kummer_quartic_fit,
    statistical_map,
    statistical_map_stack,
    verify_cubic,
)
from .multiindex import moment_map_indices
from .sampler import RNG_ALGORITHM, SamplerConfig, _draw


class InputError(InvalidParameters):
    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


@dataclass
class JobConfig:
    command: str
    params_file: str | None = None
    tol: float = 1e-9
    seed: int = 0
    output: str | None = None
    mu: object = None
    sigma: object = None
    count: int | None = None
    d: int = 2
    trials: int = 200
    params: dict = field(default_factory=dict)


# -- deterministic JSON output ------------------------------------------------


def _dump(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalFailure(f"the result holds {float(obj)}, which JSON cannot encode")
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _dump(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _dump(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, insertion-ordered.

    Raises NumericalFailure on a float that is not finite.
    """
    out: list[str] = []
    _dump(obj, out)
    return "".join(out)


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pairs_vector(v) -> list:
    return [_pair(z) for z in np.atleast_1d(v)]


def _pairs_matrix(M) -> list:
    return [[_pair(z) for z in row] for row in np.atleast_2d(M)]


# -- input parsing -------------------------------------------------------------


def _is_number(x, kinds=(int, float)) -> bool:
    """x is one of `kinds` and not a JSON true/false (bool subclasses int)."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _reject_booleans(value, field_name: str):
    """Raise InputError if a JSON true/false sits anywhere in `value`: the
    float conversion of a numeric field would read it as 1 or 0."""
    if isinstance(value, bool):
        raise InputError(field_name, f"{field_name} must hold numbers, not true/false")
    if isinstance(value, list):
        for x in value:
            _reject_booleans(x, field_name)


def _as_complex_scalar(value, field_name: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(x) for x in value)
    ):
        raise InputError(field_name, "complex numbers must be [re, im] pairs")
    try:
        z = complex(value[0], value[1])
        finite = cmath.isfinite(z)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise InputError(field_name, "complex numbers must be finite")
    return z


def _parse_u(value, g: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != g:
        raise InputError("u", f"u must be a list of {g} [re, im] pairs")
    return np.array([_as_complex_scalar(z, "u") for z in value])


def _parse_B(value, g: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != g:
        raise InputError("B", f"B must be a {g}x{g} row-major matrix of [re, im] pairs")
    B = np.empty((g, g), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != g:
            raise InputError("B", f"B must be a {g}x{g} row-major matrix of [re, im] pairs")
        for j, z in enumerate(row):
            B[i, j] = _as_complex_scalar(z, "B")
    if not np.array_equal(B, B.T):
        raise InputError("B", "B must be symmetric: B[i][j] == B[j][i]")
    return B


def _load_params_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError("params_file", f"cannot open {path}")
    except json.JSONDecodeError as exc:
        raise InputError("params_file", f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InputError("params_file", "parameter file must hold a JSON object")
    allowed = COMMANDS[command][1]
    unknown = set(raw) - allowed
    if unknown:
        raise InputError(
            sorted(unknown)[0],
            f"unknown key(s) {sorted(unknown)} for command {command!r}; "
            f"allowed: {sorted(allowed)}",
        )
    return raw


def _require_theta_params(cfg: JobConfig) -> tuple[np.ndarray, np.ndarray]:
    raw = cfg.params
    if "g" not in raw or not _is_number(raw["g"], int) or raw["g"] < 1:
        raise InputError("g", "g must be a positive integer")
    g = raw["g"]
    if "B" not in raw:
        raise InputError("B", "B is required")
    B = _parse_B(raw["B"], g)
    if "u" in raw:
        u = _parse_u(raw["u"], g)
    else:
        u = np.zeros(g, dtype=complex)
    return u, B


def _require_real(u, B):
    if np.max(np.abs(u.imag)) > 1e-12:
        raise InputError("u", "this command requires real parameters")
    if np.max(np.abs(B.imag)) > 1e-12:
        raise InputError("B", "this command requires real parameters")
    return u.real, B.real


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError("argv", message)


def parse_config(argv) -> JobConfig:
    """Validate flags and the params file into a JobConfig."""
    parser = _Parser(prog="thetagauss", add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--params", dest="params_file")
    parser.add_argument("--mu")
    parser.add_argument("--sigma")
    parser.add_argument("--count", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--output")
    ns = parser.parse_args(argv)

    cfg = JobConfig(
        command=ns.command,
        params_file=ns.params_file,
        tol=ns.tol,
        seed=ns.seed,
        output=ns.output,
        count=ns.count,
        d=ns.d,
        trials=ns.trials,
    )
    if not 0 < cfg.tol < math.inf:
        raise InputError("tol", "tol must be positive and finite")
    if ns.mu is not None:
        try:
            cfg.mu = json.loads(ns.mu)
        except json.JSONDecodeError:
            raise InputError("mu", "--mu must be a JSON array")
    if ns.sigma is not None:
        try:
            cfg.sigma = json.loads(ns.sigma)
        except json.JSONDecodeError:
            raise InputError("sigma", "--sigma must be a JSON matrix")
    if cfg.params_file is not None:
        cfg.params = _load_params_file(cfg.params_file, cfg.command)
    if cfg.command == "fit":
        if cfg.mu is None and "mu" in cfg.params:
            cfg.mu = cfg.params["mu"]
        if cfg.sigma is None and "sigma" in cfg.params:
            cfg.sigma = cfg.params["sigma"]
        if ("mu" in cfg.params) != ("sigma" in cfg.params) and "data" not in cfg.params:
            raise InputError("sigma", "fit needs both mu and sigma (or data)")
    if "B" in COMMANDS[cfg.command][1] and not cfg.params:
        raise InputError("params_file", f"{cfg.command} requires --params")
    return cfg


# -- command execution ----------------------------------------------------------


def _diag(eps=None, radius=None, iterations=None) -> dict:
    return {"eps": eps, "radius": radius, "iterations": iterations}


def _at_point(body):
    """Wrap the body of a command evaluated at one point (u, B).

    The prologue parses u and B from the params file and sets eps from
    --tol; body(cfg, u, B, eps) returns (result, the command's own echoed
    inputs, diagnostics), and the echo is g, u, B, those inputs, then tol.
    """

    def run(cfg: JobConfig):
        u, B = _require_theta_params(cfg)
        result, inputs, diagnostics = body(cfg, u, B, max(EPS_FLOOR, cfg.tol))
        echo = {"g": len(B), "u": _pairs_vector(u), "B": _pairs_matrix(B), **inputs, "tol": cfg.tol}
        return result, echo, diagnostics

    return run


@_at_point
def _run_theta(cfg: JobConfig, u, B, eps):
    p = ThetaPoint(u, B)
    budget = truncation_radius(p.B, p.u, None, eps)
    return {"theta": _pair(theta(p, eps))}, {}, _diag(eps=eps, radius=budget.radius)


@_at_point
def _run_pmf(cfg: JobConfig, u, B, eps):
    if "n" not in cfg.params:
        raise InputError("n", "pmf requires the lattice point n")
    n = cfg.params["n"]
    if not isinstance(n, list) or not all(_is_number(x, int) for x in n):
        raise InputError("n", "n must be a list of integers")
    d = DiscreteGaussian(u, B, eps)
    result = {"pmf": _pair(d.pmf(n))}
    return result, {"n": [int(x) for x in n]}, _diag(eps=eps, radius=d.sums.radius)


@_at_point
def _run_moments(cfg: JobConfig, u, B, eps):
    d = DiscreteGaussian(u, B, eps)
    mean, cov = d.mean_cov()
    result = {"mean": _pairs_vector(mean), "covariance": _pairs_matrix(cov)}
    return result, {}, _diag(eps=eps, radius=d.sums.radius)


@_at_point
def _run_entropy(cfg: JobConfig, u, B, eps):
    d = DiscreteGaussian(u, B, eps)
    result = {"entropy": _pair(d.entropy()), "branch": "principal"}
    return result, {}, _diag(eps=eps, radius=d.sums.radius)


def _run_fit(cfg: JobConfig):
    for name, value in (("mu", cfg.mu), ("sigma", cfg.sigma), ("data", cfg.params.get("data"))):
        _reject_booleans(value, name)
    if "data" in cfg.params:
        data = cfg.params["data"]
        report = fit_from_sample(data, tol=cfg.tol)
        echo = {"data": data, "tol": cfg.tol}
    else:
        if cfg.mu is None or cfg.sigma is None:
            raise InputError("mu", "fit requires --mu and --sigma (or a data file)")
        try:
            mu = np.atleast_1d(np.asarray(cfg.mu, dtype=float))
            if not np.isfinite(mu).all():
                raise ValueError("mu must have finite entries")
        except (TypeError, ValueError) as exc:
            raise InputError("mu", f"invalid moment target: {exc}")
        try:
            target = MomentData(mu, np.asarray(cfg.sigma, dtype=float))
        except (TypeError, ValueError) as exc:
            raise InputError("sigma", f"invalid moment target: {exc}")
        report = fit(target, tol=cfg.tol)
        echo = {
            "mu": [float(x) for x in target.mu],
            "sigma": [[float(x) for x in row] for row in target.sigma],
            "tol": cfg.tol,
        }
    result = {
        "u": [float(x) for x in report.params.u],
        "B": [[float(x) for x in row] for row in report.params.B],
        "grad_norm": report.grad_norm,
        "objective": report.objective,
        "converged": report.converged,
    }
    return result, echo, _diag(eps=1e-4 * cfg.tol, iterations=report.iterations)


def _run_sample(cfg: JobConfig):
    u, B = _require_theta_params(cfg)
    u, B = _require_real(u, B)
    if cfg.count is None or cfg.count < 1:
        raise InputError("count", "sample requires --count >= 1")
    p = CanonicalPoint(u, B)
    scfg = SamplerConfig(tail_eps=min(cfg.tol, 1e-6), seed=cfg.seed)
    # the radius of the ball about round(B^-1 u) that the draws came from
    sample, radius = _draw(p, cfg.count, scfg)
    echo = {
        "g": p.g,
        "u": [float(x) for x in u],
        "B": [[float(x) for x in row] for row in B],
        "count": cfg.count,
        "seed": cfg.seed,
    }
    result = {
        "draws": [[int(x) for x in row] for row in sample],
        "rng": RNG_ALGORITHM,
        "tail_eps": scfg.tail_eps,
    }
    return result, echo, _diag(eps=scfg.tail_eps, radius=radius)


def _run_verify(cfg: JobConfig):
    checks = verify_checks.run_all(seed=cfg.seed)
    result = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
    echo = {"seed": cfg.seed}
    if not result["all_passed"]:
        raise _VerifyFailed(_report(cfg.command, result, echo, _diag()))
    return result, echo, _diag()


class _VerifyFailed(NumericalFailure):
    """A verify check failed: exit 3, with the whole verify document."""

    def __init__(self, text: str):
        super().__init__("one or more verify checks failed")
        self.text = text


@_at_point
def _run_map(cfg: JobConfig, u, B, eps):
    if cfg.d < 2:
        raise InputError("d", "map degree must be at least 2")
    pt = statistical_map(cfg.d, ThetaPoint(u, B), eps)
    result = {
        "degree": cfg.d,
        "indices": [list(a) for a in moment_map_indices(len(B), cfg.d)],
        "coordinates": _pairs_vector(pt.coords),
    }
    return result, {"d": cfg.d}, _diag(eps=eps)


def _run_cubic(cfg: JobConfig):
    u, B = _require_theta_params(cfg)
    if B.shape != (1, 1):
        raise InputError("g", "cubic is a g = 1 command")
    eps = max(EPS_FLOOR, cfg.tol)
    coef = cubic_coefficients(B, eps)
    echo = {"g": 1, "B": _pairs_matrix(B), "tol": cfg.tol}
    result = {
        "e1": _pair(coef.e1),
        "e2": _pair(coef.e2),
        "e3": _pair(coef.e3),
        "a": _pair(coef.a),
        "b": _pair(coef.b),
        "c": _pair(coef.c),
    }
    if "u" in cfg.params:
        echo["u"] = _pairs_vector(u)
        res = verify_cubic(complex(u[0]), complex(B[0, 0]), eps)
        result["residuals"] = {
            "r_cubic": res.r_cubic,
            "r_quartic": res.r_quartic,
            "r_det": res.r_det,
        }
    return result, echo, _diag(eps=eps)


def _run_kummer(cfg: JobConfig):
    _, B = _require_theta_params(cfg)
    if B.shape != (2, 2):
        raise InputError("g", "kummer is a g = 2 command")
    count = cfg.count if cfg.count is not None else 60
    if count < 36:
        raise InputError("count", "kummer needs at least 36 points")
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    # candidates u = i x + B y, rows (x1, x2, y1, y2) drawn in stream order;
    # those near the divisor (|theta| < 0.2) are rejected, the first `count`
    # others kept.  Each batch draws twice what is still missing.
    U = np.empty((0, 2), dtype=complex)
    while len(U) < count:
        draws = rng.uniform(0.0, 1.0, (2 * (count - len(U)), 4))
        cand = 1j * draws[:, :2] + draws[:, 2:] @ B.T
        t = theta_du_stack([(0, 0)], cand, B, 1e-10)[:, 0]
        U = np.vstack([U, cand[np.abs(t) >= 0.2]])
    coords = statistical_map_stack(2, U[:count], B, 1e-13)
    fit_result = kummer_quartic_fit(B, [ProjectivePoint(c) for c in coords])
    echo = {"g": 2, "B": _pairs_matrix(B), "count": count, "seed": cfg.seed}
    result = {
        "residual": fit_result.residual,
        "second_smallest": float(fit_result.singular_values[-2]),
        "coefficients": _pairs_vector(fit_result.coeffs),
        "points_used": len(coords),
    }
    return result, echo, _diag(eps=1e-13)


def _run_probe(cfg: JobConfig):
    _, B = _require_theta_params(cfg)
    report = identifiability_probe(B, trials=cfg.trials, seed=cfg.seed)
    echo = {"g": B.shape[0], "B": _pairs_matrix(B), "trials": cfg.trials, "seed": cfg.seed}
    result = {
        "trials": report.trials,
        "collisions": report.collisions,
        "min_separation": report.min_separation,
    }
    return result, echo, _diag(eps=1e-12)


_POINT_KEYS = {"g", "u", "B"}

COMMANDS = {
    "theta": (_run_theta, _POINT_KEYS),
    "pmf": (_run_pmf, _POINT_KEYS | {"n"}),
    "moments": (_run_moments, _POINT_KEYS),
    "entropy": (_run_entropy, _POINT_KEYS),
    "fit": (_run_fit, {"mu", "sigma", "data"}),
    "sample": (_run_sample, _POINT_KEYS),
    "verify": (_run_verify, set()),
    "map": (_run_map, _POINT_KEYS),
    "cubic": (_run_cubic, _POINT_KEYS),
    "kummer": (_run_kummer, {"g", "B"}),
    "probe": (_run_probe, {"g", "B"}),
}


def _write(path, text: str, code: int) -> int:
    """Write one document to `path`, or to standard output when there is
    none, and return its exit code.  A path that cannot be written gives
    exit 2, with an InputError document (field "output") on standard
    output in place of the job's document."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:
            text, code = _error(InputError("output", f"cannot write {path}: {exc.strerror}")), 2
    sys.stdout.write(text + "\n")
    return code


def _report(command: str, result, echo, diagnostics) -> str:
    return dumps(
        {"command": command, "inputs_echo": echo, "result": result, "diagnostics": diagnostics}
    )


def _error(exc: Exception) -> str:
    name = "InputError" if isinstance(exc, ValueError) else type(exc).__name__
    return dumps({"error": name, "field": getattr(exc, "field", None), "message": str(exc)})


def execute(cfg: JobConfig) -> int:
    """Run the configured job and write its JSON document; returns the exit
    code (0 success, 2 input error, 3 numerical failure)."""
    run, _ = COMMANDS[cfg.command]
    try:
        text, code = _report(cfg.command, *run(cfg)), 0
    except (InvalidParameters, ValueError) as exc:
        text, code = _error(exc), 2
    except NumericalFailure as exc:
        text, code = exc.text if isinstance(exc, _VerifyFailed) else _error(exc), 3
    return _write(cfg.output, text, code)


def _output_path(argv) -> str | None:
    """The --output of argv when it can be read, whatever else is wrong."""
    parser = _Parser(add_help=False)
    parser.add_argument("--output")
    try:
        return parser.parse_known_args(argv)[0].output
    except InputError:
        return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except InputError as exc:
        return _write(_output_path(argv), _error(exc), 2)
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
