"""Batch command-line interface: one job per invocation, JSON in and out.

Every run writes a single JSON document

    {command, inputs_echo, result, diagnostics: {eps, radius, iterations}}

to --output or standard output.  Exit codes: 0 success, 2 input error (a
bad flag or params file, errors.InvalidParameters, ValueError, or an
--output that cannot be written, reported on standard output), 3 numerical
failure (errors.NumericalFailure); errors are reported as
{error, field, message}.

The wire format is stated once, by one decoder and one encoder.  _numbers
decodes every numeric field of a params file or flag (g, u, B, n, mu, sigma
and data): a complex number is an [re, im] pair and a matrix is row-major,
and JSON true/false or any other non-number, a value that is not finite or
beyond the float range, and a wrong shape are input errors on the field.
dumps encodes what the library returns as it is: complex scalars and arrays
as [re, im] pairs, numpy arrays as nested lists, and every float in the
shortest form that reads back as the same double (Python's float repr, so
-0.0 and 1.0 stay floats), so the document is byte-deterministic and
round-trips doubles exactly.  A result holding inf or nan is a numerical
failure, never bare JSON.  The radius of sample is the support radius
about round(B^-1 u) (sampler.support_radius); that of pmf, moments and
entropy is the largest ball the distribution summed
(DiscreteGaussian.sums.radius).

The commands are one table, COMMANDS = {name: (run, allowed params keys)}.
run(args) takes the namespace of parse_config and returns (result,
inputs_echo, diagnostics); a command whose keys include "B" requires
--params.  theta, pmf, moments, entropy and map evaluate at one point (u, B)
and share its prologue, _at_point.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import verify as verify_checks
from .engine import EPS_FLOOR, PointSums, ThetaPoint, _real
from .distribution import DiscreteGaussian
from .errors import InvalidParameters, NumericalFailure
from .fitting import CanonicalPoint, MomentData, fit, fit_from_sample
from .geometry import (
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


# -- deterministic JSON output ------------------------------------------------


def _plain(obj):
    """What the standard encoder cannot encode, as what it can: numpy
    values as Python scalars and nested lists, complex numbers as
    [re, im] pairs."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    """JSON text, insertion-ordered, with every float in the shortest form
    that reads back as the same double; complex numbers are [re, im] pairs
    and numpy arrays nested lists.

    Raises NumericalFailure on a float that is not finite.
    """
    try:
        return json.dumps(obj, default=_plain, allow_nan=False)
    except ValueError as err:
        raise NumericalFailure(f"the result holds a value JSON cannot encode ({err})") from err


# -- input parsing -------------------------------------------------------------

_KINDS = {int: "integers", float: "numbers", complex: "[re, im] pairs"}


def _leaves(value) -> list:
    return [x for item in value for x in _leaves(item)] if isinstance(value, list) else [value]


def _numbers(value, field: str, kind: type, shape: tuple) -> np.ndarray:
    """The JSON value of `field` as a finite array of `kind` (int, float or
    complex, a complex number being an [re, im] pair) and `shape`, in
    which None is a free length.

    Raises InputError on the field for a missing value, JSON true/false or
    any other non-number, a value that is not finite or beyond the float
    (for int, the int64) range, and a wrong shape.
    """
    what = _KINDS[kind]
    if value is None:
        raise InputError(field, f"{field} is required")
    allowed = (int,) if kind is int else (int, float)  # bool is not one of them
    bad = [x for x in _leaves(value) if type(x) not in allowed]
    if bad:
        raise InputError(field, f"{field} must hold {what}, not {json.dumps(bad[0])}")
    want = shape + (2,) if kind is complex else shape
    try:
        array = np.array(value, dtype=np.int64 if kind is int else float)
    except OverflowError:
        raise InputError(field, f"{field} must hold finite {what}")
    except ValueError:  # rows of different lengths
        array = None
    if array is None or array.ndim != len(want) or any(
        n not in (None, m) for n, m in zip(want, array.shape)
    ):
        dims = " x ".join("N" if n is None else str(n) for n in shape)
        form = f"an array of {what} of shape {dims}" if shape else f"a single {what[:-1]}"
        raise InputError(field, f"{field} must be {form}")
    if not np.isfinite(array).all():
        raise InputError(field, f"{field} must hold finite {what}")
    return array.view(complex)[..., 0] if kind is complex else array


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


def _point(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """u (zero when the params file has none) and B of a params file."""
    g = int(_numbers(params.get("g"), "g", int, ()))
    if g < 1:
        raise InputError("g", "g must be a positive integer")
    B = _numbers(params.get("B"), "B", complex, (g, g))
    if not np.array_equal(B, B.T):
        raise InputError("B", "B must be symmetric: B[i][j] == B[j][i]")
    u = _numbers(params["u"], "u", complex, (g,)) if "u" in params else np.zeros(g, dtype=complex)
    return u, B


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError("argv", message)


@functools.cache
def _flags() -> _Parser:
    """The parser of parse_config, built on first use and then reused:
    parsing leaves it unchanged."""
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
    return parser


def parse_config(argv) -> argparse.Namespace:
    """The flags of argv, with --mu and --sigma read as JSON and `params`
    the object of the params file ({} without --params)."""
    args = _flags().parse_args(argv)

    if not 0 < args.tol < math.inf:
        raise InputError("tol", "tol must be positive and finite")
    for name in ("mu", "sigma"):
        if getattr(args, name) is not None:
            try:
                setattr(args, name, json.loads(getattr(args, name)))
            except json.JSONDecodeError:
                raise InputError(name, f"--{name} must be JSON text")
    args.params = {}
    if args.params_file is not None:
        args.params = _load_params_file(args.params_file, args.command)
    if "B" in COMMANDS[args.command][1] and not args.params:
        raise InputError("params_file", f"{args.command} requires --params")
    return args


# -- command execution ----------------------------------------------------------


def _diag(eps=None, radius=None, iterations=None) -> dict:
    return {"eps": eps, "radius": radius, "iterations": iterations}


def _at_point(body):
    """Wrap the body of a command evaluated at one point (u, B).

    The prologue decodes u and B from the params file and sets eps from
    --tol; body(args, u, B, eps) returns (result, the command's own echoed
    inputs, diagnostics), and the echo is g, u, B, those inputs, then tol.
    """

    def run(args):
        u, B = _point(args.params)
        result, inputs, diagnostics = body(args, u, B, max(EPS_FLOOR, args.tol))
        return result, {"g": len(B), "u": u, "B": B, **inputs, "tol": args.tol}, diagnostics

    return run


@_at_point
def _run_theta(args, u, B, eps):
    sums, zero = PointSums(ThetaPoint(u, B), eps), (0,) * len(B)
    value = sums.table([zero])[zero]
    return {"theta": value}, {}, _diag(eps=eps, radius=sums.radius)


@_at_point
def _run_pmf(args, u, B, eps):
    n = _numbers(args.params.get("n"), "n", int, (len(B),))
    d = DiscreteGaussian(u, B, eps)
    return {"pmf": d.pmf(n)}, {"n": n}, _diag(eps=eps, radius=d.sums.radius)


@_at_point
def _run_moments(args, u, B, eps):
    d = DiscreteGaussian(u, B, eps)
    mean, cov = d.mean_cov()
    return {"mean": mean, "covariance": cov}, {}, _diag(eps=eps, radius=d.sums.radius)


@_at_point
def _run_entropy(args, u, B, eps):
    d = DiscreteGaussian(u, B, eps)
    result = {"entropy": d.entropy(), "branch": "principal"}
    return result, {}, _diag(eps=eps, radius=d.sums.radius)


def _run_fit(args):
    params = args.params
    if "data" in params:
        if any(v is not None for v in (args.mu, args.sigma, params.get("mu"), params.get("sigma"))):
            raise InputError("data", "fit takes data or a target mu and sigma, not both")
        nested = isinstance(params["data"], list) and any(isinstance(x, list) for x in params["data"])
        data = _numbers(params["data"], "data", float, (None, None) if nested else (None,))
        report = fit_from_sample(data, tol=args.tol)
        echo = {"data": data, "tol": args.tol}
    else:
        mu = _numbers(params.get("mu") if args.mu is None else args.mu, "mu", float, (None,))
        sigma = params.get("sigma") if args.sigma is None else args.sigma
        target = MomentData(mu, _numbers(sigma, "sigma", float, (len(mu), len(mu))))
        report = fit(target, tol=args.tol)
        echo = {"mu": target.mu, "sigma": target.sigma, "tol": args.tol}
    result = {
        "u": report.params.u,
        "B": report.params.B,
        "grad_norm": report.grad_norm,
        "objective": report.objective,
        "converged": report.converged,
    }
    return result, echo, _diag(eps=1e-4 * args.tol, iterations=report.iterations)


def _run_sample(args):
    u, B = _point(args.params)
    # the library's test of a real parameter, its error bound to the field
    u, B = (_real(x, functools.partial(InputError, f), f) for f, x in (("u", u), ("B", B)))
    if args.count is None or args.count < 1:
        raise InputError("count", "sample requires --count >= 1")
    p = CanonicalPoint(u, B)
    scfg = SamplerConfig(tail_eps=min(args.tol, 1e-6), seed=args.seed)
    # the radius of the ball about round(B^-1 u) that the draws came from
    sample, radius = _draw(p, args.count, scfg)
    echo = {"g": p.g, "u": u, "B": B, "count": args.count, "seed": args.seed}
    result = {"draws": sample, "rng": RNG_ALGORITHM, "tail_eps": scfg.tail_eps}
    return result, echo, _diag(eps=scfg.tail_eps, radius=radius)


def _run_verify(args):
    checks = verify_checks.run_all(seed=args.seed)
    result = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
    echo = {"seed": args.seed}
    if not result["all_passed"]:
        raise _VerifyFailed(_report(args.command, result, echo, _diag()))
    return result, echo, _diag()


class _VerifyFailed(NumericalFailure):
    """A verify check failed: exit 3, with the whole verify document."""

    def __init__(self, text: str):
        super().__init__("one or more verify checks failed")
        self.text = text


@_at_point
def _run_map(args, u, B, eps):
    if args.d < 2:
        raise InputError("d", "map degree must be at least 2")
    pt = statistical_map(args.d, ThetaPoint(u, B), eps)
    result = {
        "degree": args.d,
        "indices": moment_map_indices(len(B), args.d),
        "coordinates": pt.coords,
    }
    return result, {"d": args.d}, _diag(eps=eps)


def _run_cubic(args):
    u, B = _point(args.params)
    if B.shape != (1, 1):
        raise InputError("g", "cubic is a g = 1 command")
    eps = max(EPS_FLOOR, args.tol)
    coef = cubic_coefficients(B, eps)
    echo = {"g": 1, "B": B, "tol": args.tol}
    result = {name: getattr(coef, name) for name in ("e1", "e2", "e3", "a", "b", "c")}
    if "u" in args.params:
        echo["u"] = u
        result["residuals"] = asdict(verify_cubic(complex(u[0]), complex(B[0, 0]), eps))
    return result, echo, _diag(eps=eps)


def _run_kummer(args):
    _, B = _point(args.params)
    if B.shape != (2, 2):
        raise InputError("g", "kummer is a g = 2 command")
    count = args.count if args.count is not None else 60
    if count < 36:
        raise InputError("count", "kummer needs at least 36 points")
    rng = np.random.Generator(np.random.Philox(args.seed))
    # candidates u = i x + B y, rows (x1, x2, y1, y2) drawn in stream order,
    # each batch exactly the points still missing and mapped by one stacked
    # evaluation; images near the divisor (coordinate 0, theta^2, below
    # 0.2^2 in modulus) are rejected and the others kept, so a rejection
    # costs one more batch of the points it left missing
    coords = np.empty((0, 4), dtype=complex)
    while len(coords) < count:
        draws = rng.uniform(0.0, 1.0, (count - len(coords), 4))
        cand = statistical_map_stack(2, 1j * draws[:, :2] + draws[:, 2:] @ B.T, B, 1e-13)
        coords = np.vstack([coords, cand[np.abs(cand[:, 0]) >= 0.04]])
    fit_result = kummer_quartic_fit(B, coords)
    echo = {"g": 2, "B": B, "count": count, "seed": args.seed}
    result = {
        "residual": fit_result.residual,
        "second_smallest": fit_result.singular_values[-2],
        "coefficients": fit_result.coeffs,
        "points_used": len(coords),
    }
    return result, echo, _diag(eps=1e-13)


def _run_probe(args):
    _, B = _point(args.params)
    report = identifiability_probe(B, trials=args.trials, seed=args.seed)
    echo = {"g": B.shape[0], "B": B, "trials": args.trials, "seed": args.seed}
    return asdict(report), echo, _diag(eps=1e-12)


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


def execute(args: argparse.Namespace) -> int:
    """Run the job of parse_config's namespace and write its JSON document;
    returns the exit code (0 success, 2 input error, 3 numerical failure)."""
    run, _ = COMMANDS[args.command]
    try:
        text, code = _report(args.command, *run(args)), 0
    except (InvalidParameters, ValueError) as exc:
        text, code = _error(exc), 2
    except NumericalFailure as exc:
        text, code = exc.text if isinstance(exc, _VerifyFailed) else _error(exc), 3
    return _write(args.output, text, code)


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
        args = parse_config(argv)
    except InputError as exc:
        return _write(_output_path(argv), _error(exc), 2)
    return execute(args)


if __name__ == "__main__":
    sys.exit(main())
