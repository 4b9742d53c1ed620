"""Run one benchmark workload against the `thetagauss` sources of this tree.

    python3 perfbench/run.py --workload stats_g4 --seed 1 --seconds 25 --trace 0

The library is imported from `src/` next to this directory.  Each run is
one process, a closed loop of operations back to back from a single
thread; it runs whole rounds of the workload's parameter list.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs
untraced and traced rounds in turn, half the time each, and prints the
per-layer metrics.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the environment and the reference-loop timings.
A full record of the run goes to perfbench/out/runs/, the spans of a
traced run to perfbench/out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9  # fresh processes whose median set-up time is setup_s
MIN_OPS = 110  # enough operations that at least ten lie beyond p90
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    """Import thetagauss (and its CLI) from this tree's sources only."""
    if not (SRC / "thetagauss" / "__init__.py").is_file():
        sys.exit(f"run.py: no thetagauss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thetagauss
    import thetagauss.cli

    if Path(thetagauss.__file__).resolve().parent != SRC / "thetagauss":
        sys.exit(f"run.py: imported thetagauss from {thetagauss.__file__}, not {SRC}")
    return thetagauss


def _workdir(workload: str) -> Path:
    path = OUT / "work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prepare(wl, params, workdir: Path):
    if hasattr(wl, "prepare"):
        wl.prepare(params, str(workdir))


def setup_probe(args) -> int:
    """Time one cold start: import the library, then the first operation."""
    t0 = time.perf_counter()
    tg = _import_library()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    workdir = _workdir(wl.name)
    try:
        _prepare(wl, params, workdir)
        t2 = time.perf_counter()
        wl.run(tg, params[0], defaultdict(float))
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


def _probe_setup(args) -> float:
    """Set-up time of one fresh process (see setup_probe)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run.py: set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def reference_loop() -> dict:
    """Fixed pure-Python and numpy work, timed; its drift between runs is
    the machine's, not the program's."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    t1 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    t2 = time.perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


class Loop:
    """Timed rounds of one workload, back to back.

    A round runs the whole parameter list once; the wall and CPU time of
    each round and the latency of each operation in it are kept, with the
    failures, a digest of every output and the workload's counters."""

    def __init__(self, wl, tg, params, rec=None):
        self.wl, self.tg, self.params = wl, tg, params
        self.run = wl.run if rec is None else rec.operation(wl.run)
        self.rounds: list[tuple[float, float, list[float]]] = []  # (wall_s, cpu_s, latencies)
        self.failures: list[str] = []
        self.digests = [[] for _ in params]
        self.counters = defaultdict(float)

    def round(self):
        latencies = []
        c0, t0 = time.process_time(), time.perf_counter()
        for i, prm in enumerate(self.params):
            start = time.perf_counter()
            try:
                out = self.run(self.tg, prm, self.counters)
            except self.tg.errors.ThetaGaussError as exc:
                self.failures.append(f"param {i}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            self.digests[i].append(self.wl.digest(out))
            del out
        self.rounds.append((time.perf_counter() - t0, time.process_time() - c0, latencies))

    def wall_s(self) -> float:
        return sum(r[0] for r in self.rounds)

    def ops(self) -> int:
        return sum(len(r[2]) for r in self.rounds)

    def attempted(self) -> int:
        return self.ops() + len(self.failures)

    def totals(self) -> tuple[float, float, list[float]]:
        """Wall time, CPU time and operation latencies of all rounds."""
        return (
            self.wall_s(),
            sum(r[1] for r in self.rounds),
            [x for r in self.rounds for x in r[2]],
        )


def timed_loop(wl, tg, params, seconds: float, probe) -> tuple[Loop, list[float]]:
    """Whole rounds until `seconds` of wall time and MIN_OPS operations
    have passed, with the SETUP_PROBES set-up probes spread over the run.

    A probe is due at every seconds / (SETUP_PROBES - 1) of loop time and
    runs between rounds; those not yet run when the loop ends run after it.
    setup_s is then sampled over the same stretch of time as the loop's
    metrics, not in one short stretch before it, so a slow spell of the
    machine weighs on both alike."""
    loop = Loop(wl, tg, params)
    setup: list[float] = []
    step = seconds / (SETUP_PROBES - 1)
    while loop.wall_s() < seconds or loop.attempted() < MIN_OPS:
        while len(setup) < SETUP_PROBES and loop.wall_s() >= len(setup) * step:
            setup.append(probe())
        loop.round()
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return loop, setup


def check_outputs(wl, tg, params, loops) -> list[str]:
    """Run each parameter once more, untimed, check that output with the
    independent oracles, and require every timed output of the same
    parameter to match it."""
    import numpy as np
    from workloads import CheckFailed

    problems = []
    for i, prm in enumerate(params):
        try:
            out = wl.run(tg, prm, defaultdict(float))
        except tg.errors.ThetaGaussError as exc:
            if any(loop.digests[i] for loop in loops):
                problems.append(f"param {i}: check run raised {type(exc).__name__}: {exc}")
            continue
        try:
            wl.check(tg, prm, out)
        except (CheckFailed, KeyError, ValueError) as exc:
            problems.append(f"param {i}: {exc}")
        ref = wl.digest(out)
        for loop in loops:
            for d in loop.digests[i]:
                if not np.allclose(d, ref, rtol=1e-9, atol=1e-12):
                    problems.append(f"param {i}: a timed output differs from the checked one")
                    break
    return problems


def _quantiles(latencies: list[float]) -> tuple[float, float]:
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    wall, cpu, lat = loop.totals()
    p50, p90 = _quantiles(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "cpu_ms_per_op": (cpu * 1e3 / len(lat), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(plain: Loop, traced: Loop, rec) -> dict:
    from spans import summarize

    ops = traced.ops()
    s = summarize(rec.spans, ops)
    calls, self_ms = s["calls"], s["self_ms"]

    def c(name):
        return (calls.get(name, 0.0), "count/op")

    def ms(name):
        return (self_ms.get(name, 0.0), "ms/op")

    dg = sum(v for k, v in self_ms.items() if k.startswith("distribution.DiscreteGaussian."))
    overhead = _quantiles(traced.totals()[2])[0] - _quantiles(plain.totals()[2])[0]
    return {
        "engine.truncation_radius.calls": c("engine.truncation_radius"),
        "engine.truncation_radius.self_ms": ms("engine.truncation_radius"),
        "engine.lattice_points.calls": c("engine.lattice_points"),
        "engine.lattice_points.distinct": (float(len(rec.lattice_keys)), "count"),
        # with no cache in the engine, every call enumerates
        "engine.lattice_points.cold": (
            (calls.get("engine.lattice_points", 0.0) if rec.lattice_misses is None
             else rec.lattice_misses / ops),
            "count/op",
        ),
        "engine.lattice_points.self_ms": ms("engine.lattice_points"),
        "engine.points_summed": (s["points_summed"], "count/op"),
        "engine.monomial_terms": (s["monomial_terms"], "count/op"),
        "engine.theta.self_ms": ms("engine.theta"),
        "engine.theta_du_many.calls": c("engine.theta_du_many"),
        "engine.theta_du_many.self_ms": ms("engine.theta_du_many"),
        "distribution.moments_to_cumulants.calls": c("distribution.moments_to_cumulants"),
        "distribution.moments_to_cumulants.self_ms": ms("distribution.moments_to_cumulants"),
        "distribution.DiscreteGaussian.self_ms": (dg, "ms/op"),
        "fitting.fit.self_ms": ms("fitting.fit"),
        "fitting.newton_iterations": (s["newton_iterations"], "count/op"),
        "fitting.moment_evals": (s["moment_evals"], "count/op"),
        "sampler.draw.self_ms": ms("sampler.draw"),
        "sampler.chi_square.self_ms": ms("sampler.chi_square"),
        "sampler.support_points": (s["support_points"], "count/op"),
        "geometry.find_theta_zero.self_ms": ms("geometry.find_theta_zero"),
        "geometry.find_theta_zero.theta_calls": (s["zero_theta_calls"], "count/op"),
        "geometry.statistical_map.self_ms": ms("geometry.statistical_map"),
        "geometry.kummer_quartic_fit.self_ms": ms("geometry.kummer_quartic_fit"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.output_bytes": (traced.counters["cli.output_bytes"] / ops, "B/op"),
        "trace.overhead_ms_per_op": (overhead * 1e3, "ms"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return setup_probe(args)
    if not (SRC / "thetagauss" / "__init__.py").is_file():
        sys.exit(f"run.py: no thetagauss sources under {SRC}")
    from spans import Installed, Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    setup: list[float] = []

    tg = _import_library()
    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    workdir = _workdir(wl.name)
    try:
        _prepare(wl, params, workdir)
        wl.run(tg, params[0], defaultdict(float))  # cold operation, fills the caches
        reference = {"before": reference_loop()}
        rec = None
        if args.trace:
            # a warm-up round, then untraced and traced rounds in turn, so
            # that neither half pays for cold caches or a slow spell alone
            for prm in params:
                wl.run(tg, prm, defaultdict(float))
            rec = Recorder()
            plain, traced = Loop(wl, tg, params), Loop(wl, tg, params, rec)
            while min(plain.wall_s(), traced.wall_s()) < args.seconds / 2:
                plain.round()
                with Installed(tg, rec):
                    traced.round()
            loops = [plain, traced]
            metrics = per_layer(plain, traced, rec)
        else:
            loop, setup = timed_loop(wl, tg, params, args.seconds, lambda: _probe_setup(args))
            loops = [loop]
            metrics = end_to_end(loop, setup)
        reference["after"] = reference_loop()
        t_check = time.perf_counter()
        problems = check_outputs(wl, tg, params, loops)
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted() for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    for line in failures + problems:
        sys.stderr.write(f"run.py: {line}\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "reference": reference,
        "setup_probes_s": setup,
        "ops": [lp.ops() for lp in loops],
        "check_s": check_s,
    }
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs" / f"{tag}.json", "w", encoding="utf-8") as fh:
        rounds = [[{"wall_s": w, "cpu_s": c, "latencies_s": lat} for w, c, lat in lp.rounds] for lp in loops]
        json.dump(
            {**info, "problems": problems, "failures": failures, "result": result, "rounds": rounds},
            fh,
        )
    if rec is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        rec.dump(str(OUT / "traces" / f"{tag}.jsonl"))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
