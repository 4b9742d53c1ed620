"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --seed0 1

Every workload of BENCHMARK.json runs for its run_seconds; run i uses
seed SEED0 + i, and the order of the workloads alternates between runs.
For each end-to-end metric of each workload it prints the median, the
quartiles (statistics.quantiles, n = 4) and the spread, which is the
distance between the quartiles as a share of the median, against the
metric's bound in BENCHMARK.json.  A metric whose spread exceeds its bound
is marked NOT STEADY and the command exits with 1: a change of the full
bound could not be told from noise.  It also reports the share of failed
operations and the median of the reference-loop timings each run
records, so a slow machine can be told apart from a slow program.  The
full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)

    records = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w,
                "--seed", str(args.seed0 + i), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                sys.exit(f"steady.py: {w} seed {args.seed0 + i} exited with {proc.returncode}")
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            records[w].append({"info": info, "result": result})
            print(f"run {i} {w}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    report = {}
    for w, recs in records.items():
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            med, q1, q3, spread = _spread(values)
            steady = spread < m["bound"]
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "steady": steady, "values": values,
            }
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in recs}
        ref = {
            k: _spread([r["info"]["reference"][when][k] for r in recs for when in ("before", "after")])
            for k in ("python_ms", "numpy_ms")
        }
        report[w] = {
            "metrics": rows,
            "all_correct": all(r["result"]["correct"] for r in recs),
            "failed_shares": sorted(shares),
            "reference": {k: {"median": v[0], "spread": v[3]} for k, v in ref.items()},
        }

    print(f"\n{'workload':22} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, rep in report.items():
        for name, r in rep["metrics"].items():
            mark = "" if r["steady"] else "  NOT STEADY"
            print(f"{w:22} {name:16} {r['median']:12.4f} {r['q1']:12.4f} {r['q3']:12.4f} "
                  f"{r['spread']:7.3f} {r['bound']:6.2f}{mark}")
        ref = rep["reference"]
        print(f"{w:22} correct={rep['all_correct']} failed shares={rep['failed_shares']} "
              f"reference python {ref['python_ms']['median']:.1f} ms "
              f"(spread {ref['python_ms']['spread']:.3f}), numpy {ref['numpy_ms']['median']:.1f} ms "
              f"(spread {ref['numpy_ms']['spread']:.3f})")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    record = {"args": vars(args), "run_seconds": spec["run_seconds"], "report": report}
    path.write_text(json.dumps(record, indent=1))
    print(f"\nrecord: {path.relative_to(ROOT)}")
    ok = all(
        rep["all_correct"] and len(rep["failed_shares"]) == 1
        and all(r["steady"] for r in rep["metrics"].values())
        for rep in report.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
