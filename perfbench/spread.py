"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --runs 10 --first-seed 100 --out perfbench/baseline.json

For every workload (or those given with --workload) this runs
`perfbench/run.py --trace 0` once per seed, seeds first-seed, first-seed+1,
..., and reports per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread
(q3 - q1) / median and the bound from BENCHMARK.json. A spread above
its bound (setup_s excepted) makes the exit code 1. With --out, the
summary is written as JSON together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running benchmark
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for name in names:
        samples: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            last = json.loads(res.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            if res.returncode != 0:
                ok = False
                print(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
            for metric, m in last["metrics"].items():
                samples.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, values in samples.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            within = metric == "setup_s" or spread <= bounds[metric]
            ok &= within
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "n": len(values), "values": values}
            print(f"{name:14s} {metric:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[metric]:.2f}  {'ok' if within else 'WIDE'}")
        summary["workloads"][name] = {"failed_ops": failed, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                                      "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
