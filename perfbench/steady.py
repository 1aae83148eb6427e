"""Steadiness check: do repeated runs of the same code agree?

    python3 perfbench/steady.py [--workload NAME ...] [--first-seed N]

Runs the benchmark command of BENCHMARK.json in two sets of ten runs per
workload, each run with its own seed, and reports per workload and
end-to-end metric: each set's median, its spread (distance between the
first and third quartile over the median) and the drift of the second
set's median from the first.  A metric is steady when every spread stays
below a third of the metric's bound and the two medians differ, in either
direction, by at most the bound.  Exit code 1 when one is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def _run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: failed samples\n"
                           + proc.stdout[-2000:])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)

    steady = True
    seed = args.first_seed
    for workload in args.workload or names:
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(_run(bench, workload, seed))
                seed += 1
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds, spreads = [], []
            for runs in sets:
                vals = [r[name] for r in runs]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            drift = (meds[1] - meds[0]) / meds[0]
            ok = (abs(drift) <= bound
                  and all(s < bound / 3.0 for s in spreads))
            steady &= ok
            print(f"{workload:11s} {name:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.4f}" for m in meds) + "  spreads "
                  + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  drift {drift:+.3f}  {'ok' if ok else 'NOT STEADY'}",
                  flush=True)
            for runs in sets:
                print("    " + " ".join(f"{r[name]:.4f}" for r in runs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
