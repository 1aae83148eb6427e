"""End-to-end benchmark of the conefrac command-line tasks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-reference

Run from the repository root.  One sample is one fresh child process
(``child.py``) that imports ``conefrac.cli``, parses the workload's config
and runs its task single-threaded; samples run one at a time until the
next one would end after ``--seconds``.  Every sample's artifacts are
checked (acceptance gates, the stored reference values of the seed's
variant, byte-identity with the run's first sample).  The last line of
standard output is the JSON result; the lines before it say what ran.

With ``--trace 1`` every second sample runs traced and the result carries
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from probe import PROBE_REF_S, probe
from tracing import EXACT_COUNTS, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
HARD_LIMIT_S = 170.0  # a run must end well inside the 180 s allowance


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """BLAS threads of this process (the probe) and its children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())


def _child_env(tmp: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


def _commit() -> str | None:
    """The checked-out commit when the tree is a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conefrac").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_sample(config: Path, out: Path, traced: bool,
               timeout: float) -> tuple[dict | None, str]:
    """One child process; returns (its record, error text)."""
    result = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out),
           str(result)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=_child_env(OUT), timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(result.read_text(encoding="utf-8")), ""


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs >= 11 samples, have {n})"
    ordered = sorted(values)
    return (f"p{100.0 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s "
            f"({n} samples)")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    variant = workloads.variant_of(seed)
    inputs = workloads.inputs(workload, variant)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = reference[workload][str(variant)]

    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.ini"
    config.write_text(workloads.config_text(workload, variant),
                      encoding="utf-8")

    start = time.perf_counter()
    samples, layers, failures, durations = [], [], [], []
    probes = [probe()]  # probes[i] and probes[i + 1] bracket sample i
    first_digest = None
    env = None
    attempted = 0
    while True:
        elapsed = time.perf_counter() - start
        # a traced run also needs one untraced sample for the overhead
        if (attempted >= (2 if trace else 1)
                and elapsed + statistics.median(durations) > seconds):
            break
        # odd samples: the first, cold one stays untraced
        traced = trace and attempted % 2 == 1
        out = work / f"sample{attempted:03d}"
        attempted += 1
        t0 = time.perf_counter()
        rec, err = run_sample(config, out, traced,
                              timeout=max(5.0, HARD_LIMIT_S - elapsed))
        probes.append(probe())
        durations.append(time.perf_counter() - t0)
        if rec is None:
            failures.append(f"sample {attempted - 1}: {err}")
            break
        rec["probe_s"] = 0.5 * (probes[-2] + probes[-1])
        env = env or rec["env"]
        try:
            vals = checks.headline(workload, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"sample {attempted - 1}: unreadable "
                            f"artifacts: {exc!r}")
            continue
        bad = (checks.gate_failures(workload, vals)
               + checks.reference_failures(vals, ref))
        dig = checks.digest(out)
        first_digest = first_digest or dig
        if dig != first_digest:
            bad.append("artifacts differ from the run's first sample")
        if bad:
            failures.append(f"sample {attempted - 1}: " + "; ".join(bad))
            continue
        rec["values"] = vals
        rec["wall_norm_s"] = rec["run_s"] * PROBE_REF_S / rec["probe_s"]
        rec["setup_norm_s"] = rec["setup_s"] * PROBE_REF_S / rec["probe_s"]
        print(f"sample {attempted - 1}{' traced' if traced else ''}: "
              f"setup {rec['setup_s']:.4f} s, run {rec['run_s']:.4f} s, "
              f"probe {rec['probe_s']:.4f} s, "
              f"rss {rec['peak_rss_mb']:.1f} MB", flush=True)
        (layers if traced else samples).append(rec)
        if attempted > 1:
            shutil.rmtree(out)

    failed = len(failures)
    if traced_counts_differ(layers):
        failures.append("per-layer counts differ between traced samples: "
                        + json.dumps([{k: s["layers"][k] for k in
                                       EXACT_COUNTS} for s in layers]))

    record = {"workload": workload, "seed": seed, "variant": variant,
              "inputs": inputs, "commit": _commit(),
              "source_sha256": _source_digest(), "nproc": _nproc(),
              "blas_threads": _nproc(), "python": platform.python_version(),
              **(env or {})}
    print("env " + json.dumps(record, sort_keys=True))
    for line in failures:
        print("FAIL " + line)
    timed = samples + layers
    if not samples or (trace and not layers):
        print("too few samples completed for the metrics", file=sys.stderr)
        return 1

    med = statistics.median
    print(f"samples: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.3f}")
    print(f"result_err {med(s['values']['result_err'] for s in timed):.6e}")
    if trace:
        units = {k: unit_of(k) for k in layers[0]["layers"]}
        # counts repeat exactly, so report one as measured, not a mean
        metrics = {k: (med if units[k] == "s" else statistics.median_low)(
            [s["layers"][k] for s in layers]) for k in units}
        # information only: the two medians differ mostly by machine noise,
        # so the overhead is also estimated from the wrapped call count
        calls = med(sum(r["calls"] for r in s["spans"]) for s in layers)
        cost = med(s["wrapper_cost_s"] for s in layers)
        print(f"tracing overhead: run_task normalized "
              f"{med(s['wall_norm_s'] for s in layers):.4f} s traced vs "
              f"{med(s['wall_norm_s'] for s in samples):.4f} s untraced; "
              f"{calls:.0f} wrapped calls x {cost * 1e6:.2f} us = "
              f"{calls * cost:.4f} s")
    else:
        runs = [s["run_s"] for s in samples]
        print(f"run_task wall: median {med(runs):.4f} s, "
              f"tail {_tail(runs)}")
        print(f"setup wall: median "
              f"{med(s['setup_s'] for s in samples):.4f} s")
        metrics = {"wall_norm_s": med(s["wall_norm_s"] for s in samples),
                   # normalized like wall_norm_s
                   "setup_s": med(s["setup_norm_s"] for s in samples),
                   "peak_rss_mb": med(s["peak_rss_mb"] for s in samples)}
        units = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for k, v in metrics.items():
        print(f"  {k:34s} {v:14.6f} {units[k]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def traced_counts_differ(layers: list[dict]) -> bool:
    seen = {tuple(s["layers"][k] for k in EXACT_COUNTS) for s in layers}
    return len(seen) > 1


def make_reference() -> int:
    """Run every variant of every workload once and store its headline
    values; refuses to store a variant that fails its gates."""
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for variant in range(workloads.VARIANTS):
            work = OUT / "reference" / workload / str(variant)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            config = work / "run.ini"
            config.write_text(workloads.config_text(workload, variant),
                              encoding="utf-8")
            rec, err = run_sample(config, work / "out", False,
                                  timeout=HARD_LIMIT_S)
            if rec is None:
                print(f"{workload} variant {variant}: {err}",
                      file=sys.stderr)
                return 1
            vals = checks.headline(workload, work / "out")
            bad = checks.gate_failures(workload, vals)
            if bad:
                print(f"{workload} variant {variant}: {bad}",
                      file=sys.stderr)
                return 1
            table[workload][str(variant)] = checks.reference_entry(vals)
            print(f"{workload} {variant}: result_err "
                  f"{vals['result_err']:.3e}", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "conefrac" / "cli.py").is_file():
        print(f"conefrac sources not found under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
