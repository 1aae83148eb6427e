"""One benchmark sample in a fresh process.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [--trace]

Times ``import conefrac.cli``, ``parse_config`` (with its Hardy guard) and
``run_task`` single-threaded, as the command line runs them, then writes
the timings, the peak RSS and the environment to RESULT_JSON.  With
``--trace`` the per-layer spans of ``tracing.Tracer`` are recorded too.
The package must be importable (the runner puts ``src`` on PYTHONPATH).
"""

import json
import resource
import sys
import time


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": None}


def main(argv) -> int:
    config_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]

    t0 = time.perf_counter()
    import conefrac.cli as cli
    import conefrac.config as config
    import_s = time.perf_counter() - t0

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    t1 = time.perf_counter()
    cfg = config.parse_config(text)
    parse_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    cli.run_task(cfg, out_dir, threads=1)
    run_s = time.perf_counter() - t2

    import numpy
    import scipy
    record = {
        "import_s": import_s,
        "parse_s": parse_s,
        "setup_s": import_s + parse_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": _blas()},
    }
    if tracer is not None:
        from tracing import layer_metrics, wrapper_cost
        record["layers"] = layer_metrics(tracer, import_s)
        record["spans"] = tracer.table()
        record["wrapper_cost_s"] = wrapper_cost()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
