"""Per-layer spans and counts for one benchmark sample, recorded from outside
the program.

``Tracer.install`` wraps the public functions of every ``conefrac`` module,
plus the artifact writers of ``cli`` and the hot methods named in
``_METHODS``, and re-binds each wrapper in every ``conefrac`` namespace that
holds the original (``cli``, ``extension`` and ``almgren`` import
``assemble``, ``solve_eigs`` and friends at module load).  The scipy
solvers the program reaches through ``scipy.sparse.linalg`` are wrapped in
that namespace, so a ``splu`` call is attributed to ``hardy`` or
``extension`` by its parent span.

Spans stay in memory, aggregated by (name, parent, root); a span's parent is
the innermost open span, its root the outermost.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# hot methods: the frequency analyzer's sphere samples and expression
# evaluation of h
_METHODS = (
    ("extension", "GridField", "sphere_values"),
    ("extension", "ManufacturedField", "sphere_values"),
    ("expressions", "Expression", "eval"),
)
# private helpers that write artifacts
_PRIVATE = (("cli", "_write_csv"), ("cli", "_manifest"))
_SCIPY = ("splu", "eigsh", "cg")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.cg_iters = defaultdict(int)                  # by cg's caller
        self._stack = []  # [name, start, child_time]

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            root = stack[0][0] if stack else name
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                rec = stats[(name, parent, root)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]

        return wrapper

    def _counting_cg(self, cg):
        tracer = self

        @functools.wraps(cg)
        def cg_counted(*args, callback=None, **kwargs):
            caller = tracer._stack[-1][0] if tracer._stack else ""

            def count(xk):
                tracer.cg_iters[caller] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        return cg_counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the loaded ``conefrac`` package; call after importing it."""
        import scipy.sparse.linalg as spla

        import conefrac

        modules = {info.name: importlib.import_module(f"conefrac.{info.name}")
                   for info in pkgutil.iter_modules(conefrac.__path__)}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{short}.{attr}"
        for short, attr in _PRIVATE:
            originals[getattr(modules[short], attr)] = f"{short}.{attr}"

        wrappers = {fn: self.wrap(fn, name) for fn, name in originals.items()}
        for mod in [conefrac, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

        for short, cls_name, meth in _METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(vars(cls)[meth],
                                         f"{short}.{cls_name}.{meth}"))

        for name in _SCIPY:
            fn = self.wrap(getattr(spla, name), f"scipy.{name}")
            if name == "cg":
                # count outside the span, so iterations belong to cg's caller
                fn = self._counting_cg(fn)
            setattr(spla, name, fn)

    # -- queries -----------------------------------------------------------

    def _select(self, name, parent=None, root=None):
        """Aggregates of span ``name`` whose parent starts with ``parent``
        (a module prefix such as ``"hardy."``) and whose root is ``root``."""
        for (n, p, r), rec in self.stats.items():
            if n != name:
                continue
            if parent is not None and not p.startswith(parent):
                continue
            if root is not None and r != root:
                continue
            yield rec

    def calls(self, name, parent=None, root=None) -> int:
        return sum(rec[0] for rec in self._select(name, parent, root))

    def total(self, name, parent=None, root=None) -> float:
        return sum(rec[1] for rec in self._select(name, parent, root))

    def self_time(self, name, parent=None, root=None) -> float:
        return sum(rec[2] for rec in self._select(name, parent, root))

    def table(self) -> list[dict]:
        """Every (name, parent, root) aggregate, for the sample's record."""
        return [{"name": n, "parent": p, "root": r, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (n, p, r), rec in sorted(self.stats.items())]


def wrapper_cost(n: int = 100_000) -> float:
    """Seconds one traced call adds to a call of an empty function."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    t1 = clock()
    for _ in range(n):
        wrapped()
    return max(0.0, (clock() - t1) - (t1 - t0)) / n


GUARD_SPANS = ("sphercap.build_mesh", "sphercap.assemble",
               "hardy.hardy_constant")
ARTIFACT_SPANS = ("cli._write_csv", "cli._manifest", "svgplot.plot_svg",
                  "extension.save_field")
SPHERE_VALUES = ("extension.GridField.sphere_values",
                 "extension.ManufacturedField.sphere_values")


def layer_metrics(tr: Tracer, import_s: float) -> dict:
    """The per-layer metrics of one traced sample, by name."""
    guard = sum(tr.total(n, parent="config.parse_config")
                for n in GUARD_SPANS)
    run = "cli.run_task"
    return {
        "cli.import_s": import_s,
        "config.parse_s": tr.total("config.parse_config") - guard,
        "config.hardy_guard_s": guard,
        "cli.run_task_s": tr.total(run),
        "cli.artifacts_s": sum(tr.total(n) for n in ARTIFACT_SPANS),
        "sphercap.build_mesh_s": tr.total("sphercap.build_mesh"),
        "sphercap.assemble_s": tr.total("sphercap.assemble"),
        "sphercap.assemble_calls": tr.calls("sphercap.assemble"),
        "hardy.schur_s": tr.total("hardy.hardy_constant"),
        "hardy.splu_s": tr.total("scipy.splu", parent="hardy."),
        "hardy.calls": tr.calls("hardy.hardy_constant"),
        "spectral.solve_eigs_s": tr.self_time("spectral.solve_eigs"),
        "spectral.eigsh_s": tr.total("scipy.eigsh",
                                     parent="spectral.solve_eigs"),
        "spectral.hardy_recompute_s": tr.total(
            "hardy.hardy_constant", parent="spectral.solve_eigs"),
        "spectral.hardy_recompute_calls": tr.calls(
            "hardy.hardy_constant", parent="spectral.solve_eigs"),
        "extension.solve_s": tr.self_time("extension.solve_extension"),
        "extension.splu_s": tr.total("scipy.splu", parent="extension."),
        "extension.splu_calls": tr.calls("scipy.splu", parent="extension."),
        "extension.cg_s": tr.total("scipy.cg", parent="extension."),
        "extension.cg_iters": sum(
            n for caller, n in tr.cg_iters.items()
            if caller.startswith("extension.")),
        "almgren.frequency_trace_s": tr.total("almgren.frequency_trace"),
        "almgren.fourier_s": tr.total("almgren.fourier_coeffs"),
        "almgren.beta_s": tr.total("almgren.beta_coefficients"),
        "almgren.pohozaev_s": tr.total("almgren.pohozaev_check"),
        "almgren.sphere_values_calls": sum(
            tr.calls(n, parent="almgren.") for n in SPHERE_VALUES),
        "expressions.eval_calls": tr.calls("expressions.Expression.eval",
                                           root=run),
        "expressions.eval_s": tr.total("expressions.Expression.eval",
                                       root=run),
    }


def unit_of(metric: str) -> str:
    return "count" if metric.endswith(("_calls", "_iters", ".calls")) else "s"


# metrics that must repeat exactly between traced samples and runs
EXACT_COUNTS = ("sphercap.assemble_calls", "hardy.calls",
                "spectral.hardy_recompute_calls", "extension.splu_calls",
                "extension.cg_iters", "almgren.sphere_values_calls",
                "expressions.eval_calls")
