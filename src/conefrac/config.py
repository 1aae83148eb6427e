"""Config parsing and validation for the command-line front end.

Every key of the flat INI sections is declared once, in the table ``_KEYS``:
the tasks it applies to, its default, its parser and its check.  Every
violation is collected before reporting, so a bad config fails with the full
list.  Numbers go through the expression parser (so ``pi/2`` works); h and
lid are expression strings, lid in t and theta only.  Parsing solves
nothing: whether lambda lies below the cone's Hardy constant is decided by
the eigen solve on the run's own mesh, bar the full plane's closed form.
"""

from __future__ import annotations

import configparser
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cones import ConeProfile, SphericalCap, cap_of_cone
from .errors import ConfigurationError, ExpressionError
from .expressions import parse_expression
from .params import ProblemParams, hardy_constant_full_space

__all__ = ["RunConfig", "parse_config", "analyzer_radii", "TASKS"]

TASKS = ("eig", "hardy", "scan", "frequency", "solve-ext", "smooth-cone")


def _const(text: str) -> float:
    """Evaluate a constant arithmetic expression (pi allowed)."""
    return float(parse_expression(text).eval({}))


def _int(text: str) -> int:
    value = _const(text)
    if not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _numbers(text: str) -> list[float]:
    values = [_const(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _suggest(key: str, pool) -> str:
    import difflib                  # only a config error needs it
    close = difflib.get_close_matches(key, sorted(pool), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _preset(text: str) -> ConeProfile:
    if text not in ("half", "full"):
        raise ValueError("expected 'half' or 'full'")
    return ConeProfile(full=text == "full")


def analyzer_radii(r0: float, n: int, core_radius: float) -> np.ndarray:
    """The frequency analyzer's n geometric radii up to r0, from 1e-2 or ten
    times the field's core radius (a grid field's rmin) if that is larger."""
    return np.geomspace(max(1e-2, 10.0 * core_radius), r0, n)


def _modes(text: str) -> list[tuple[int, float]]:
    """'j:amplitude, ...' with 1-based j, as 0-based (j, amplitude) pairs."""
    modes = []
    try:
        for part in filter(str.strip, text.split(",")):
            j_text, beta_text = part.split(":")
            j = int(j_text)
            if j < 1:
                raise ValueError(f"mode index {j} must be >= 1")
            modes.append((j - 1, _const(beta_text)))
        if not modes:
            raise ValueError("empty mode list")
    except (ValueError, ExpressionError) as exc:
        raise ValueError(
            f"{exc} (expected 'j:amplitude, ...', 1-based)") from exc
    return modes


# A key's tasks (None: every task), its default text (None: optional, an
# absent key stays None), its parser (raises ValueError or ExpressionError),
# and the check of the parsed value with the message shown when it fails.
_Key = namedtuple("_Key", "tasks default parse check message",
                  defaults=(None, ""))

_FREQ = ("frequency", "solve-ext")

# every config key, in the order parse_config reads and reports them
_KEYS = {
    ("params", "n"): _Key(None, "2", _int, lambda v: v == 2,
                          "the PDE tasks require n = 2"),
    ("params", "s"): _Key(None, "0.5", _const, lambda v: 0.0 < v < 1.0,
                          "s must lie strictly inside (0, 1)"),
    ("params", "lambda"): _Key(None, "0.0", _const),
    ("params", "p"): _Key(None, None, _const, lambda v: v > 0.0,
                          "p must be positive"),
    ("cone", "g_plus"): _Key(None, "0", _const),
    ("cone", "g_minus"): _Key(None, "0", _const),
    ("cone", "preset"): _Key(None, "half", _preset),
    ("mesh", "nt"): _Key(None, "48", _int, lambda v: v >= 4, "need nt >= 4"),
    ("mesh", "ntheta"): _Key(None, "96", _int, lambda v: v >= 4,
                             "need ntheta >= 4"),
    ("mesh", "grading"): _Key(None, "2.0", _const, lambda v: v >= 1.0,
                              "grading must be >= 1"),
    ("mesh", "nr"): _Key(("solve-ext",), "24", _int, lambda v: v >= 5,
                         "need nr >= 5"),
    ("mesh", "rmin"): _Key(("solve-ext",), "1e-3", _const,
                           lambda v: 0.0 < v < 1.0, "rmin must lie in (0, 1)"),
    ("task", "name"): _Key(None, None, str),
    ("task", "k"): _Key(("eig", *_FREQ), "10", _int, lambda v: v >= 1,
                        "k must be >= 1"),
    ("task", "arcs"): _Key(("scan",), "pi/2, pi, 3*pi/2, 2*pi", _numbers),
    ("task", "r0"): _Key(_FREQ, "0.8", _const, lambda v: 0.0 < v <= 1.0,
                         "r0 must lie in (0, 1]"),
    ("task", "nradii"): _Key(_FREQ, "40", _int, lambda v: v >= 8,
                             "need nradii >= 8"),
    ("task", "rlist"): _Key(_FREQ, "0.3, 0.5, 0.7", _numbers,
                            lambda v: all(0.0 < r < 1.0 for r in v),
                            "reference radii must lie in (0, 1)"),
    ("task", "modes"): _Key(("frequency",), "1:1.0", _modes),
    ("task", "h"): _Key(("solve-ext",), None, parse_expression),
    ("task", "lid_mode"): _Key(("solve-ext",), "1", _int, lambda v: v >= 1,
                               "lid_mode is 1-based"),
    ("task", "lid"): _Key(("solve-ext",), None, parse_expression,
                          lambda v: v.variables() <= {"t", "theta"},
                          "lid is an expression in t and theta only"),
    ("task", "n"): _Key(("smooth-cone",), "12", _int, lambda v: v >= 1,
                        "n must be >= 1"),
    ("task", "samples"): _Key(("smooth-cone",), "1000", _int,
                              lambda v: v >= 10, "need samples >= 10"),
}

_SECTIONS = {sec: {k for s, k in _KEYS if s == sec} for sec, _ in _KEYS}


# Rules over more than one key.  Each runs right after the key it is filed
# under is read, sees the values read so far and returns its violations.  It
# may settle a later key, which the loop then does not read.

def _p_floor(vals: dict, cp):
    n, s, p = vals["params", "n"], vals["params", "s"], vals["params", "p"]
    if None not in (n, s, p) and p <= n / (2.0 * s):
        yield f"[params] p = {p} must exceed N/(2s) = {n / (2.0 * s):.6g}"


def _slopes_override_preset(vals: dict, cp):
    if cp.has_option("cone", "g_plus") or cp.has_option("cone", "g_minus"):
        gp, gm = vals["cone", "g_plus"], vals["cone", "g_minus"]
        vals["cone", "preset"] = (None if None in (gp, gm)
                                  else ConeProfile(g_plus=gp, g_minus=gm))
    return ()


def _task_keys_apply(vals: dict, cp):
    task = vals["task", "name"]
    if task is None:
        yield "missing [task] name"
    elif task not in TASKS:
        yield (f"[task] name = {task!r}: expected one of "
               + ", ".join(TASKS) + _suggest(task, TASKS))
    else:
        for section in ("mesh", "task"):
            for key in cp[section] if cp.has_section(section) else ():
                spec = _KEYS.get((section, key))
                if spec and spec.tasks and task not in spec.tasks:
                    yield (f"[{section}] key '{key}' does not apply to task "
                           f"'{task}'")


def _arcs_ordered(vals: dict, cp):
    arcs = vals["task", "arcs"]
    if arcs and any(b - a <= 0 for a, b in zip(arcs, arcs[1:])):
        yield "[task] arcs must be strictly increasing"
    if arcs and (arcs[0] <= 0 or arcs[-1] > 2 * math.pi + 1e-12):
        yield "[task] arcs must lie in (0, 2*pi]"


def _analyzer_range(vals: dict, cp):
    # beta at R reads the analyzer's profiles at R and integrates them from
    # the vertex up to R, so R needs two of the radii at or below it
    r0, n, rlist = (vals["task", k] for k in ("r0", "nradii", "rlist"))
    rmin = vals["mesh", "rmin"] if vals["task", "name"] == "solve-ext" else 0.0
    if None in (r0, n, rmin):
        return
    lo, second = analyzer_radii(r0, n, rmin)[:2]
    if lo >= r0:
        yield (f"[task] r0 = {r0} must exceed the analyzer's smallest radius "
               f"{lo:g}" + (" = 10 * [mesh] rmin" if lo > 1e-2 else ""))
    elif rlist and not all(second <= R <= r0 for R in rlist):
        yield (f"[task] rlist = {rlist}: reference radii must lie in "
               f"[{second:.8g}, {r0}], from the analyzer's second radius "
               "to r0")


def _full_plane_hardy(vals: dict, cp):
    # a closed form, so no solve; filed under [task] k, which only the
    # tasks that check lambda read
    n, s, lam = (vals["params", k] for k in ("n", "s", "lambda"))
    cone = vals["cone", "preset"]
    if None not in (n, s, lam, cone) and cone.full and lam >= (
            bound := hardy_constant_full_space(ProblemParams(N=n, s=s))):
        yield (f"[params] lambda = {lam} is not admissible: the full plane's "
               f"trace-Hardy constant is {bound:.6g} (closed form)")


def _lid_choice(vals: dict, cp):
    mode, k = vals["task", "lid_mode"], vals["task", "k"]
    if cp.has_option("task", "lid") and cp.has_option("task", "lid_mode") \
            and mode is not None:
        vals["task", "lid"] = None
        yield "[task] give either lid or lid_mode, not both"
    if None not in (mode, k) and mode > k:
        yield (f"[task] lid_mode = {mode} exceeds k = {k}, the number of "
               "computed modes")


def _star_shaped(vals: dict, cp):
    n, cone = vals["task", "n"], vals["cone", "preset"]
    if None not in (n, cone) and n < (n0 := max(math.ceil(6.0 * cone.M), 1)):
        yield (f"[task] n = {n} is below the star-shapedness threshold "
               f"ceil(6M) = {n0}")


_RULES = {
    ("params", "p"): _p_floor,
    ("cone", "g_minus"): _slopes_override_preset,
    ("task", "name"): _task_keys_apply,
    ("task", "k"): _full_plane_hardy,
    ("task", "arcs"): _arcs_ordered,
    ("task", "rlist"): _analyzer_range,
    ("task", "lid_mode"): _lid_choice,
    ("task", "samples"): _star_shaped,
}


@dataclass
class RunConfig:
    """Validated run configuration with typed access."""

    task: str
    params: ProblemParams
    cone_spec: ConeProfile
    nt: int
    ntheta: int
    grading: float
    nr: int
    rmin: float
    task_opts: dict
    raw_text: str

    def cap(self) -> SphericalCap:
        return cap_of_cone(self.cone_spec)

    def mesh_keys(self) -> dict:
        """The [mesh] values that apply to the task, by key."""
        return {key: getattr(self, key)
                for (section, key), spec in _KEYS.items() if section == "mesh"
                and (spec.tasks is None or self.task in spec.tasks)}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; a ConfigurationError carries
    every violation found.  Nothing is solved here: lambda's admissibility
    depends on the run's mesh and is decided by ``spectral.solve_eigs``,
    bar the full plane's closed-form constant."""
    violations: list[str] = []
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError([f"config syntax: {exc}"]) from exc

    for section in cp.sections():
        known = _SECTIONS.get(section)
        if known is None:
            violations.append(f"unknown section [{section}]"
                              + _suggest(section, _SECTIONS))
            continue
        violations += [f"unknown key '{key}' in [{section}]"
                       + _suggest(key, known)
                       for key in cp[section] if key not in known]

    vals: dict = {}
    for (section, key), spec in _KEYS.items():
        # [mesh] keys come before the task name: they are read for every
        # task, and _task_keys_apply rejects those set for another task
        if (section, key) in vals or section == "task" and spec.tasks \
                and vals["task", "name"] not in spec.tasks:
            continue
        raw = cp.get(section, key, fallback=spec.default)
        val = None
        try:
            val = None if raw is None else spec.parse(raw)
        except (ExpressionError, ValueError) as exc:
            violations.append(f"[{section}] {key} = {raw!r}: {exc}")
        if val is not None and spec.check and not spec.check(val):
            violations.append(f"[{section}] {key} = {val}: {spec.message}")
            val = None
        vals[section, key] = val
        if (section, key) in _RULES:
            violations += _RULES[section, key](vals, cp)
    if violations:
        raise ConfigurationError(violations)

    mesh = {k: x for (sec, k), x in vals.items() if sec == "mesh"}
    opts = {k: x for (sec, k), x in vals.items() if sec == "task"}
    params = ProblemParams(
        *(vals["params", k] for k in ("n", "s", "lambda", "p")),
        h=opts.pop("h", None))
    return RunConfig(task=opts.pop("name"), params=params,
                     cone_spec=vals["cone", "preset"], **mesh, task_opts=opts,
                     raw_text=text)
