"""Config parsing and validation for the command-line front end.

Flat INI sections with typed keys; every violation is collected before
reporting so a bad config fails with the full list, not just the first
problem.  Numeric lists and arc lengths go through the expression parser
(so ``pi/2`` works); perturbation and lid data are expression strings.
Parsing builds no mesh and solves nothing: whether lambda lies below the
cone's Hardy constant is decided once, by the eigen solve on the run's own
mesh.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field as dc_field

from .cones import ConeProfile, SphericalCap, cap_of_cone
from .errors import ConfigurationError, ExpressionError
from .expressions import Expression, parse_expression
from .params import ProblemParams

__all__ = ["RunConfig", "parse_config", "TASKS"]

_TASK_KEYS = {
    "eig": {"name", "k"},
    "hardy": {"name"},
    "scan": {"name", "arcs"},
    "frequency": {"name", "modes", "r0", "nradii", "rlist", "k"},
    "solve-ext": {"name", "h", "lid", "lid_mode", "r0", "nradii", "rlist",
                  "k"},
    "smooth-cone": {"name", "n", "samples"},
}

TASKS = tuple(_TASK_KEYS)

_KNOWN = {
    "params": {"n", "s", "lambda", "p"},
    "cone": {"preset", "g_plus", "g_minus"},
    "mesh": {"nt", "ntheta", "grading", "nr", "rmin"},
    "task": set().union(*_TASK_KEYS.values()),
}

_DEFAULTS = {
    "params": {"n": "2", "s": "0.5", "lambda": "0.0"},
    "cone": {"preset": "half"},
    "mesh": {"nt": "48", "ntheta": "96", "grading": "2.0", "nr": "24",
             "rmin": "1e-3"},
}


def _const(text: str) -> float:
    """Evaluate a constant arithmetic expression (pi allowed)."""
    return float(parse_expression(text).eval({}))


@dataclass
class RunConfig:
    """Validated run configuration with typed access."""

    task: str
    n_dim: int
    s: float
    lam: float
    p: float | None
    cone_spec: ConeProfile
    nt: int
    ntheta: int
    grading: float
    nr: int
    rmin: float
    task_opts: dict = dc_field(default_factory=dict)
    raw_text: str = ""

    def params(self) -> ProblemParams:
        return ProblemParams(N=self.n_dim, s=self.s, lam=self.lam, p=self.p,
                             h=self.task_opts.get("h"))

    def cap(self) -> SphericalCap:
        return cap_of_cone(self.cone_spec)


def _suggest(key: str, pool) -> str:
    close = difflib.get_close_matches(key, sorted(pool), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document.

    Raises ConfigurationError carrying every violation found.  Nothing is
    solved here: lambda's admissibility depends on the run's mesh and is
    decided by ``spectral.solve_eigs``.
    """
    violations: list[str] = []
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError([f"config syntax: {exc}"]) from exc

    for section in cp.sections():
        if section not in _KNOWN:
            violations.append(f"unknown section [{section}]"
                              + _suggest(section, _KNOWN))
            continue
        for key in cp[section]:
            if key not in _KNOWN[section]:
                violations.append(
                    f"unknown key '{key}' in [{section}]"
                    + _suggest(key, _KNOWN[section]))

    def get(section, key, fallback=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return _DEFAULTS.get(section, {}).get(key, fallback)

    def get_number(section, key, caster, check, message, fallback=None):
        raw = get(section, key, fallback)
        if raw is None:
            return None
        try:
            val = caster(_const(raw))
        except (ExpressionError, ValueError) as exc:
            violations.append(f"[{section}] {key} = {raw!r}: {exc}")
            return None
        if check is not None and not check(val):
            violations.append(f"[{section}] {key} = {val}: {message}")
            return None
        return val

    n_dim = get_number("params", "n", int, lambda v: v == 2,
                       "the PDE tasks require n = 2")
    s = get_number("params", "s", float, lambda v: 0.0 < v < 1.0,
                   "s must lie strictly inside (0, 1)")
    lam = get_number("params", "lambda", float, None, "")
    p = None
    if cp.has_option("params", "p"):
        p = get_number("params", "p", float, lambda v: v > 0.0,
                       "p must be positive")
        if p is not None and s is not None and n_dim is not None \
                and p <= n_dim / (2.0 * s):
            violations.append(
                f"[params] p = {p} must exceed N/(2s) = "
                f"{n_dim / (2.0 * s):.6g}")
            p = None

    # cone
    preset = get("cone", "preset") if not (
        cp.has_option("cone", "g_plus") or cp.has_option("cone", "g_minus")) \
        else None
    cone_spec = ConeProfile.half_plane()
    if preset is not None:
        if preset == "full":
            cone_spec = ConeProfile.full_plane()
        elif preset != "half":
            violations.append(
                f"[cone] preset = {preset!r}: expected 'half' or 'full'")
    else:
        gp = get_number("cone", "g_plus", float, None, "", fallback="0")
        gm = get_number("cone", "g_minus", float, None, "", fallback="0")
        if gp is not None and gm is not None:
            cone_spec = ConeProfile(g_plus=gp, g_minus=gm)

    nt = get_number("mesh", "nt", int, lambda v: v >= 4, "need nt >= 4")
    ntheta = get_number("mesh", "ntheta", int, lambda v: v >= 4,
                        "need ntheta >= 4")
    grading = get_number("mesh", "grading", float, lambda v: v >= 1.0,
                         "grading must be >= 1")
    nr = get_number("mesh", "nr", int, lambda v: v >= 5, "need nr >= 5")
    rmin = get_number("mesh", "rmin", float, lambda v: 0.0 < v < 1.0,
                      "rmin must lie in (0, 1)")

    task = get("task", "name")
    task_opts: dict = {}
    if task is None:
        violations.append("missing [task] name")
    elif task not in TASKS:
        violations.append(f"[task] name = {task!r}: expected one of "
                          + ", ".join(TASKS) + _suggest(task, TASKS))
    else:
        allowed = _TASK_KEYS[task]
        for key in cp["task"] if cp.has_section("task") else ():
            if key in _KNOWN["task"] and key not in allowed:
                violations.append(
                    f"[task] key '{key}' does not apply to task '{task}'")

        if task in ("eig", "frequency", "solve-ext"):
            task_opts["k"] = get_number("task", "k", int, lambda v: v >= 1,
                                        "k must be >= 1", fallback="10")
        if task == "scan":
            raw = get("task", "arcs", "pi/2, pi, 3*pi/2, 2*pi")
            try:
                arcs = [_const(part) for part in raw.split(",") if part.strip()]
                if len(arcs) < 1:
                    raise ValueError("empty list")
                if any(b - a <= 0 for a, b in zip(arcs, arcs[1:])):
                    violations.append(
                        "[task] arcs must be strictly increasing")
                if arcs and (arcs[0] <= 0 or arcs[-1] > 2 * math.pi + 1e-12):
                    violations.append(
                        "[task] arcs must lie in (0, 2*pi]")
                task_opts["arcs"] = arcs
            except (ExpressionError, ValueError) as exc:
                violations.append(f"[task] arcs = {raw!r}: {exc}")
        if task in ("frequency", "solve-ext"):
            task_opts["r0"] = get_number(
                "task", "r0", float, lambda v: 0.0 < v <= 1.0,
                "r0 must lie in (0, 1]", fallback="0.8")
            task_opts["nradii"] = get_number(
                "task", "nradii", int, lambda v: v >= 8,
                "need nradii >= 8", fallback="40")
            raw = get("task", "rlist", "0.3, 0.5, 0.7")
            try:
                task_opts["rlist"] = [_const(x) for x in raw.split(",")
                                      if x.strip()]
            except ExpressionError as exc:
                violations.append(f"[task] rlist = {raw!r}: {exc}")
        if task == "frequency":
            raw = get("task", "modes", "1:1.0")
            try:
                modes = []
                for part in raw.split(","):
                    if not part.strip():
                        continue
                    j_text, beta_text = part.split(":")
                    j = int(j_text)
                    if j < 1:
                        raise ValueError(f"mode index {j} must be >= 1")
                    modes.append((j - 1, _const(beta_text)))
                if not modes:
                    raise ValueError("empty mode list")
                task_opts["modes"] = modes
            except (ValueError, ExpressionError) as exc:
                violations.append(f"[task] modes = {raw!r}: {exc} "
                                  "(expected 'j:amplitude, ...', 1-based)")
        if task == "solve-ext":
            raw_h = get("task", "h")
            if raw_h is not None:
                try:
                    task_opts["h"] = parse_expression(raw_h)
                except ExpressionError as exc:
                    violations.append(f"[task] h = {raw_h!r}: {exc}")
            raw_lid = get("task", "lid")
            lid_mode = get_number("task", "lid_mode", int,
                                  lambda v: v >= 1,
                                  "lid_mode is 1-based") \
                if cp.has_option("task", "lid_mode") else None
            if raw_lid is not None and lid_mode is not None:
                violations.append(
                    "[task] give either lid or lid_mode, not both")
            elif raw_lid is not None:
                try:
                    task_opts["lid"] = parse_expression(raw_lid)
                except ExpressionError as exc:
                    violations.append(f"[task] lid = {raw_lid!r}: {exc}")
            elif lid_mode is not None:
                task_opts["lid_mode"] = lid_mode - 1
            else:
                task_opts["lid_mode"] = 0
        if task == "smooth-cone":
            task_opts["n"] = get_number("task", "n", int, lambda v: v >= 1,
                                        "n must be >= 1", fallback="12")
            task_opts["samples"] = get_number(
                "task", "samples", int, lambda v: v >= 10,
                "need samples >= 10", fallback="1000")
            n0 = max(math.ceil(6.0 * cone_spec.M), 1)
            if task_opts["n"] is not None and task_opts["n"] < n0:
                violations.append(
                    f"[task] n = {task_opts['n']} is below the "
                    f"star-shapedness threshold ceil(6M) = {n0}")

    if violations:
        raise ConfigurationError(violations)

    return RunConfig(task=task, n_dim=n_dim, s=s, lam=lam, p=p,
                     cone_spec=cone_spec, nt=nt, ntheta=ntheta,
                     grading=grading, nr=nr, rmin=rmin, task_opts=task_opts,
                     raw_text=text)
