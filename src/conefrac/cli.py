"""Command-line front end.

    conefrac <task> --config path [--out dir] [--mesh-level L]

Every run writes its artifacts (CSV / JSON / SVG, plus the binary field for
the extension task) into the output directory together with a manifest that
records the config hash, resolved parameters, mesh sizes, tolerances and
library versions.  Every task runs on one thread, and its outputs are
deterministic: no timestamps, stable float formatting, fixed iteration
orders, so a rerun writes the same bytes.

Exit codes: 0 success, 2 config error (an inadmissible lambda or k, a cap
the mesh does not resolve, a lid in x1, x2 or r, and reference radii
outside the analyzer's radii included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .almgren import (beta_coefficients, fourier_coeffs, frequency_trace,
                      pohozaev_check)
from .cones import (ApproxDomain, SmoothedCone, smoothing_defect,
                    smoothing_profile, starshape_margin)
from .config import RunConfig, analyzer_radii, parse_config
from .errors import ConfigurationError, ConefracError
from .extension import (CG_TOL, build_halfball_grid, manufactured_field,
                        save_field, solve_extension)
from .hardy import hardy_constant_richardson, hardy_scan
from .params import hardy_constant_full_space
from .spectral import MULTIPLICITY_RTOL, solve_eigs
from .sphercap import build_mesh
from .svgplot import plot_svg

_Result = tuple[list[str], dict]       # a task's outputs and manifest notes


def _write_csv(path: Path, header, rows) -> None:
    """Floats in round-trip format, for reproducible CSV bytes."""
    lines = [",".join(header)] + [
        ",".join([format(v, ".17g") if isinstance(v, float) else str(v)
                  for v in row]) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_hardy_csv(path: Path, arcs, results) -> None:
    _write_csv(path, ["arc_length", "lambda_star", "mesh_level",
                      "richardson_estimate"],
               [(float(a), r.lambda_star,
                 f"{r.mesh_level[0]}x{r.mesh_level[1]}", r.richardson)
                for a, r in zip(arcs, results)])


def _manifest(out: Path, cfg: RunConfig, outputs, notes: dict) -> None:
    payload = {
        "config_sha256": hashlib.sha256(
            cfg.raw_text.encode("utf-8")).hexdigest(),
        "task": cfg.task,
        "params": {"N": cfg.params.N, "s": cfg.params.s,
                   "lambda": cfg.params.lam, "p": cfg.params.p},
        "cone": asdict(cfg.cone_spec),
        "mesh": cfg.mesh_keys(),
        "tolerances": {"cg_tol": CG_TOL,
                       "eig_group_rtol": MULTIPLICITY_RTOL},
        "versions": {"conefrac": __version__,
                     "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "outputs": sorted(outputs),
        "notes": notes,
    }
    (out / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _eigen_notes(es) -> dict:
    """How the eigen solve ran: its path, Lanczos shift, step count, full
    reorthogonalization sweeps and largest residual, the Hardy constant it
    checked lam against, its closed-form full-circle floor and the margin
    lam / Lambda (all None when lam <= 0)."""
    lam_star = es.hardy_lambda
    floor = None if lam_star is None else hardy_constant_full_space(es.params)
    return {"eigen_path": es.eigen_path, "eigen_shift": es.shift,
            "lanczos_steps": es.lanczos_steps,
            "lanczos_reorths": es.lanczos_reorths,
            "lanczos_residual": es.lanczos_residual,
            "hardy_lambda": lam_star, "hardy_floor": floor,
            "lambda_margin": None if lam_star is None else es.lam / lam_star}


def _eigen_system(cfg: RunConfig, k: int):
    """The run's mesh and its k lowest eigenpairs."""
    mesh = build_mesh(cfg.nt, cfg.ntheta, cfg.params.s, cfg.cap(), cfg.grading)
    return solve_eigs(mesh, cfg.params, k=k)


def _scaled(cfg: RunConfig, level: int) -> RunConfig:
    if level < 0:
        raise ConfigurationError([f"--mesh-level must be >= 0, got {level}"])
    f = 2 ** level
    return replace(cfg, nt=cfg.nt * f, ntheta=cfg.ntheta * f, nr=cfg.nr * f)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _task_eig(cfg: RunConfig, out: Path) -> _Result:
    es = _eigen_system(cfg, cfg.task_opts["k"])
    rows = [(j + 1, float(es.mu[j]), float(es.gamma[j]), int(es.group[j]))
            for j in range(es.k)]
    _write_csv(out / "eig.csv", ["j", "mu", "gamma", "multiplicity_group"],
               rows)
    plot_svg(out / "eig_ladder.svg", range(1, es.k + 1), es.mu, "mu_j",
             xlabel="j", ylabel="mu", title="eigenvalue ladder")
    return ["eig.csv", "eig_ladder.svg"], _eigen_notes(es)


def _task_hardy(cfg: RunConfig, out: Path) -> _Result:
    res = hardy_constant_richardson(cfg.params, cfg.cap(), cfg.nt, cfg.ntheta,
                                    cfg.grading)
    _write_hardy_csv(out / "hardy.csv", [cfg.cap().length], [res])
    return ["hardy.csv"], {}


def _task_scan(cfg: RunConfig, out: Path) -> _Result:
    arcs = cfg.task_opts["arcs"]
    results = hardy_scan(arcs, cfg.params, cfg.nt, cfg.ntheta, cfg.grading)
    _write_hardy_csv(out / "scan.csv", arcs, results)
    plot_svg(out / "scan_lambda.svg", arcs,
             [r.lambda_star for r in results], "Lambda",
             xlabel="arc length", ylabel="Lambda",
             title="Hardy constant vs cap size")
    return ["scan.csv", "scan_lambda.svg"], {}


def _frequency_outputs(cfg: RunConfig, out: Path, fld) -> list[str]:
    radii = analyzer_radii(cfg.task_opts["r0"], cfg.task_opts["nradii"],
                           fld.core_radius)
    trace = frequency_trace(fld, radii)
    _write_csv(out / "frequency.csv", ["r", "H", "D", "Ncal"],
               np.array([radii, trace.H, trace.D, trace.Ncal]).T.tolist())
    plot_svg(out / "frequency_ncal.svg", radii, trace.Ncal, "N(r)",
             xlabel="r", ylabel="N", logx=True,
             title="Almgren frequency")

    ft, es = fourier_coeffs(fld, radii), fld.es
    _write_csv(out / "fourier.csv", ["tau", "j", "phi_j", "Upsilon_j"],
               [(tau, j + 1, phi, ups) for tau, phis, upss in zip(
                   radii.tolist(), ft.phi.T.tolist(), ft.ups.T.tolist())
                for j, phi, ups in zip(ft.modes.tolist(), phis, upss)])

    # dominant group at the smallest radius, amplitudes of its modes only
    # at the configured reference radii
    j0 = int(np.argmax(np.abs(ft.phi[:, 0])))
    gamma = float(es.gamma[j0])
    members = es.group_members(j0)
    # the blow-up U(tau z) / sqrt(H(tau)) at the two smallest radii,
    # projected off j0's group, and its log-slope between them
    off = es.group != es.group[j0]
    blowup = [math.sqrt(float(ft.phi[off, i] @ ft.phi[off, i]) / trace.H[i])
              for i in (0, 1)]
    blowup_rate = (math.log(blowup[1] / blowup[0])
                   / math.log(radii[1] / radii[0]) if min(blowup) else None)
    group = replace(ft, modes=members, phi=ft.phi[members],
                    ups=ft.ups[members])
    rlist = cfg.task_opts["rlist"]
    beta_by_R = {R: beta_coefficients(group, gamma, R) for R in rlist}
    beta_ref = beta_by_R[rlist[len(rlist) // 2]]
    spreads = []
    for pos in range(len(members)):
        vals = [beta_by_R[R][pos] for R in rlist]
        ref = max(abs(v) for v in vals)
        if ref > 0:
            spreads.append((max(vals) - min(vals)) / ref)
    summary = {
        "gamma_hat": trace.gamma_hat,
        "gamma_eigen": gamma,
        "j0": j0 + 1,
        "multiplicity_group": [int(m) + 1 for m in members],
        "beta": {str(int(m) + 1): float(beta_ref[pos])
                 for pos, m in enumerate(members)},
        "betah_R_spread": max(spreads) if spreads else 0.0,
        "blowup_off_group": blowup[0],
        "blowup_rate": blowup_rate,
        "fit": {"exponent": trace.fit_exponent,
                "coefficient": trace.fit_coefficient,
                "fallback": trace.fit_fallback},
        "pohozaev": [],
    }
    r_poho = np.linspace(0.3, 0.7, 5)
    for r, rep in zip(r_poho, pohozaev_check(fld, r_poho)):
        summary["pohozaev"].append({
            "r": float(r), "lhs": rep.lhs, "rhs": rep.rhs,
            "satisfied": bool(rep.satisfied),
            "green_residual": rep.green_residual})
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return ["frequency.csv", "frequency_ncal.svg", "fourier.csv",
            "summary.json"]


def _task_frequency(cfg: RunConfig, out: Path) -> _Result:
    es = _eigen_system(cfg, max(cfg.task_opts["k"], max(
        j for j, _ in cfg.task_opts["modes"]) + 1))
    fld = manufactured_field(es, cfg.task_opts["modes"])
    return _frequency_outputs(cfg, out, fld), _eigen_notes(es)


def _task_solve_ext(cfg: RunConfig, out: Path) -> _Result:
    es = _eigen_system(cfg, cfg.task_opts["k"])
    grid = build_halfball_grid(cfg.nr, cfg.rmin, es.mesh)

    lid_expr = cfg.task_opts["lid"]
    if lid_expr is not None:
        tgrid = np.repeat(es.mesh.t_nodes, es.mesh.ntheta)
        thgrid = np.tile(es.mesh.theta_nodes, es.mesh.nt)
        lid = np.asarray(lid_expr.eval({"t": tgrid, "theta": thgrid})
                         * np.ones_like(tgrid))
        lid_note = f"expression: {lid_expr.to_string()}"
    else:
        mode = cfg.task_opts["lid_mode"]
        lid = es.vectors[mode - 1]
        lid_note = f"eigenmode {mode} trace"

    fld = solve_extension(grid, cfg.params, lid, es=es)
    save_field(out / "field.bin", fld)
    outputs = _frequency_outputs(cfg, out, fld)
    meta = fld.meta
    return ["field.bin"] + outputs, {"lid_choice": lid_note,
                                     "inner_mode": meta["inner_mode"],
                                     "cg_iters": meta["cg_iters"],
                                     "cg_residual": meta["cg_residual"],
                                     **_eigen_notes(es)}


def _task_smooth_cone(cfg: RunConfig, out: Path) -> _Result:
    n = cfg.task_opts["n"]
    samples = cfg.task_opts["samples"]
    sc = SmoothedCone(cfg.cone_spec, n)
    rng = np.random.default_rng(20240801)

    x1 = rng.uniform(-1.0, 1.0, samples)
    margins = np.array([
        starshape_margin(sc, (x, float(sc.psi(x)))) for x in x1])
    bound = 3.0 / (4.0 * n)

    ts = rng.uniform(0.0, 4.0 / n ** 2, samples)
    fvals = smoothing_profile(n, ts)
    defects = smoothing_defect(n, ts)

    # points of Omega_n's graph piece x2 = psi_n(x1) + (n/3) f_n(t) inside
    # the unit ball, drawn with t below 3/n, where (n/3) f_n(t) reaches 1
    ad = ApproxDomain(sc)
    gx1 = rng.uniform(-1.0, 1.0, samples)
    gt = rng.uniform(0.0, 3.0 / n, samples)
    graph = np.column_stack([gx1, sc.psi(gx1)
                             + n / 3.0 * smoothing_profile(n, gt), gt])
    gamma_margins = [ad.gamma_margin(z) for z in graph
                     if np.linalg.norm(z) < 1.0]
    gamma_bound = 1.0 / (4.0 * n)
    report = {
        "n": n,
        "n0": max(math.ceil(6.0 * cfg.cone_spec.M), 1),
        "margin_bound": bound,
        "min_starshape_margin": float(margins.min()),
        "margin_ok": bool(margins.min() >= bound - 1e-12),
        "gamma_margin_bound": gamma_bound,
        "min_gamma_margin": min(gamma_margins, default=None),
        "gamma_margin_ok": all(m >= gamma_bound - 1e-12
                               for m in gamma_margins),
        "fn_identity_low": float(np.abs(
            smoothing_profile(n, np.linspace(0.0, 1.0 / n ** 2, 64))).max()),
        "fn_identity_high": float(np.abs(
            smoothing_profile(n, np.linspace(2.0 / n ** 2, 1.0, 64))
            - (np.linspace(2.0 / n ** 2, 1.0, 64) - 1.5 / n ** 2)).max()),
        "fn_defect_range_ok": bool(
            np.all(defects <= 0.0) and np.all(defects >= -1.5 / n ** 2)),
        "fn_distance_ok": bool(
            np.all(np.abs(fvals - ts) <= 1.5 / n ** 2 + 1e-15)),
        "samples": samples,
    }
    (out / "smooth_cone.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    _write_csv(out / "smooth_cone.csv", ["x1", "margin"],
               [(float(a), float(b)) for a, b in zip(x1, margins)])
    return ["smooth_cone.json", "smooth_cone.csv"], {}


_TASK_RUNNERS = {
    "eig": _task_eig,
    "hardy": _task_hardy,
    "scan": _task_scan,
    "frequency": _task_frequency,
    "solve-ext": _task_solve_ext,
    "smooth-cone": _task_smooth_cone,
}


def run_task(cfg: RunConfig, out_dir, threads: int = 1) -> Path:
    """Run one task and write its artifact bundle; returns the out dir.
    A failed task removes the directories this call created, if any.
    Every task runs on one thread; ``threads`` is unused, kept for callers."""
    out = Path(out_dir)
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        outputs, notes = _TASK_RUNNERS[cfg.task](cfg, out)
        _manifest(out, cfg, outputs + ["manifest.json"], notes)
    except BaseException:
        for top in created[-1:]:
            shutil.rmtree(top, ignore_errors=True)
        raise
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="conefrac",
        description="Vanishing orders, spherical eigenpairs, Hardy "
                    "constants and frequency traces at conical boundary "
                    "points.")
    ap.add_argument("task", choices=list(_TASK_RUNNERS),
                    help="which pipeline to run (must match the config)")
    ap.add_argument("--config", required=True, help="path to the INI config")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--mesh-level", type=int, default=0,
                    help="refine every mesh dimension by 2^L (L >= 0)")
    args = ap.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if cfg.task != args.task:
            raise ConfigurationError(
                [f"config declares task '{cfg.task}' but the command line "
                 f"asked for '{args.task}'"])
        out = run_task(_scaled(cfg, args.mesh_level), args.out)
    except ConfigurationError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except ConefracError as exc:
        print(f"numerical failure in task '{args.task}': {exc}",
              file=sys.stderr)
        return 3
    print(f"wrote artifacts to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
