"""Correctness checks on one sample's artifacts (standard library only).

``headline`` reads the values a workload is judged by from the files the
command line wrote; ``gate_failures`` applies the acceptance gates and
``reference_failures`` compares against the values stored for the seed's
variant in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# headline values compared with the stored references, and how closely
REFERENCE_KEYS = ("gamma_hat", "gamma_eigen", "beta")
REFERENCE_RTOL = 1e-6


def _rows(path: Path, *columns: str) -> list[dict]:
    """The named columns of a CSV artifact as floats; other columns, and
    columns added later, are ignored."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(row[k]) for k in columns}
                for row in csv.DictReader(fh)]


def headline(workload: str, out: Path) -> dict:
    """Values read from the artifacts; ``result_err`` is the headline
    accuracy of the workload."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    j0 = summary["j0"]
    vals = {"gamma_hat": summary["gamma_hat"],
            "gamma_eigen": summary["gamma_eigen"],
            "j0": j0,
            "beta": summary["beta"][str(j0)],
            "beta_spread": summary["betah_R_spread"],
            "pohozaev": [p["satisfied"] for p in summary["pohozaev"]]}
    err = abs(vals["gamma_hat"] - vals["gamma_eigen"])
    if workload == "ext-solve":
        vals["result_err"] = err / vals["gamma_eigen"]
        return vals
    # eig-freq: off-group projection of the blow-up at the smallest
    # radius, phi_j(tau) / sqrt(H(tau)) over modes outside j0's group
    tau = _rows(out / "frequency.csv", "r", "H")[0]
    group = set(summary["multiplicity_group"])
    off = sum(r["phi_j"] ** 2
              for r in _rows(out / "fourier.csv", "tau", "j", "phi_j")
              if r["tau"] == tau["r"] and int(r["j"]) not in group)
    vals["tau"] = tau["r"]
    vals["off_group"] = math.sqrt(off / tau["H"])
    vals["result_err"] = err
    return vals


def gate_failures(workload: str, vals: dict) -> list[str]:
    """Acceptance gates: criterion 8 (ext-solve) and 7 (eig-freq)."""
    bad = []
    if vals["j0"] != 1:
        bad.append(f"dominant mode j0 = {vals['j0']}, expected 1")
    if workload == "ext-solve":
        if not vals["result_err"] < 0.05:
            bad.append(f"gamma_hat rel err {vals['result_err']:.3%} >= 5%")
        if not vals["beta_spread"] < 0.05:
            bad.append(f"beta spread over R {vals['beta_spread']:.3%} >= 5%")
        if len(vals["pohozaev"]) != 5 or not all(vals["pohozaev"]):
            bad.append(f"Pohozaev balance fails: {vals['pohozaev']}")
    else:
        if not vals["result_err"] < 1e-2:
            bad.append(f"|gamma_hat - gamma_1| = {vals['result_err']:.3e}")
        if not vals["off_group"] <= 0.05:
            bad.append(f"off-group projection {vals['off_group']:.3f} "
                       f"at tau = {vals['tau']}")
    return bad


def reference_failures(vals: dict, ref: dict) -> list[str]:
    bad = []
    for key in REFERENCE_KEYS:
        got, want = vals[key], ref[key]
        if not abs(got - want) <= REFERENCE_RTOL * abs(want):
            bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad


def reference_entry(vals: dict) -> dict:
    return {key: vals[key] for key in REFERENCE_KEYS}


def digest(out: Path) -> str:
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
