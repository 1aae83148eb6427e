"""Benchmark workloads: one INI config per (workload, seed).

The seed only jitters inputs; it never changes the amount of work.  Each
seed selects one of ``VARIANTS`` input variants (``seed mod VARIANTS``), so
every seed has reference outputs stored in ``reference.json``.
"""

from __future__ import annotations

VARIANTS = 16

WORKLOADS = ("ext-solve", "eig-freq")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _frac(variant: int) -> float:
    """Position of the variant in [0, 1], both ends included."""
    return variant / (VARIANTS - 1)


def inputs(workload: str, variant: int) -> dict:
    """The jittered inputs of one variant, as plain numbers."""
    if workload == "ext-solve":
        return {"h": 0.05 + 0.1 * _frac(variant)}
    if workload == "eig-freq":
        return {"a": 0.1 + 0.2 * _frac(variant)}
    raise ValueError(f"unknown workload {workload!r}")


def config_text(workload: str, variant: int, small: bool = False) -> str:
    """INI config of one variant.  ``small`` shrinks every mesh for the
    benchmark's own tests; the timed runs never use it."""
    inp = inputs(workload, variant)
    if workload == "ext-solve":
        nt, ntheta, nr = (12, 24, 8) if small else (48, 96, 32)
        return (
            "[params]\ns = 0.5\nlambda = 0.1\n"
            "[cone]\npreset = half\n"
            f"[mesh]\nnt = {nt}\nntheta = {ntheta}\ngrading = 2.0\n"
            f"nr = {nr}\nrmin = 1e-3\n"
            "[task]\nname = solve-ext\n"
            f"h = {inp['h']!r}\nlid_mode = 1\nk = 8\nnradii = 40\n")
    if workload == "eig-freq":
        nt, ntheta = (16, 32) if small else (96, 192)
        return (
            "[params]\ns = 0.5\nlambda = 0.1\n"
            "[cone]\npreset = half\n"
            f"[mesh]\nnt = {nt}\nntheta = {ntheta}\ngrading = 2.0\n"
            "[task]\nname = frequency\nk = 16\n"
            f"modes = 1:1.0, 4:{inp['a']!r}\n")
    raise ValueError(f"unknown workload {workload!r}")
