"""Best trace-Hardy constants on cones via the spherical Rayleigh quotient.

The constant is the smallest eigenvalue of the pencil
(A, kappa_s B), A = K + ((N-2s)/2)^2 M, on the free nodes (Dirichlet
equator nodes removed).  B lives on the cap nodes b of the equator only,
so the pencil reduces to the Schur complement S of A onto b, whose inverse
is the b block of A^-1.  ``sphercap.HemisphereSolver`` gives that block
without factorizing A: it is the b block of the inverse of the Schur
complement (G^-1)_FF of A onto the free equator nodes F, with G the
circulant equator block of the inverse of A on the full node set, applied
through its Fourier symbol.  With Z = S^-1, the constant is 1 / mu_max
of the small dense symmetric-definite pencil (Z kappa_s B_bb Z, Z), and
the minimizer is A^-1 applied to the top eigenvector placed on b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cones import SphericalCap
from .errors import DomainError, NumericalError
from .params import ProblemParams
from .sphercap import (HemisphereMesh, HemisphereSolver, build_mesh,
                       eigh_pencil)

__all__ = [
    "HardyResult",
    "hardy_constant",
    "hardy_constant_richardson",
    "hardy_scan",
]


@dataclass(frozen=True)
class HardyResult:
    """Best constant with its minimizer and provenance.

    ``richardson`` is an extrapolated estimate from a second, coarser level
    when one was computed, else None.  ``mesh_level`` records (nt, ntheta).
    """

    lambda_star: float
    cap: SphericalCap
    s: float
    mesh_level: tuple[int, int]
    richardson: float | None = None
    _top: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def minimizer(self) -> np.ndarray:
        """A^-1 of the top eigenvector on b, normalized; on first read."""
        solver, rhs, kappa = self._top
        v = solver.solve(rhs)[0]
        tr = v[solver.mesh.equator_ids]
        bn = math.sqrt(kappa * float(v @ (solver.mesh.B @ v)))
        v /= math.copysign(bn, tr[np.argmax(np.abs(tr))])
        return v


def hardy_constant(mesh: HemisphereMesh, params: ProblemParams) -> HardyResult:
    """Discrete best constant of the trace-Hardy inequality on the mesh's
    cap.

    Minimizes psi^T (K + ((N-2s)/2)^2 M) psi / (kappa_s psi^T B psi) over the
    retained dofs; the reported minimizer attains the constant exactly in the
    discrete arithmetic.
    """
    mesh.check_params(params)
    b = mesh.robin_ids[mesh.Bth[0, mesh.robin_ids] > 0.0]
    solver = HemisphereSolver(mesh, [params.half_order ** 2])
    Z = solver.equator_inverse(b)[0]      # the inverse Schur complement
    Z = 0.5 * (Z + Z.T)
    # Lambda = 1 / mu_max, from the top eigenpair
    mu, Y = eigh_pencil(Z @ (params.kappa * mesh.Bth_dense[np.ix_(b, b)]) @ Z,
                        Z)
    rhs = np.zeros((1, mesh.n_nodes))
    rhs[0, b] = Y[:, -1]
    return HardyResult(lambda_star=1.0 / float(mu[-1]), cap=mesh.cap,
                       s=params.s, mesh_level=(mesh.nt, mesh.ntheta),
                       _top=(solver, rhs, params.kappa))


def hardy_constant_richardson(params: ProblemParams, cap: SphericalCap,
                              nt: int, ntheta: int,
                              grading: float = 2.0) -> HardyResult:
    """Hardy constant on an (nt, ntheta) mesh with a Richardson estimate
    extrapolated from the half-resolution level (second-order assumption)."""
    fine = build_mesh(nt, ntheta, params.s, cap, grading)
    coarse = build_mesh(max(nt // 2, 4), max(ntheta // 2, 4), params.s, cap,
                        grading)
    res_f = hardy_constant(fine, params)
    res_c = hardy_constant(coarse, params)
    rich = res_f.lambda_star + (res_f.lambda_star - res_c.lambda_star) / 3.0
    return replace(res_f, richardson=rich)


def hardy_scan(arc_lengths, params: ProblemParams, nt: int, ntheta: int,
               grading: float = 2.0) -> list[HardyResult]:
    """Hardy constants over a strictly increasing list of arc lengths.

    Caps are centered on the downward direction 3 pi/2, so the cones are
    nested; the constants must then strictly decrease, and the scan raises
    NumericalError where they fail to by more than 1e-6.
    """
    arcs = [float(a) for a in arc_lengths]
    if any(b - a <= 0.0 for a, b in zip(arcs, arcs[1:])):
        raise DomainError("arc lengths must be strictly increasing")
    if arcs[0] <= 0.0 or arcs[-1] > 2.0 * math.pi + 1e-12:
        raise DomainError("arc lengths must lie in (0, 2 pi]")

    caps = [SphericalCap.full_circle() if a >= 2.0 * math.pi - 1e-12
            else SphericalCap.centered(1.5 * math.pi, a)
            for a in arcs]
    results = [hardy_constant_richardson(params, cap, nt, ntheta, grading)
               for cap in caps]
    values = [r.lambda_star for r in results]
    for a, b in zip(values, values[1:]):
        if not b < a - 1e-6:
            raise NumericalError(
                f"Hardy scan is not strictly decreasing: {values}")
    return results
