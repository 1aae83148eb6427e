import math

import numpy as np
import pytest
import scipy.sparse as sp

from conefrac.cones import ConeProfile, cap_of_cone
from conefrac.errors import DomainError
from conefrac.extension import build_halfball_grid, solve_extension
from conefrac.expressions import parse_expression
from conefrac.params import ProblemParams
from conefrac.spectral import solve_eigs
from conefrac.sphercap import (band_to_dense, build_mesh, eigh_pencil,
                               polar_matrices)

HALF_S = 0.5
HALF_LAM = 0.1


@pytest.fixture(scope="session")
def half_params():
    return ProblemParams(s=HALF_S, lam=HALF_LAM)


@pytest.fixture(scope="session")
def half_cap():
    return cap_of_cone(ConeProfile.half_plane())


def kron_forms(mesh):
    """K, M and B assembled with scipy.sparse.kron from the mesh's dense 1-D
    factors, an independent reference for the factored products."""
    P0, P1, P2, Mth, Kth, Bth = (
        sp.csr_matrix(band_to_dense(F))
        for F in (mesh.P0, mesh.P1, mesh.P2, mesh.Mth, mesh.Kth, mesh.Bth))
    e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(mesh.nt,) * 2)
    return ((sp.kron(P1, Mth) + sp.kron(P2, Kth)).tocsr(),
            sp.kron(P0, Mth, format="csr"), sp.kron(e0, Bth, format="csr"))


def free_block(A, mesh):
    """The free-node block of a sparse matrix on the full node set."""
    f = mesh.free_nodes
    return A[f][:, f].tocsr()


def _form_integral(mesh, mat, f, g) -> float:
    f = np.asarray(f, dtype=float).ravel()
    g = np.ones_like(f) if g is None else np.asarray(g, dtype=float).ravel()
    if f.shape != g.shape or f.shape != (mesh.n_nodes,):
        raise DomainError("grid function has the wrong length")
    return float(f @ (mat @ g))


def weighted_surface_integral(mesh, f, g=None) -> float:
    """Quadrature of f (or f g) against the hemisphere weight, consistent
    with the assembled mass: returns f^T M g (g = 1 when omitted)."""
    return _form_integral(mesh, mesh.M, f, g)


def boundary_integral(mesh, f, g=None) -> float:
    """Quadrature of f (or f g) over the cap arc, consistent with the
    boundary mass: f^T B g (g = 1 when omitted)."""
    return _form_integral(mesh, mesh.B, f, g)


def oracle_full_circle_1d(params: ProblemParams, azimuthal_index: int,
                          n_t: int, grading: float = 2.0) -> np.ndarray:
    """Eigenvalues of the 1-D weighted Sturm-Liouville family obtained by
    separating variables on the full circle.

    For azimuthal index k the radial profile f solves

        -((sin t)^(1-2s) cos t f')' + k^2 (sin t)^(1-2s) (cos t)^(-1) f
            = mu (sin t)^(1-2s) cos t f   on (0, pi/2),

    with the flux condition -lim_{t->0} (sin t)^(1-2s) f'(t)
    = kappa_s lam f(0) at the equator and nothing imposed at the pole.
    Discretized with the polar matrices of the 2-D assembly,
    K = P1 + k^2 P2 - kappa_s lam e0 e0^T and M = P0, solved densely.
    Returns all discrete eigenvalues, sorted.
    """
    if azimuthal_index < 0:
        raise DomainError("azimuthal index must be >= 0")
    if n_t < 4:
        raise DomainError("need n_t >= 4")
    if params.N != 2:
        raise DomainError("the separated oracle is for N = 2")

    i = np.arange(n_t, dtype=float)
    t_nodes = 0.5 * math.pi * (i / n_t) ** grading
    P0, P1, P2 = polar_matrices(t_nodes, params.s)
    K = band_to_dense(P1 + float(azimuthal_index) ** 2 * P2)
    K[0, 0] -= params.kappa * params.lam
    M = band_to_dense(P0)

    return eigh_pencil(K, M)[0]


def radial_hardy_quotient(f_values, params: ProblemParams,
                          r_nodes=None) -> float:
    """Rayleigh quotient int r^(N+1-2s) |f'|^2 dr / int r^(N-1-2s) f^2 dr for
    a grid function compactly supported in (0, 1).

    The numerator integrates the piecewise-linear interpolant exactly (power
    rule per interval); the denominator uses the trapezoidal rule.  Property
    tests check the quotient against the closed-form infimum ((N-2s)/2)^2.
    """
    f = np.asarray(f_values, dtype=float)
    if r_nodes is None:
        r_nodes = np.linspace(0.0, 1.0, len(f))
    r = np.asarray(r_nodes, dtype=float)
    if len(r) != len(f) or len(f) < 3:
        raise DomainError("need matching r and f arrays with >= 3 points")
    fmax = np.abs(f).max()
    if abs(f[0]) > 1e-12 * fmax or abs(f[-1]) > 1e-12 * fmax:
        raise DomainError("f must vanish at both endpoints (compact support)")

    a = params.N + 1.0 - 2.0 * params.s
    b = params.N - 1.0 - 2.0 * params.s
    dr = np.diff(r)
    slopes = np.diff(f) / dr
    num = float(np.sum(slopes ** 2
                       * (r[1:] ** (a + 1.0) - r[:-1] ** (a + 1.0))
                       / (a + 1.0)))
    wgt = np.zeros_like(f)
    pos = r > 0.0
    wgt[pos] = r[pos] ** b * f[pos] ** 2
    den = float(np.trapezoid(wgt, r))
    if den <= 0.0:
        raise DomainError("denominator vanishes: f is trivial")
    return num / den


@pytest.fixture(scope="session")
def half_mesh(half_cap):
    return build_mesh(24, 48, HALF_S, half_cap, grading=2.0)


@pytest.fixture(scope="session")
def half_es(half_mesh, half_params):
    return solve_eigs(half_mesh, half_params, k=8)


@pytest.fixture(scope="session")
def solver_field(half_es):
    """Extension solve with the constant perturbation h = 0.1, shared by the
    Green-identity / mode-profile diagnostics."""
    grid = build_halfball_grid(32, 1e-3, half_es.mesh)
    params = ProblemParams(s=HALF_S, lam=HALF_LAM,
                           h=parse_expression("0.1"))
    return solve_extension(grid, params, half_es.vectors[0], es=half_es)


@pytest.fixture(scope="session")
def solver_field_h0(half_es, half_params):
    """Extension solve without perturbation (inner boundary pinned to the
    dominant homogeneous mode)."""
    grid = build_halfball_grid(24, 1e-3, half_es.mesh)
    return solve_extension(grid, half_params, half_es.vectors[0], es=half_es)
