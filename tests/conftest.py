import numpy as np
import pytest
import scipy.sparse as sp

from conefrac.cones import ConeProfile, cap_of_cone
from conefrac.extension import build_halfball_grid, solve_extension
from conefrac.expressions import parse_expression
from conefrac.params import ProblemParams
from conefrac.spectral import solve_eigs
from conefrac.sphercap import band_to_dense, build_mesh

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
