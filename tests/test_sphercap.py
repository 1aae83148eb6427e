"""Hemisphere mesh and its factored forms: quadrature exactness against
adaptive oracles, mass consistency, and the weak-form building blocks."""

import math

import numpy as np
import pytest
from conftest import (boundary_integral, free_block, hardy_symbol,
                      kron_forms, weighted_surface_integral)
from scipy.integrate import quad

from conefrac.cones import ConeProfile, SphericalCap, cap_of_cone
from conefrac.errors import DomainError, GeometryError
from conefrac.params import ProblemParams
from conefrac.sphercap import HemisphereSolver, _gauss_jacobi, build_mesh


def test_mesh_nodes_uniform_grading():
    cap = SphericalCap.full_circle()
    mesh = build_mesh(4, 8, 0.5, cap, grading=1.0)
    np.testing.assert_allclose(
        mesh.t_nodes, [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8],
        atol=1e-15)
    assert mesh.t_nodes[-1] < math.pi / 2      # no node at the pole


def test_mesh_grading_accumulates_at_equator():
    mesh = build_mesh(16, 8, 0.5, SphericalCap.full_circle(), grading=2.0)
    gaps = np.diff(mesh.t_nodes)
    assert np.all(np.diff(gaps) > 0.0)         # cells grow away from t = 0


def test_full_circle_no_dirichlet():
    mesh = build_mesh(8, 16, 0.5, SphericalCap.full_circle())
    assert len(mesh.dirichlet_ids) == 0
    assert mesh.n_free == mesh.n_nodes


def test_half_circle_robin_count():
    cap = SphericalCap(math.pi, 2.0 * math.pi)
    mesh = build_mesh(8, 8, 0.5, cap)
    assert len(mesh.robin_ids) == 4
    angles = mesh.theta_nodes[mesh.robin_mask]
    np.testing.assert_allclose(
        angles, [math.pi, 1.25 * math.pi, 1.5 * math.pi, 1.75 * math.pi])
    # a segment j -> j + 1 belongs to the cap when its midpoint does
    assert list(np.flatnonzero(mesh.segment_mask)) == [4, 5, 6, 7]


def test_every_equator_node_classified_once():
    cap = cap_of_cone(ConeProfile(0.7, -0.2))
    mesh = build_mesh(8, 32, 0.3, cap)
    assert len(mesh.robin_ids) + len(mesh.dirichlet_ids) == mesh.ntheta


def test_build_mesh_validation():
    cap = SphericalCap.full_circle()
    with pytest.raises(DomainError):
        build_mesh(3, 8, 0.5, cap)
    with pytest.raises(DomainError):
        build_mesh(8, 8, 0.5, cap, grading=0.5)
    with pytest.raises(DomainError):
        build_mesh(8, 8, 1.5, cap)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_gauss_jacobi_matches_scipy(s):
    from scipy.special import roots_jacobi
    nodes, weights = _gauss_jacobi(12, 1.0 - 2.0 * s)
    ref_nodes, ref_weights = roots_jacobi(12, 0.0, 1.0 - 2.0 * s)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("s", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
def test_gauss_jacobi_moments_exact(s):
    # the n-point rule integrates (1 + x)^m exactly for m < 2n:
    # int_{-1}^{1} (1 + x)^(beta + m) dx = 2^(beta+m+1) / (beta + m + 1)
    beta = 1.0 - 2.0 * s
    nodes, weights = _gauss_jacobi(12, beta)
    for m in range(24):
        exact = 2.0 ** (beta + m + 1.0) / (beta + m + 1.0)
        assert abs(weights @ (1.0 + nodes) ** m - exact) <= 5e-14 * exact


@pytest.mark.parametrize("cap, ntheta", [
    (SphericalCap.full_circle(), 8),
    (SphericalCap(math.pi, 2 * math.pi), 24),    # half cap
    (SphericalCap(-0.7, 2.1), 24),               # wraps theta = 0
    (SphericalCap(math.pi, 2 * math.pi), 9),     # odd ntheta
])
def test_factored_forms_match_sparse_kron(cap, ntheta):
    """form @ x, form @ X and X @ form against scipy.sparse.kron of the
    dense 1-D factors; the dense forms are symmetric."""
    mesh = build_mesh(7, ntheta, 0.4, cap)
    K, M, B = kron_forms(mesh)
    rng = np.random.default_rng(11)
    n = mesh.n_nodes
    x = rng.standard_normal(n)
    X = rng.standard_normal((n, 5))
    R = rng.standard_normal((9, n))
    for form, ref in ((mesh.K, K), (mesh.M, M), (mesh.B, B),
                      (mesh.K - 0.3 * mesh.B + 1.7 * mesh.M,
                       K - 0.3 * B + 1.7 * M)):
        tol = 1e-14 * abs(ref).max()
        assert np.abs(form @ x - ref @ x).max() <= tol
        assert np.abs(form @ X - ref @ X).max() <= tol
        assert np.abs(R @ form - (ref @ R.T).T).max() <= tol
        A = form.toarray()
        assert np.abs(A - ref.toarray()).max() <= tol
        assert np.array_equal(A, A.T)
        assert np.abs(form.diagonal() - ref.diagonal()).max() <= tol


def test_total_weighted_mass_closed_form():
    for s in (0.25, 0.5, 0.75):
        mesh = build_mesh(32, 64, s, SphericalCap.full_circle())
        total = weighted_surface_integral(mesh, np.ones(mesh.n_nodes))
        assert total == pytest.approx(2.0 * math.pi / (2.0 - 2.0 * s),
                                      rel=1e-12)


def test_total_mass_s_half_is_hemisphere_area():
    mesh = build_mesh(64, 128, 0.5, SphericalCap.full_circle())
    total = weighted_surface_integral(mesh, np.ones(mesh.n_nodes))
    assert total == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_stiffness_annihilates_constants():
    mesh = build_mesh(24, 48, 0.4, SphericalCap.full_circle())
    resid = np.abs(mesh.K @ np.ones(mesh.n_nodes)).max()
    assert resid <= 1e-10


def test_forms_symmetric_and_definite():
    mesh = build_mesh(12, 24, 0.6, SphericalCap(math.pi, 2 * math.pi))
    for mat in (mesh.K, mesh.M, mesh.B):
        A = mat.toarray()
        assert abs(A - A.T).max() < 1e-13
    f = mesh.free_nodes
    Mr = mesh.M.toarray()[np.ix_(f, f)]
    assert np.linalg.eigvalsh(Mr).min() > 0.0
    # boundary mass supported exactly on the cap dofs
    diag = mesh.B.diagonal()
    support = np.flatnonzero(diag > 0.0)
    assert set(support) <= set(mesh.equator_ids.tolist())
    eig_b = np.linalg.eigvalsh(mesh.B.toarray())
    assert eig_b.min() > -1e-14


def test_mass_consistency_random_functions():
    mesh = build_mesh(12, 24, 0.5, SphericalCap.full_circle())
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = rng.standard_normal(mesh.n_nodes)
        g = rng.standard_normal(mesh.n_nodes)
        lhs = weighted_surface_integral(mesh, f, g)
        rhs = float(f @ (mesh.M @ g))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)


def _smooth_oracle(s):
    val, _ = quad(lambda t: math.exp(math.sin(t))
                  * math.sin(t) ** (1 - 2 * s) * math.cos(t),
                  0.0, math.pi / 2, epsabs=1e-13)
    return 2.0 * math.pi * val


def test_surface_integral_against_adaptive_oracle():
    # integral of exp(sin t) against the weight, compared with scipy.quad
    for s in (0.25, 0.5, 0.75):
        mesh = build_mesh(96, 16, s, SphericalCap.full_circle())
        f = np.repeat(np.exp(np.sin(mesh.t_nodes)), mesh.ntheta)
        ours = weighted_surface_integral(mesh, f)
        assert ours == pytest.approx(_smooth_oracle(s), rel=2e-4)


def test_refinement_reduces_interpolation_error():
    # halving the polar spacing cuts the quadrature error of a smooth
    # integrand by at least a factor 3 (second-order convergence)
    def err(nt, s):
        mesh = build_mesh(nt, 8, s, SphericalCap.full_circle())
        f = np.repeat(np.exp(np.sin(mesh.t_nodes)), mesh.ntheta)
        return abs(weighted_surface_integral(mesh, f) - _smooth_oracle(s))

    for s in (0.25, 0.5, 0.75):
        errors = [err(nt, s) for nt in (16, 32, 64)]
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0


def test_boundary_integral_half_circle():
    cap = SphericalCap(math.pi, 2.0 * math.pi)
    mesh = build_mesh(8, 64, 0.5, cap)
    total = boundary_integral(mesh, np.ones(mesh.n_nodes))
    assert total == pytest.approx(math.pi, rel=1e-12)


def test_boundary_integral_full_circle():
    mesh = build_mesh(8, 48, 0.5, SphericalCap.full_circle())
    total = boundary_integral(mesh, np.ones(mesh.n_nodes))
    assert total == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_integral_shape_validation():
    mesh = build_mesh(8, 16, 0.5, SphericalCap.full_circle())
    with pytest.raises(DomainError):
        weighted_surface_integral(mesh, np.ones(5))
    with pytest.raises(DomainError):
        boundary_integral(mesh, np.ones(mesh.n_nodes), np.ones(3))


def test_mesh_rejects_params_of_other_s():
    mesh = build_mesh(8, 16, 0.5, SphericalCap.full_circle())
    with pytest.raises(DomainError):
        mesh.check_params(ProblemParams(s=0.6))


def test_spherical_hardy_inequality_for_eigenfunctions(half_es, half_mesh,
                                                       half_params):
    # kappa Lambda int_cap psi^2 <= ((N-2s)/2)^2 int w psi^2 + int w |grad|^2
    from conefrac.hardy import hardy_constant
    lam_star = hardy_constant(half_mesh, half_params).lambda_star
    c2 = half_params.half_order ** 2
    for j in range(half_es.k):
        psi = half_es.vectors[j]
        lhs = half_params.kappa * lam_star * float(
            psi @ (half_mesh.B @ psi))
        rhs = c2 * float(psi @ (half_mesh.M @ psi)) \
            + float(psi @ (half_mesh.K @ psi))
        assert lhs <= rhs * (1.0 + 1e-8)


@pytest.mark.parametrize("cap, ntheta", [
    (SphericalCap.full_circle(), 8),             # no Dirichlet nodes
    (SphericalCap(math.pi, 2 * math.pi), 8),     # half cap
    (SphericalCap(0.3, 2.0), 12),                # Dirichlet set wraps 0
    (SphericalCap(math.pi, 2 * math.pi), 9),     # odd ntheta
    (SphericalCap(0.3, 0.9), 12),                # one free equator node
    (SphericalCap(0.1, 1.2), 12),                # two
    (SphericalCap(0.3, 1.5), 16),                # three
])
def test_hemisphere_solver_is_exact_robin_inverse(cap, ntheta):
    """The solver inverts K - rho B + sigma_i M on the free nodes for a batch
    of shifts, and its equator block is that inverse's, with the same
    inertia as the operator (rho = 5 makes it indefinite)."""
    p = ProblemParams(s=0.5, lam=0.1)
    mesh = build_mesh(5, ntheta, 0.5, cap)
    shifts = np.array([0.3, 1.7, 25.0])
    eq = mesh.dof_of_node[mesh.robin_ids]
    K, M, B = kron_forms(mesh)
    for rho in (0.0, p.lam * p.kappa, 5.0):
        solver = HemisphereSolver(mesh, shifts, rho)
        cols = [solver.solve(np.tile(e, (len(shifts), 1)))[:, mesh.free_nodes]
                for e in np.eye(mesh.n_nodes)[mesh.free_nodes]]
        Z = solver.equator_inverse(mesh.robin_ids)
        assert Z.shape == (len(shifts), len(eq), len(eq))
        for i, sigma in enumerate(shifts):
            A = free_block(K - rho * B + sigma * M, mesh).toarray()
            exact = np.linalg.inv(A)
            P = np.column_stack([c[i] for c in cols])
            assert np.abs(P - exact).max() <= 1e-12 * np.abs(exact).max()
            assert np.abs(Z[i] - exact[np.ix_(eq, eq)]).max() \
                <= 1e-12 * np.abs(exact).max()
            # Sylvester: the equator block has the operator's inertia
            n_neg = np.sum(np.linalg.eigvalsh(A) < 0.0)
            assert np.sum(np.linalg.eigvalsh(Z[i] + Z[i].T) < 0.0) == n_neg
            if rho < 1.0:
                assert n_neg == 0


@pytest.mark.parametrize("cap, ntheta", [
    (SphericalCap(0.3, 0.9), 12),                # one free equator node
    (SphericalCap(0.1, 1.2), 12),                # two
    (SphericalCap(0.3, 1.5), 16),                # three
])
def test_hemisphere_solver_trace_matches_solve(cap, ntheta):
    """The trace-only solve returns the free equator values of ``solve``
    for every shift and Robin coefficient, indefinite ones included."""
    p = ProblemParams(s=0.5, lam=0.1)
    mesh = build_mesh(5, ntheta, 0.5, cap)
    shifts = np.array([0.3, 1.7, 25.0])
    X = np.random.default_rng(11).standard_normal((len(shifts),
                                                   mesh.n_nodes))
    X[:, mesh.dirichlet_ids] = 0.0
    for rho in (0.0, p.lam * p.kappa, 5.0):
        solver = HemisphereSolver(mesh, shifts, rho)
        full = solver.solve(X)[:, mesh.robin_ids]
        trace = solver.solve_trace(X)
        assert trace.shape == full.shape
        assert np.abs(trace - full).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("s, lo, hi, tol", [
    (0.25, 0.95, 1.15, 1e-2),            # first order: the polar grading
    (0.5, 1.9, 2.1, 5e-4),
    (0.75, 1.9, 2.1, 5e-4),
])
def test_equator_symbol_converges_to_closed_form(s, lo, hi, tol):
    """On the full circle the equator Schur complement's symbol at the
    Hardy shift c^2, over kappa_s times the equator mass symbol, tends to
    the closed-form Hardy symbol Lambda_m of each Fourier mode m."""
    p = ProblemParams(s=s)
    errs = []
    for n in (24, 48, 96):
        mesh = build_mesh(n, 2 * n, s, SphericalCap.full_circle())
        ginv = HemisphereSolver(mesh, [p.half_order ** 2]).ginv[0, :6:2]
        symbol = ginv / (p.kappa * mesh.symbol(mesh.Mth)[:3])
        errs.append(np.abs(symbol / [hardy_symbol(s, m) for m in range(3)]
                           - 1.0))
    order = np.log2(errs[1] / errs[2])
    assert np.all((lo <= order) & (order <= hi)), order
    assert np.all(errs[2] <= tol), errs[2]


@pytest.mark.parametrize("cap", [SphericalCap(math.pi, 2 * math.pi),
                                 SphericalCap(0.3, 2.0)])
def test_hemisphere_solver_returns_exact_zeros_on_dirichlet_nodes(cap):
    """Rows in and out of ``solve`` are node vectors; the result is exactly
    zero on the Dirichlet nodes for every shift and Robin coefficient."""
    p = ProblemParams(s=0.5, lam=0.1)
    mesh = build_mesh(6, 12, 0.5, cap)
    X = np.random.default_rng(5).standard_normal((3, mesh.n_nodes))
    X[:, mesh.dirichlet_ids] = 0.0
    for rho in (0.0, p.lam * p.kappa):
        Y = HemisphereSolver(mesh, [0.3, 1.7, 25.0], rho).solve(X)
        assert Y.shape == X.shape
        assert np.all(Y[:, mesh.dirichlet_ids] == 0.0)
        assert np.abs(Y[:, mesh.free_nodes]).min() > 0.0


@pytest.mark.parametrize("ntheta", [24, 25])
def test_mode_basis_is_an_isometry_of_node_rows(half_cap, ntheta):
    """The float view of ``to_modes`` keeps dot products of node rows, with
    or without a Nyquist mode, and ``from_modes`` inverts it."""
    mesh = build_mesh(6, ntheta, 0.5, half_cap)
    X = np.random.default_rng(2).standard_normal((4, mesh.nt, ntheta))
    Z = mesh.to_modes(X)
    Zf, Xf = Z.reshape(4, -1).view(float), X.reshape(4, -1)
    np.testing.assert_allclose(Zf @ Zf.T, Xf @ Xf.T, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(mesh.from_modes(Z), X, rtol=0, atol=1e-14)


@pytest.mark.parametrize("ntheta", [24, 25])
def test_mesh_constants_match_their_dense_forms(ntheta):
    """The circulant symbols read off three band entries equal those of the
    dense first column bit for bit; the forms are built once per mesh."""
    from conefrac.sphercap import band_to_dense
    mesh = build_mesh(6, ntheta, 0.5, cap_of_cone(ConeProfile.half_plane()))
    for band in (mesh.Mth, mesh.Kth):
        ref = np.fft.rfft(band_to_dense(band)[:, 0]).real
        assert np.array_equal(mesh.symbol(band), ref)
    assert np.array_equal(mesh.Bth_dense, band_to_dense(mesh.Bth))
    assert mesh.M is mesh.M and mesh.K is mesh.K and mesh.B is mesh.B
