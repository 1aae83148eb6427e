"""Eigenpairs of the weighted spherical pencil: closed-form anchors, the
separated 1-D oracle, and the qualitative monotonicity structure."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import free_block, kron_forms, oracle_full_circle_1d

from conefrac.cones import ConeProfile, SphericalCap, cap_of_cone
from conefrac.errors import ConfigurationError, DomainError
from conefrac.params import ProblemParams
from conefrac.spectral import MULTIPLICITY_RTOL, solve_eigs
from conefrac.sphercap import band_to_dense, build_mesh, polar_matrices


def _eigs(nt, ntheta, s, cap, lam=0.0, k=8, grading=2.0, **kw):
    p = ProblemParams(s=s, lam=lam)
    mesh = build_mesh(nt, ntheta, s, cap, grading)
    return solve_eigs(mesh, p, k=k, **kw), p


def _pencil(mesh, p):
    """The sparse pencil (K - lam kappa B, M) on the free nodes."""
    K, M, B = kron_forms(mesh)
    return (free_block(K - p.lam * p.kappa * B, mesh),
            free_block(M, mesh))


def _distinct(mu, rtol=0.02):
    groups = [[mu[0]]]
    for v in mu[1:]:
        if abs(v - groups[-1][-1]) <= rtol * (1.0 + abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [float(np.mean(g)) for g in groups], [len(g) for g in groups]


# ---------------------------------------------------------------------------
# closed-form anchors
# ---------------------------------------------------------------------------

def test_full_circle_lambda0_anchors_s_half():
    es, _ = _eigs(48, 96, 0.5, SphericalCap.full_circle(), k=12)
    reps, _ = _distinct(es.mu)
    exact = [k * (k + 1.0) for k in range(4)]
    assert abs(reps[0]) < 1e-8
    for r, e in zip(reps[1:4], exact[1:4]):
        assert r == pytest.approx(e, rel=0.01)


def test_full_circle_constant_mode_any_s():
    for s in (0.3, 0.8):
        es, _ = _eigs(16, 32, s, SphericalCap.full_circle(), k=3)
        assert abs(es.mu[0]) < 1e-9
        psi = es.vectors[0]
        assert psi.std() / abs(psi.mean()) < 1e-6


def test_half_circle_anchors():
    cap = cap_of_cone(ConeProfile.half_plane())
    es, _ = _eigs(48, 96, 0.5, cap, k=4)
    assert es.mu[0] == pytest.approx(0.75, rel=0.02)
    assert es.mu[1] == pytest.approx(3.75, rel=0.02)
    np.testing.assert_allclose(es.gamma[:2], [0.5, 1.5], rtol=0.02)


def test_spectrum_floor_for_admissible_lambda():
    cap = cap_of_cone(ConeProfile.half_plane())
    for s, lam in ((0.5, 0.1), (0.75, 0.02), (0.25, 0.2)):
        es, p = _eigs(20, 40, s, cap, lam=lam, k=8)
        assert np.all(es.mu > p.spectrum_floor)


def test_m_orthonormality(half_es, half_mesh):
    G = half_es.vectors @ (half_mesh.M @ half_es.vectors.T)
    assert np.abs(G - np.eye(half_es.k)).max() < 1e-10


def test_first_eigenfunction_fixed_sign(half_es):
    psi = half_es.vectors[0]
    interior = psi[np.abs(psi) > 1e-10 * np.abs(psi).max()]
    assert np.all(interior > 0.0) or np.all(interior < 0.0)
    # sign convention: weighted integral positive
    assert interior.sum() > 0.0


def test_dense_and_sparse_paths_agree():
    cap = SphericalCap.full_circle()
    p = ProblemParams(s=0.5)
    mesh = build_mesh(20, 40, 0.5, cap)
    es = solve_eigs(mesh, p, k=6)
    assert es.eigen_path == "lanczos"
    Kr, Mr = _pencil(mesh, p)
    dense = sla.eigh(Kr.toarray(), Mr.toarray(), eigvals_only=True,
                     subset_by_index=[0, 5])
    np.testing.assert_allclose(es.mu, dense, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_lanczos_spanning_the_free_space_matches_dense(half_cap, lam):
    """With k = n_free - 2 on a 4 x 8 half cap the Lanczos basis must grow
    to the whole free space (of dimension n_free, not the node count); its
    eigenvalues match the dense path's to 1e-12 relative."""
    p = ProblemParams(s=0.5, lam=lam)
    mesh = build_mesh(4, 8, 0.5, half_cap)
    n = mesh.n_free
    assert n < mesh.n_nodes
    es = solve_eigs(mesh, p, k=n - 2)
    dense = solve_eigs(mesh, p, k=n - 1)
    assert (es.eigen_path, dense.eigen_path) == ("lanczos", "dense")
    np.testing.assert_allclose(es.mu, dense.mu[:n - 2], rtol=1e-12, atol=0)
    V = es.vectors[:, mesh.free_nodes]
    Mr = free_block(kron_forms(mesh)[1], mesh)
    assert np.abs(V @ Mr @ V.T - np.eye(n - 2)).max() < 1e-12


def _check_against_eigsh(cap, lam, k=12):
    """The numpy shift-invert Lanczos against scipy's ARPACK eigsh applying
    a sparse LU of K - lam kappa B - sigma M at the same shift: eigenvalues
    to 1e-12 relative (1e-12 absolute near zero), the same multiplicity
    groups, and M-orthonormal eigenvectors."""
    from scipy.sparse.linalg import LinearOperator, eigsh, splu
    p = ProblemParams(s=0.5, lam=lam)
    mesh = build_mesh(48, 96, 0.5, cap)
    es = solve_eigs(mesh, p, k=k)
    assert (es.eigen_path, es.shift_retries) == ("lanczos", 0)
    assert es.shift < p.spectrum_floor
    Kr, Mr = _pencil(mesh, p)
    n = Kr.shape[0]
    lu = splu((Kr - es.shift * Mr).tocsc())
    ref = np.sort(eigsh(
        Kr, k=k, M=Mr, sigma=es.shift, which="LM",
        v0=np.ones(n) + 0.01 * np.sin(np.arange(n)),
        OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
        return_eigenvectors=False))
    np.testing.assert_allclose(es.mu, ref, rtol=1e-12, atol=1e-12)
    gaps = np.abs(np.diff(ref)) > MULTIPLICITY_RTOL * (1.0 + np.abs(ref[1:]))
    np.testing.assert_array_equal(es.group, np.cumsum(np.append(0, gaps)))
    V = es.vectors[:, mesh.free_nodes]
    assert np.abs(V @ (Mr @ V.T) - np.eye(k)).max() < 1e-12
    return es


@pytest.mark.parametrize("cap", [cap_of_cone(ConeProfile.half_plane()),
                                 SphericalCap.full_circle(),
                                 SphericalCap(-0.7, 2.1)])   # wraps 0
def test_arpack_matches_sparse_lu_shift_invert(cap):
    es = _check_against_eigsh(cap, 0.1)
    if cap.is_full:             # the cos/sin pairs are double
        assert es.group.max() < es.k - 1


def test_lanczos_many_modes_matches_sparse_lu_shift_invert():
    """k = 60 takes the recurrence past 80 steps, where the convergence
    checks space out beyond every fourth step."""
    _check_against_eigsh(cap_of_cone(ConeProfile.half_plane()), 0.1, k=60)


def test_lanczos_zero_mode_matches_sparse_lu_shift_invert():
    """The full circle at lam = 0: the constant mode mu = 0 and the double
    eigenvalues of the cos/sin pairs."""
    es = _check_against_eigsh(SphericalCap.full_circle(), 0.0)
    assert abs(es.mu[0]) < 1e-12
    assert es.group.max() < es.k - 1


def test_eigh_pencil_matches_scipy(half_mesh, half_params):
    """The Cholesky-reduced dense pencil solver against scipy.linalg.eigh on
    the pencils it serves: the extension's radial (S_r, M_r), the Hardy
    pencil (Z kappa B Z, Z) and a random symmetric-definite pair."""
    from conefrac.extension import (build_halfball_grid, radial_mass,
                                    radial_stiffness)
    from conefrac.sphercap import HemisphereSolver, eigh_pencil
    r = build_halfball_grid(32, 1e-3, half_mesh).r_nodes
    mesh, p = half_mesh, half_params
    b = mesh.robin_ids[mesh.Bth[0, mesh.robin_ids] > 0.0]
    Z = HemisphereSolver(mesh, [p.half_order ** 2]).equator_inverse(b)[0]
    Z = 0.5 * (Z + Z.T)
    Bb = p.kappa * band_to_dense(mesh.Bth)[np.ix_(b, b)]
    X, Y = np.random.default_rng(5).standard_normal((2, 40, 40))
    for A, B in ((radial_stiffness(r, 2.0)[1:-1, 1:-1],
                  radial_mass(r, 0.0)[1:-1, 1:-1]),
                 (Z @ Bb @ Z, Z),
                 (X + X.T, Y @ Y.T + 40.0 * np.eye(40))):
        w, V = eigh_pencil(A, B)
        np.testing.assert_allclose(w, sla.eigh(A, B, eigvals_only=True),
                                   rtol=1e-13, atol=0.0)
        assert np.abs(V.T @ B @ V - np.eye(len(w))).max() < 1e-13
        assert (np.abs(A @ V - B @ V * w).max()
                <= 1e-13 * np.abs(A).max() * np.abs(V).max())


def test_signs_and_groups_match_loop_reference(half_mesh):
    """The vectorized sign and multiplicity-group conventions against the
    per-mode loops they replaced."""
    from conefrac.spectral import _fix_signs
    Mr = free_block(kron_forms(half_mesh)[1], half_mesh)
    rng = np.random.default_rng(3)
    V = rng.standard_normal((6, Mr.shape[0]))
    V[0] -= (V[0] @ (Mr @ np.ones(len(V[0])))) / Mr.sum()   # zero integral
    ref = V.copy()
    Mw = Mr @ np.ones(V.shape[1])
    for row in ref:
        w = float(row @ Mw)
        lead = w if abs(w) > 1e-8 else row[np.argmax(np.abs(row))]
        if lead < 0.0:
            row *= -1.0
    np.testing.assert_array_equal(_fix_signs(V, Mw), ref)
    es, _ = _eigs(12, 24, 0.5, SphericalCap.full_circle(), k=6)
    gid, group = 0, [0]
    for i in range(1, es.k):
        gid += abs(es.mu[i] - es.mu[i - 1]) \
            > MULTIPLICITY_RTOL * (1.0 + abs(es.mu[i]))
        group.append(gid)
    np.testing.assert_array_equal(es.group, group)
    assert es.group.max() < es.k - 1       # the cos/sin pairs share groups


def test_sign_fallback_ignores_rounding_between_mirror_nodes():
    """A mode with a vanishing integral whose two extreme nodes are equal
    and opposite up to rounding, +-a (1 +- 1e-15), takes the sign of the
    lower node whichever of the two rounding made larger."""
    from conefrac.spectral import _fix_signs
    a, weight = 0.7, np.ones(5)
    V = np.array([[0.1, a * (1 + d1), 0.0, -a * (1 + d3), -0.1]
                  for d1 in (-1e-15, 0.0, 1e-15)
                  for d3 in (-1e-15, 0.0, 1e-15)])
    assert np.abs(V @ weight).max() < 1e-8          # the fallback decides
    for X in (V, -V):
        fixed = _fix_signs(X, weight)
        assert np.all(fixed[:, 1] > 0.0)
        np.testing.assert_array_equal(np.abs(fixed), np.abs(V))


def test_eigenvector_dirichlet_zeros(half_es):
    mesh = half_es.mesh
    assert np.abs(half_es.vectors[:, mesh.dirichlet_ids]).max() == 0.0


def test_gamma_matches_mu(half_es, half_params):
    from conefrac.params import mu_from_gamma
    for mu, g in zip(half_es.mu, half_es.gamma):
        assert mu_from_gamma(g, half_params) == pytest.approx(
            mu, rel=1e-12, abs=1e-12)


def test_inadmissible_lambda_raises_without_flag():
    cap = cap_of_cone(ConeProfile.half_plane())
    p = ProblemParams(s=0.5, lam=10.0)
    mesh = build_mesh(12, 24, 0.5, cap)
    with pytest.raises(DomainError) as err:
        solve_eigs(mesh, p, k=3)
    # the command line reports it as a config error (exit 2)
    assert isinstance(err.value, ConfigurationError)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        es = solve_eigs(mesh, p, k=3, allow_inadmissible=True)
    assert es.k == 3
    # eigenvalues far below the floor: the shift was lowered beneath them
    assert es.eigen_path == "lanczos"
    assert es.shift_retries >= 1
    assert es.mu.min() > es.shift
    Kr, Mr = _pencil(mesh, p)
    dense = sla.eigh(Kr.toarray(), Mr.toarray(), eigvals_only=True,
                     subset_by_index=[0, 2])
    np.testing.assert_allclose(es.mu, dense, rtol=1e-9)


# ---------------------------------------------------------------------------
# 1-D separated oracle
# ---------------------------------------------------------------------------

def test_oracle_k0_constant_mode():
    p = ProblemParams(s=0.5, lam=0.0)
    mu = oracle_full_circle_1d(p, 0, 400)
    assert abs(mu[0]) < 5e-9


def test_oracle_k1_s_half():
    p = ProblemParams(s=0.5, lam=0.0)
    mu = oracle_full_circle_1d(p, 1, 800)
    assert mu[0] == pytest.approx(2.0, rel=1e-4)


def test_oracle_rejects_negative_index():
    with pytest.raises(DomainError):
        oracle_full_circle_1d(ProblemParams(s=0.5), -1, 100)


def test_oracle_family_containing_order_one_s_quarter():
    # for s = 1/4 the order gamma = 1 (mu = 1 (1 + 2 - 1/2) = 5/2) lives in
    # the azimuthal family k = 1 and nowhere near the k = 0 family, whose
    # first nonzero value is the gamma = 2 mode mu = 2 (2 + 3/2) = 7
    p = ProblemParams(s=0.25, lam=0.0)
    mu0 = oracle_full_circle_1d(p, 0, 800)
    mu1 = oracle_full_circle_1d(p, 1, 800)
    assert mu1[0] == pytest.approx(2.5, rel=1e-3)
    assert abs(mu0[0]) < 1e-9
    assert mu0[1] == pytest.approx(7.0, rel=1e-3)
    assert np.abs(mu0 - 2.5).min() > 0.5


def test_oracle_2d_cross_validation():
    # five smallest 2-D eigenvalues vs the union over k in {0,1,2} of the
    # 1-D families, within 0.5 percent.  The pair (s = 0.75, lam = 0.1)
    # exceeds the full-space Hardy constant (about 0.0592), so the
    # exploration override is used: the two discretizations of the same
    # pencil must still agree.
    cap = SphericalCap.full_circle()
    for s in (0.25, 0.5, 0.75):
        for lam in (0.0, 0.1):
            p = ProblemParams(s=s, lam=lam)
            mesh = build_mesh(96, 192, s, cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                es = solve_eigs(mesh, p, k=8,
                                allow_inadmissible=True)
            union = []
            for k_az in (0, 1, 2):
                fam = oracle_full_circle_1d(p, k_az, 1000)
                take = fam[:4]
                union.extend(take if k_az == 0
                             else np.repeat(take, 2))
            union = np.sort(union)[:5]
            two_d = es.mu[:5]
            rel = np.abs(two_d - union) / (1.0 + np.abs(union))
            assert rel.max() < 0.005, (s, lam, two_d, union)


def test_full_circle_pencil_is_union_of_fourier_modes():
    # on the full circle the 2-D forms are Kronecker products, so the
    # reduced pencil splits exactly into one 1-D pencil per discrete
    # azimuthal mode k, (P1 + omega_k P2 - kappa lam e0 e0^T, P0), where
    # omega_k is the ratio of the azimuthal stiffness and mass symbols
    p = ProblemParams(s=0.5, lam=0.1)
    mesh = build_mesh(8, 16, p.s, SphericalCap.full_circle())
    K, M = _pencil(mesh, p)
    two_d = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)

    P0, P1, P2 = polar_matrices(mesh.t_nodes, p.s)
    dth = 2.0 * math.pi / mesh.ntheta
    union = []
    for k in range(mesh.ntheta):
        c = math.cos(k * dth)
        omega = 6.0 / dth ** 2 * (1.0 - c) / (2.0 + c)
        K1 = band_to_dense(P1 + omega * P2)
        K1[0, 0] -= p.kappa * p.lam
        union.extend(sla.eigh(K1, band_to_dense(P0), eigvals_only=True))
    union = np.sort(union)
    assert len(union) == len(two_d) == mesh.n_free
    rel = np.abs(two_d - union) / (1.0 + np.abs(union))
    assert rel.max() < 1e-10


# ---------------------------------------------------------------------------
# monotonicity structure
# ---------------------------------------------------------------------------

def test_domain_monotonicity_of_mu1():
    # nested caps (aligned with the mesh) never increase mu_1
    s = 0.5
    p = ProblemParams(s=s)
    ntheta = 48
    center = 1.5 * math.pi
    lengths = [2 * math.pi * frac for frac in (0.25, 0.375, 0.5, 0.75, 1.0)]
    mus = []
    for L in lengths:
        cap = SphericalCap.full_circle() if L >= 2 * math.pi - 1e-12 \
            else SphericalCap.centered(center, L)
        mesh = build_mesh(16, ntheta, s, cap)
        mus.append(solve_eigs(mesh, p, k=1).mu[0])
    assert np.all(np.diff(mus) <= 1e-12)


def test_lambda_monotonicity_of_mu1(half_mesh):
    from conefrac.hardy import hardy_constant
    s = 0.5
    lam_star = hardy_constant(half_mesh,
                              ProblemParams(s=s)).lambda_star
    mus = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        p = ProblemParams(s=s, lam=frac * lam_star)
        mus.append(solve_eigs(half_mesh, p, k=1).mu[0])
    assert np.all(np.diff(mus) < -1e-10)


def test_eigenvalue_convergence_under_refinement():
    # error of mu_2 against the closed form decreases across three levels
    exact = 2.0    # k = 1 anchor at s = 0.5
    errors = []
    for nt, ntheta in ((16, 32), (32, 64), (64, 128)):
        es, _ = _eigs(nt, ntheta, 0.5, SphericalCap.full_circle(), k=3)
        errors.append(abs(es.mu[1] - exact))
    assert errors[0] > errors[1] > errors[2]

