"""Hardy constants: closed-form anchors, the Schur route against a dense
full-pencil oracle, duality with the spectral problem, and monotonicity."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import radial_hardy_quotient

from conefrac.cones import ConeProfile, SphericalCap, cap_of_cone
from conefrac.errors import DomainError, NumericalError
from conefrac.hardy import (hardy_constant, hardy_constant_richardson,
                            hardy_scan)
from conefrac.params import (ProblemParams, hardy_constant_full_space)
from conefrac.spectral import solve_eigs
from conefrac.sphercap import build_mesh


def _mesh(nt, ntheta, s, cap, grading=2.0):
    p = ProblemParams(s=s)
    return build_mesh(nt, ntheta, s, cap, grading), p


def test_full_circle_matches_closed_form():
    for s in (0.25, 0.5, 0.75):
        mesh, p = _mesh(48, 96, s, SphericalCap.full_circle())
        res = hardy_constant(mesh, p)
        exact = hardy_constant_full_space(p)
        assert res.lambda_star == pytest.approx(exact, rel=0.02)
        assert res.lambda_star > 0.0
        # full-space constant bounds every cone's constant from below
        assert res.lambda_star >= exact - 1e-6


def test_half_circle_exceeds_full_circle():
    cap_half = cap_of_cone(ConeProfile.half_plane())
    mesh_h, p = _mesh(32, 64, 0.5, cap_half)
    mesh_f, _ = _mesh(32, 64, 0.5, SphericalCap.full_circle())
    lam_h = hardy_constant(mesh_h, p).lambda_star
    lam_f = hardy_constant(mesh_f, p).lambda_star
    assert lam_h > lam_f


# half cap, full circle (no Dirichlet nodes), a cap wrapping across
# theta = 0 and an odd ntheta, each at three orders s
SCHUR_CASES = [
    pytest.param(nt, ntheta, cap, s, id=f"{name}-{nt}x{ntheta}-s{s}")
    for name, nt, ntheta, cap in [
        ("half", 10, 20, cap_of_cone(ConeProfile.half_plane())),
        ("full", 10, 20, SphericalCap.full_circle()),
        ("wrap", 10, 20, SphericalCap(-1.0, 1.5)),
        ("half", 9, 15, cap_of_cone(ConeProfile.half_plane())),
    ]
    for s in (0.25, 0.5, 0.75)
]


@pytest.mark.parametrize("nt, ntheta, cap, s", SCHUR_CASES)
def test_schur_equals_full_pencil_oracle(nt, ntheta, cap, s):
    # dense oracle: the largest eigenvalue of (kappa B, A) is 1 / Lambda
    mesh, p = _mesh(nt, ntheta, s, cap)
    res = hardy_constant(mesh, p)
    f = np.ix_(mesh.free_nodes, mesh.free_nodes)
    c2 = p.half_order ** 2
    A = (mesh.K + c2 * mesh.M).toarray()[f]
    B = mesh.B.toarray()[f]
    w = sla.eigh(p.kappa * B, A, eigvals_only=True)
    assert 1.0 / w[-1] == pytest.approx(res.lambda_star, rel=1e-10)


@pytest.mark.parametrize("nt, ntheta, cap, s", SCHUR_CASES + [
    pytest.param(16, 32, cap_of_cone(ConeProfile.half_plane()), 0.6,
                 id="half-16x32-s0.6")])
def test_minimizer_attains_the_constant(nt, ntheta, cap, s):
    mesh, p = _mesh(nt, ntheta, s, cap)
    res = hardy_constant(mesh, p)
    v = res.minimizer
    assert np.all(v[mesh.dirichlet_ids] == 0.0)
    c2 = p.half_order ** 2
    num = float(v @ (mesh.K @ v)) + c2 * float(v @ (mesh.M @ v))
    den = p.kappa * float(v @ (mesh.B @ v))
    assert den == pytest.approx(1.0, rel=1e-12)
    assert num / den == pytest.approx(res.lambda_star, rel=1e-10)


def test_minimizer_fixed_sign_on_cap():
    mesh, p = _mesh(16, 32, 0.5, cap_of_cone(ConeProfile.half_plane()))
    res = hardy_constant(mesh, p)
    tr = res.minimizer[mesh.robin_ids]
    assert np.all(tr > 0.0)


def test_duality_with_spectral_problem():
    # solving the pencil at lam = Lambda gives mu_1 = -((N-2s)/2)^2 exactly
    # in the discrete arithmetic; the largest admissible lam comes closest
    for s in (0.5, 0.75):
        for cone in (ConeProfile.half_plane(), ConeProfile(1.0, 1.0)):
            cap = cap_of_cone(cone)
            mesh, p0 = _mesh(24, 48, s, cap)
            lam_star = hardy_constant(mesh, p0).lambda_star
            p = ProblemParams(s=s, lam=math.nextafter(lam_star, 0.0))
            es = solve_eigs(mesh, p, k=1)
            assert es.mu[0] == pytest.approx(-p.half_order ** 2, abs=1e-3)


def test_refinement_monotone_convergence():
    p = ProblemParams(s=0.25)
    exact = hardy_constant_full_space(p)
    errors = []
    for nt, ntheta in ((16, 32), (32, 64), (64, 128)):
        mesh, _ = _mesh(nt, ntheta, 0.25, SphericalCap.full_circle())
        errors.append(abs(hardy_constant(mesh, p).lambda_star - exact))
    assert errors[0] > errors[1] > errors[2]


def test_discrete_trace_inequality_random_vectors():
    mesh, p = _mesh(12, 24, 0.5, cap_of_cone(ConeProfile.half_plane()))
    lam_star = hardy_constant(mesh, p).lambda_star
    c2 = p.half_order ** 2
    rng = np.random.default_rng(14)
    f = mesh.free_nodes
    checked = 0
    while checked < 100:
        v = np.zeros(mesh.n_nodes)
        v[f] = rng.standard_normal(len(f))
        den = p.kappa * float(v @ (mesh.B @ v))
        if den <= 1e-12:
            continue
        checked += 1
        num = float(v @ (mesh.K @ v)) + c2 * float(v @ (mesh.M @ v))
        assert num / den >= lam_star - 1e-10


def test_richardson_estimate_present():
    cap = SphericalCap.full_circle()
    p = ProblemParams(s=0.5)
    res = hardy_constant_richardson(p, cap, 32, 64)
    assert res.richardson is not None
    exact = hardy_constant_full_space(p)
    # extrapolation is at least as close as the raw value
    assert abs(res.richardson - exact) <= abs(res.lambda_star - exact) + 1e-9
    assert res.mesh_level == (32, 64)


def test_scan_strictly_decreasing():
    p = ProblemParams(s=0.5)
    arcs = [0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    results = hardy_scan(arcs, p, 24, 48)
    values = [r.lambda_star for r in results]
    assert all(b < a - 1e-6 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(hardy_constant_full_space(p),
                                       rel=0.02)


def test_scan_single_full_arc_matches_direct():
    p = ProblemParams(s=0.5)
    results = hardy_scan([2.0 * math.pi], p, 16, 32)
    mesh, _ = _mesh(16, 32, 0.5, SphericalCap.full_circle())
    direct = hardy_constant(mesh, p).lambda_star
    assert results[0].lambda_star == pytest.approx(direct, rel=1e-12)


def test_scan_validation():
    p = ProblemParams(s=0.5)
    with pytest.raises(DomainError):
        hardy_scan([math.pi, math.pi / 2], p, 8, 16)
    with pytest.raises(DomainError):
        hardy_scan([0.0, math.pi], p, 8, 16)


def test_empty_cap_error():
    # a cap with no interior nodes on this mesh leaves no boundary dofs
    cap = SphericalCap(0.0, 1e-6)
    from conefrac.errors import GeometryError
    with pytest.raises(GeometryError):
        build_mesh(8, 16, 0.5, cap)


def test_hemisphere_code_rejects_other_dimensions():
    # the forms and the Hardy problem are built on the N = 2 hemisphere
    mesh = build_mesh(8, 16, 0.5, cap_of_cone(ConeProfile.half_plane()))
    p3 = ProblemParams(N=3, s=0.5)
    with pytest.raises(DomainError):
        solve_eigs(mesh, p3, k=1)
    with pytest.raises(DomainError):
        hardy_constant(mesh, p3)


# ---------------------------------------------------------------------------
# the radial quotient helper
# ---------------------------------------------------------------------------

def test_radial_quotient_bound():
    p = ProblemParams(N=2, s=0.5)
    bound = p.half_order ** 2
    r = np.linspace(0.0, 1.0, 2001)
    f = np.sin(math.pi * r)
    f[-1] = 0.0
    q = radial_hardy_quotient(f, p, r)
    assert q >= bound - 1e-3


def test_radial_quotient_random_profiles():
    p = ProblemParams(N=2, s=0.3)
    bound = p.half_order ** 2
    rng = np.random.default_rng(23)
    r = np.linspace(0.0, 1.0, 1501)
    for _ in range(20):
        f = np.sin(math.pi * r) * (1.0 + 0.5 * rng.standard_normal()
                                   * np.sin(2 * math.pi * r))
        f[0] = f[-1] = 0.0
        assert radial_hardy_quotient(f, p, r) >= bound - 1e-3


def test_radial_quotient_near_optimizer():
    # f = r^((2s-N)/2 + eps) with smooth log-space cutoffs at both ends
    # comes within 10 percent of the bound (the cutoffs must be spread in
    # log radius or their gradient cost dominates; computed value 0.2664
    # against the bound 0.25 on this construction)
    p = ProblemParams(N=2, s=0.5)
    bound = p.half_order ** 2
    eps = 0.05
    r = np.concatenate([[0.0], np.geomspace(1e-16, 1.0, 30000)])
    with np.errstate(divide="ignore"):
        x = np.log(np.maximum(r, 1e-320))
    up = np.clip((x - math.log(1e-14)) / (math.log(1e-10) - math.log(1e-14)),
                 0.0, 1.0)
    up = 0.5 - 0.5 * np.cos(math.pi * up)
    down = np.clip(x / math.log(1e-4), 1e-12, 1.0)   # 1 below 1e-4, 0 at 1
    down = 0.5 - 0.5 * np.cos(math.pi * down)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = r ** ((2 * p.s - p.N) / 2.0 + eps) * up * down
    f[0] = f[-1] = 0.0
    q = radial_hardy_quotient(f, p, r)
    assert q >= bound - 1e-3
    assert q <= bound * 1.10


def test_radial_quotient_validation():
    p = ProblemParams(N=2, s=0.5)
    with pytest.raises(DomainError):
        radial_hardy_quotient(np.ones(10), p)   # no compact support
