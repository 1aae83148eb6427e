"""Frequency machinery: exactness on homogeneous profiles, two-mode
asymptotics, blow-up classification, mode profiles, amplitudes and the
Pohozaev diagnostics."""

import math

import numpy as np
import pytest

from conefrac.almgren import (beta_coefficients, blowup, check_H_prime_identity,
                              compute_D, compute_H, default_radii,
                              fourier_coeffs, frequency_trace, pohozaev_check)
from conefrac.cones import SphericalCap
from conefrac.errors import DomainError, NumericalError
from conefrac.expressions import parse_expression
from conefrac.extension import build_halfball_grid, manufactured_field, \
    solve_extension
from conefrac.params import ProblemParams
from conefrac.spectral import solve_eigs
from conefrac.sphercap import assemble, build_mesh


@pytest.fixture(scope="module")
def pure(half_es):
    return manufactured_field(half_es, [(0, 1.0)])


@pytest.fixture(scope="module")
def two_mode(half_es):
    # gamma gap about 1.0 for s = 1/2 on the half circle
    return manufactured_field(half_es, [(0, 1.0), (3, 0.2)])


def test_quad_rows_equal_per_sphere_products(half_es):
    # equator traces of C-ordered samples are F-ordered (strided rows); each
    # row must still equal the product on one sphere's (contiguous) vector,
    # bit for bit
    from conefrac.almgren import _quad
    forms = half_es.forms
    v = np.random.default_rng(5).standard_normal((7, forms.mesh.n_nodes))
    for A, X in ((forms.Bth, v[:, forms.mesh.equator_ids]), (forms.M, v)):
        Y = 1.0 + X ** 2
        rows = [(x.copy(), y.copy()) for x, y in zip(X, Y)]
        assert np.array_equal(_quad(A, X), [x @ (A @ x) for x, _ in rows])
        assert np.array_equal(_quad(A, X, Y), [x @ (A @ y) for x, y in rows])


# ---------------------------------------------------------------------------
# H and D on manufactured fields
# ---------------------------------------------------------------------------

def test_H_pure_profile_power(pure, half_es, half_params):
    g = half_es.gamma[0]
    for r in (0.03, 0.2, 0.77):
        assert compute_H(pure, r, half_params) == pytest.approx(
            r ** (2 * g), rel=1e-12)


def test_H_constant_field():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(16, 32, s, cap)
    es = solve_eigs(assemble(mesh, p), p, k=2)
    amp = 1.0 / es.vectors[0].mean()          # rescale psi_1 to the constant 1
    fld = manufactured_field(es, [(0, amp)])
    expected = 2.0 * math.pi / (2.0 - 2.0 * s)
    for r in (0.1, 0.5, 0.9):
        assert compute_H(fld, r, p) == pytest.approx(expected, rel=1e-9)
        assert abs(compute_D(fld, r, p)) < 1e-12


def test_H_scaling_under_dilation(pure, half_es, half_params):
    # H of z -> U(tau z) at radius r equals H_U(tau r)
    tau = 0.37
    scaled = manufactured_field(
        half_es, [(0, tau ** half_es.gamma[0])])
    for r in (0.1, 0.6):
        assert compute_H(scaled, r, half_params) == pytest.approx(
            compute_H(pure, tau * r, half_params), rel=1e-12)


def test_D_pure_profile(pure, half_es, half_params, half_cap):
    g = half_es.gamma[0]
    for r in (0.05, 0.4, 0.8):
        D = compute_D(pure, r, half_params, None, half_cap)
        assert D == pytest.approx(g * r ** (2 * g), rel=1e-10)


def test_frequency_trace_pure(pure, half_es, half_params, half_cap):
    g = half_es.gamma[0]
    trace = frequency_trace(pure, half_params, None, half_cap)
    assert np.abs(trace.Ncal - g).max() < 1e-6
    assert np.abs(trace.H / trace.radii ** (2 * g) - 1.0).max() < 1e-8
    assert trace.gamma_hat == pytest.approx(g, abs=1e-8)


def test_H_prime_identity_pure(pure, half_params, half_cap):
    for r in (0.2, 0.5):
        res = check_H_prime_identity(pure, half_params, None, half_cap, r)
        assert res <= 1e-8


def test_H_prime_identity_constant():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(12, 24, s, cap)
    es = solve_eigs(assemble(mesh, p), p, k=1)
    fld = manufactured_field(es, [(0, 1.0)])
    assert check_H_prime_identity(fld, p, None, cap, 0.5) == 0.0


def test_two_mode_frequency(two_mode, half_es, half_params, half_cap):
    g1, g2 = half_es.gamma[0], half_es.gamma[3]
    trace = frequency_trace(two_mode, half_params, None, half_cap)
    # exact two-mode rational function of r^(2 dg)
    eps2 = 0.2 ** 2
    dg = g2 - g1
    expected = (g1 + g2 * eps2 * trace.radii ** (2 * dg)) \
        / (1.0 + eps2 * trace.radii ** (2 * dg))
    np.testing.assert_allclose(trace.Ncal, expected, rtol=1e-9)
    assert np.all(np.diff(trace.Ncal) >= -1e-12)
    assert trace.gamma_hat == pytest.approx(g1, abs=1e-2)
    # brute-force small radius: N(1e-3) close to gamma_1
    small = compute_D(two_mode, 1e-3, half_params, None, half_cap) \
        / compute_H(two_mode, 1e-3, half_params)
    assert small == pytest.approx(g1, abs=1e-5)


def test_frequency_floor(two_mode, half_params, half_cap):
    trace = frequency_trace(two_mode, half_params, None, half_cap)
    assert np.all(trace.Ncal > -half_params.half_order)


def test_H_positive_enforced(half_es, half_params):
    zero = manufactured_field(half_es, [(0, 0.0)])
    with pytest.raises(NumericalError):
        compute_H(zero, 0.5, half_params)


# ---------------------------------------------------------------------------
# blow-up snapshots
# ---------------------------------------------------------------------------

def test_blowup_normalization(two_mode, half_params):
    for tau in (1.0, 0.3, 1e-2):
        snap = blowup(two_mode, tau, half_params)
        assert snap.boundary_norm() == pytest.approx(1.0, abs=1e-10)


def test_blowup_pure_profile_scale_invariant(pure, half_es, half_params):
    snaps = [blowup(pure, tau, half_params) for tau in (1.0, 0.25, 1e-2)]
    vals = [s.sphere_values(0.6) for s in snaps]
    for v in vals[1:]:
        np.testing.assert_allclose(v, vals[0], rtol=1e-10, atol=1e-13)


def test_blowup_two_mode_converges_to_leading(two_mode, pure, half_es,
                                              half_params):
    dists = []
    for tau in (0.5, 0.25, 0.125):
        snap = blowup(two_mode, tau, half_params)
        dists.append(snap.h1_distance(pure))
    assert dists[0] > dists[1] > dists[2]
    # decay rate tau^(g2 - g1), here about one power of two per halving
    assert dists[0] / dists[2] > 3.0


def test_blowup_off_group_projection(two_mode, half_es, half_params):
    snap = blowup(two_mode, 1e-2, half_params)
    assert snap.off_group_norm(half_es, 0) <= 0.05
    # and the in-group projection is close to one
    assert abs(snap.projection(half_es, 0)) == pytest.approx(1.0, abs=1e-3)


def test_blowup_off_group_tends_to_zero(two_mode, half_es, half_params):
    # the snapshot collapses onto the leading multiplicity group as tau -> 0
    offs = [blowup(two_mode, tau, half_params).off_group_norm(half_es, 0)
            for tau in (0.3, 0.1, 0.03)]
    assert offs[0] > offs[1] > offs[2]
    assert offs[2] < 1e-3


def test_fourier_zeta_accessor(solver_field, half_es, half_params, half_cap):
    fld, h = solver_field
    taus = np.geomspace(0.1, 0.8, 40)
    ft = fourier_coeffs(fld, half_es, taus, half_params, h, half_cap)
    z = ft.zeta(0)
    assert z.shape == taus.shape
    # forcing vanishes identically when h does
    pure_ft = fourier_coeffs(manufactured_field(half_es, [(0, 1.0)]),
                             half_es, taus, half_params, None, half_cap)
    assert np.all(pure_ft.zeta(0) == 0.0)


def test_blowup_validation(pure, half_params):
    with pytest.raises(DomainError):
        blowup(pure, 0.0, half_params)
    with pytest.raises(DomainError):
        blowup(pure, 1.5, half_params)


# ---------------------------------------------------------------------------
# Fourier profiles and amplitudes
# ---------------------------------------------------------------------------

def test_fourier_pure_profile(pure, half_es, half_params, half_cap):
    taus = default_radii()
    ft = fourier_coeffs(pure, half_es, taus, half_params, None, half_cap)
    g = half_es.gamma[0]
    np.testing.assert_allclose(ft.phi[0], taus ** g, rtol=1e-10)
    assert np.abs(ft.phi[1:]).max() < 1e-8
    assert np.all(ft.ups == 0.0)


def test_fourier_parseval(two_mode, half_es, half_params, half_cap):
    taus = np.geomspace(1e-2, 0.8, 12)
    ft = fourier_coeffs(two_mode, half_es, taus, half_params, None,
                        half_cap)
    for i, tau in enumerate(taus):
        H = compute_H(two_mode, tau, half_params)
        partial = 0.0
        for pos in range(half_es.k):
            partial += ft.phi[pos, i] ** 2
            assert partial <= H * (1.0 + 1e-8)
    # the two active modes already exhaust H
    recon = ft.phi[0] ** 2 + ft.phi[3] ** 2
    Hs = np.array([compute_H(two_mode, t, half_params) for t in taus])
    np.testing.assert_allclose(recon, Hs, rtol=1e-10)


def test_fourier_provenance_checks(pure, half_es, half_params):
    other_cap = SphericalCap(0.0, math.pi)
    with pytest.raises(DomainError):
        fourier_coeffs(pure, half_es, [0.5], half_params, None, other_cap)
    bad_params = ProblemParams(s=half_params.s, lam=0.0)
    with pytest.raises(DomainError):
        fourier_coeffs(pure, half_es, [0.5], bad_params, None, half_es.cap)


def test_beta_pure_profile(pure, half_es, half_params, half_cap):
    taus = default_radii()
    ft = fourier_coeffs(pure, half_es, taus, half_params, None, half_cap)
    g = half_es.gamma[0]
    values = [beta_coefficients(ft, g, R, half_params)[0]
              for R in (0.3, 0.5, 0.7)]
    assert max(values) - min(values) < 1e-6
    assert values[1] == pytest.approx(1.0, rel=1e-9)
    # off modes carry no amplitude
    others = beta_coefficients(ft, g, 0.5, half_params)[1:]
    assert np.abs(others).max() < 1e-8


def test_beta_validation(pure, half_es, half_params, half_cap):
    ft = fourier_coeffs(pure, half_es, default_radii(), half_params, None,
                        half_cap)
    with pytest.raises(DomainError):
        beta_coefficients(ft, 0.5, 1.5, half_params)


# ---------------------------------------------------------------------------
# Pohozaev diagnostics
# ---------------------------------------------------------------------------

def test_pohozaev_pure_profile_equality(pure, half_params, half_cap):
    for r in (0.2, 0.5, 0.8):
        rep = pohozaev_check(pure, half_params, None, half_cap, r)
        assert rep.satisfied
        assert abs(rep.lhs - rep.rhs) / rep.scale < 1e-6
        assert rep.green_residual < 1e-6


def test_pohozaev_constant_field_zero():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(12, 24, s, cap)
    es = solve_eigs(assemble(mesh, p), p, k=1)
    fld = manufactured_field(es, [(0, 1.0)])
    rep = pohozaev_check(fld, p, None, cap, 0.5)
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12
    assert rep.green_residual < 1e-9 or rep.scale < 1e-10


# ---------------------------------------------------------------------------
# solver-output diagnostics
# ---------------------------------------------------------------------------

def test_solver_field_green_identity(solver_field, half_params, half_cap):
    fld, h = solver_field
    for r in np.linspace(0.25, 0.75, 5):
        rep = pohozaev_check(fld, half_params, h, half_cap, float(r))
        assert rep.green_residual < 0.01
        assert rep.satisfied


def test_solver_field_H_prime_identity(solver_field, half_params, half_cap):
    fld, h = solver_field
    for r in (0.3, 0.5):
        res = check_H_prime_identity(fld, half_params, h, half_cap, r)
        assert res <= 1e-2


def test_solver_field_trace_matches_pointwise_D(solver_field, half_params,
                                                half_cap):
    # one plan for all radii against a plan per radius: the panels differ,
    # the integrals agree to the quadrature error
    fld, h = solver_field
    radii = default_radii(r_min=0.02, n=12)
    trace = frequency_trace(fld, half_params, h, half_cap, radii=radii)
    for r, H, D in zip(radii, trace.H, trace.D):
        assert H == compute_H(fld, r, half_params)
        assert D == pytest.approx(compute_D(fld, r, half_params, h, half_cap),
                                  rel=1e-7)


def test_solver_field_gamma_consistency(solver_field, half_es, half_params,
                                        half_cap):
    fld, h = solver_field
    trace = frequency_trace(fld, half_params, h, half_cap,
                            radii=default_radii(r_min=0.02))
    assert trace.gamma_hat == pytest.approx(half_es.gamma[0], abs=1e-2)


def _d1_log(y, dx):
    """Fourth-order first derivative on a uniform grid."""
    d = np.zeros_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * dx)
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = c @ y[:5] / dx
    d[1] = c @ y[1:6] / dx
    d[-1] = -c @ y[-5:][::-1] / dx
    d[-2] = -c @ y[-6:-1][::-1] / dx
    return d


def test_solver_field_mode_ode_residual(solver_field, half_es, half_params,
                                        half_cap):
    # the leading mode profile satisfies
    #   -phi'' - (N+1-2s)/tau phi' + mu/tau^2 phi = zeta,
    # zeta = tau^(2s-N-1) Upsilon', within 5 percent at mid radii in the
    # tau^2-weighted norm, measured against the natural term scale
    # |mu| ||phi|| of the scaled equation (the forcing itself sits well
    # below the homogeneous terms for a bounded perturbation)
    fld, h = solver_field
    taus = np.geomspace(0.15, 0.8, 120)
    ft = fourier_coeffs(fld, half_es, taus, half_params, h, half_cap)
    x = np.log(taus)
    dx = x[1] - x[0]
    phi = ft.phi[0]
    ups = ft.ups[0]
    dphi = _d1_log(phi, dx)
    d2phi = _d1_log(dphi, dx)
    dups = _d1_log(ups, dx)
    N, s = half_params.N, half_params.s
    mu = half_es.mu[0]
    # in log radius: phi' = e^-x phi_x, phi'' = e^-2x (phi_xx - phi_x)
    lhs = -(d2phi - dphi) / taus ** 2 - (N + 1 - 2 * s) / taus ** 2 * dphi \
        + mu / taus ** 2 * phi
    zeta = taus ** (2 * s - N - 1) * dups / taus
    mid = slice(20, 100)
    w = taus[mid] ** 2
    resid = np.linalg.norm(w * (lhs[mid] - zeta[mid]))
    scale = max(np.linalg.norm(abs(mu) * phi[mid]),
                np.linalg.norm(w * zeta[mid]))
    assert resid <= 0.05 * scale
