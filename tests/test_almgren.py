"""Frequency machinery: exactness on homogeneous profiles, two-mode
asymptotics, blow-up classification, mode profiles, amplitudes and the
Pohozaev diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from conefrac.almgren import (_fit_gamma, beta_coefficients, blowup,
                              check_H_prime_identity, compute_D, compute_H,
                              fourier_coeffs, frequency_trace, pohozaev_check)
from conefrac.cones import SphericalCap
from conefrac.config import analyzer_radii
from conefrac.errors import DomainError, NumericalError
from conefrac.expressions import parse_expression
from conefrac.extension import build_halfball_grid, manufactured_field, \
    solve_extension
from conefrac.params import ProblemParams
from conefrac.spectral import solve_eigs
from conefrac.sphercap import _KronForm, band_to_dense, build_mesh


@pytest.fixture(scope="module")
def pure(half_es):
    return manufactured_field(half_es, [(0, 1.0)])


@pytest.fixture(scope="module")
def two_mode(half_es):
    # gamma gap about 1.0 for s = 1/2 on the half circle
    return manufactured_field(half_es, [(0, 1.0), (3, 0.2)])


def test_bilinear_rows_equal_single_row_calls(half_es):
    # a row of a batched call must equal the call at that radius alone, bit
    # for bit, also for strided rows (equator columns of C-ordered samples)
    from conefrac.almgren import _bilinear
    mesh = half_es.mesh
    rng = np.random.default_rng(5)
    v = rng.standard_normal((7, mesh.n_nodes))
    for G, X in ((band_to_dense(mesh.Bth), v[:, mesh.equator_ids]),
                 (rng.standard_normal((66, 66)), v[:, :66])):
        Y = 1.0 + X ** 2
        rows = [(x[None].copy(), y[None].copy()) for x, y in zip(X, Y)]
        assert np.array_equal(_bilinear(X, G),
                              [_bilinear(x, G)[0] for x, _ in rows])
        assert np.array_equal(_bilinear(X, G, Y),
                              [_bilinear(x, G, y)[0] for x, y in rows])


# ---------------------------------------------------------------------------
# H and D on manufactured fields
# ---------------------------------------------------------------------------

def test_H_pure_profile_power(pure, half_es):
    g = half_es.gamma[0]
    for r in (0.03, 0.2, 0.77):
        assert compute_H(pure, r) == pytest.approx(r ** (2 * g), rel=1e-12)


def test_H_constant_field():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(16, 32, s, cap)
    es = solve_eigs(mesh, p, k=2)
    amp = 1.0 / es.vectors[0].mean()          # rescale psi_1 to the constant 1
    fld = manufactured_field(es, [(0, amp)])
    expected = 2.0 * math.pi / (2.0 - 2.0 * s)
    for r in (0.1, 0.5, 0.9):
        assert compute_H(fld, r) == pytest.approx(expected, rel=1e-9)
        assert abs(compute_D(fld, r)) < 1e-12


def test_H_scaling_under_dilation(pure, half_es):
    # H of z -> U(tau z) at radius r equals H_U(tau r)
    tau = 0.37
    scaled = manufactured_field(
        half_es, [(0, tau ** half_es.gamma[0])])
    for r in (0.1, 0.6):
        assert compute_H(scaled, r) == pytest.approx(
            compute_H(pure, tau * r), rel=1e-12)


def test_D_pure_profile(pure, half_es):
    g = half_es.gamma[0]
    for r in (0.05, 0.4, 0.8):
        D = compute_D(pure, r)
        assert D == pytest.approx(g * r ** (2 * g), rel=1e-10)


def test_frequency_trace_pure(pure, half_es):
    g = half_es.gamma[0]
    trace = frequency_trace(pure, analyzer_radii(0.8, 40, pure.core_radius))
    assert np.abs(trace.Ncal - g).max() < 1e-6
    assert np.abs(trace.H / trace.radii ** (2 * g) - 1.0).max() < 1e-8
    assert trace.gamma_hat == pytest.approx(g, abs=1e-8)


def test_H_prime_identity_pure(pure):
    for r in (0.2, 0.5):
        res = check_H_prime_identity(pure, r)
        assert res <= 1e-8


def test_H_prime_identity_constant():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(12, 24, s, cap)
    es = solve_eigs(mesh, p, k=1)
    fld = manufactured_field(es, [(0, 1.0)])
    assert check_H_prime_identity(fld, 0.5) == 0.0


def test_two_mode_frequency(two_mode, half_es):
    g1, g2 = half_es.gamma[0], half_es.gamma[3]
    trace = frequency_trace(two_mode,
                            analyzer_radii(0.8, 40, two_mode.core_radius))
    # exact two-mode rational function of r^(2 dg)
    eps2 = 0.2 ** 2
    dg = g2 - g1
    expected = (g1 + g2 * eps2 * trace.radii ** (2 * dg)) \
        / (1.0 + eps2 * trace.radii ** (2 * dg))
    np.testing.assert_allclose(trace.Ncal, expected, rtol=1e-9)
    assert np.all(np.diff(trace.Ncal) >= -1e-12)
    assert trace.gamma_hat == pytest.approx(g1, abs=1e-2)
    # brute-force small radius: N(1e-3) close to gamma_1
    small = compute_D(two_mode, 1e-3) / compute_H(two_mode, 1e-3)
    assert small == pytest.approx(g1, abs=1e-5)


def test_frequency_floor(two_mode, half_params):
    trace = frequency_trace(two_mode,
                            analyzer_radii(0.8, 40, two_mode.core_radius))
    assert np.all(trace.Ncal > -half_params.half_order)


def test_H_positive_enforced(half_es):
    zero = manufactured_field(half_es, [(0, 0.0)])
    with pytest.raises(NumericalError):
        compute_H(zero, 0.5)


@pytest.mark.parametrize("delta", [0.5, 2.0, 4.03])
@pytest.mark.parametrize("c", [1.0, 1e-3, -0.3, 1e-6, 1e-8, -1e-8])
def test_fit_recovers_synthetic_remainder(delta, c):
    # N = gamma + c r^delta, exact up to rounding: the variable-projection
    # fit recovers gamma and delta even when the remainder is tiny
    radii = np.geomspace(0.1, 4.0, 40)
    for gamma in (0.4525991561320234, 1.5, -0.2):
        g, d, coef, fallback = _fit_gamma(radii, gamma + c * radii ** delta)
        assert not fallback
        assert abs(g - gamma) <= 1e-12
        assert abs(d - delta) <= 1e-6
        assert coef == pytest.approx(c, rel=1e-4)


def test_fit_keeps_its_branches():
    radii = np.geomspace(1e-2, 0.8, 40)
    # a flat N has no remainder to fit
    assert _fit_gamma(radii, np.full(40, 0.75)) == (0.75, None, 0.0, False)
    # a pinned exponent is a linear fit
    g, d, c, fallback = _fit_gamma(radii, 0.3 - 2.0 * radii ** 0.9, 0.9)
    assert (d, fallback) == (0.9, False)
    assert g == pytest.approx(0.3, abs=1e-13)
    assert c == pytest.approx(-2.0, rel=1e-12)
    # a non-finite N falls back to its smallest-radius value
    bad = 0.3 + radii
    bad[3] = np.nan
    assert _fit_gamma(radii, bad) == (bad[0], None, None, True)


# ---------------------------------------------------------------------------
# blow-up snapshots
# ---------------------------------------------------------------------------

def test_blowup_normalization(two_mode):
    for tau in (1.0, 0.3, 1e-2):
        snap = blowup(two_mode, tau)
        assert snap.boundary_norm() == pytest.approx(1.0, abs=1e-10)


def test_blowup_pure_profile_scale_invariant(pure, half_es):
    snaps = [blowup(pure, tau) for tau in (1.0, 0.25, 1e-2)]
    vals = [s.sphere_values(0.6) for s in snaps]
    for v in vals[1:]:
        np.testing.assert_allclose(v, vals[0], rtol=1e-10, atol=1e-13)


def test_blowup_two_mode_converges_to_leading(two_mode, pure, half_es):
    dists = []
    for tau in (0.5, 0.25, 0.125):
        snap = blowup(two_mode, tau)
        dists.append(snap.h1_distance(pure))
    assert dists[0] > dists[1] > dists[2]
    # decay rate tau^(g2 - g1), here about one power of two per halving
    assert dists[0] / dists[2] > 3.0


def test_blowup_off_group_projection(two_mode, half_es):
    snap = blowup(two_mode, 1e-2)
    assert snap.off_group_norm(half_es, 0) <= 0.05
    # and the in-group projection is close to one
    assert abs(snap.projection(half_es, 0)) == pytest.approx(1.0, abs=1e-3)


def test_blowup_off_group_tends_to_zero(two_mode, half_es):
    # the snapshot collapses onto the leading multiplicity group as tau -> 0
    offs = [blowup(two_mode, tau).off_group_norm(half_es, 0)
            for tau in (0.3, 0.1, 0.03)]
    assert offs[0] > offs[1] > offs[2]
    assert offs[2] < 1e-3


def test_blowup_validation(pure):
    with pytest.raises(DomainError):
        blowup(pure, 0.0)
    with pytest.raises(DomainError):
        blowup(pure, 1.5)


# ---------------------------------------------------------------------------
# Fourier profiles and amplitudes
# ---------------------------------------------------------------------------

def test_fourier_pure_profile(pure, half_es):
    taus = analyzer_radii(0.8, 40, pure.core_radius)
    ft = fourier_coeffs(pure, half_es, taus)
    g = half_es.gamma[0]
    np.testing.assert_allclose(ft.phi[0], taus ** g, rtol=1e-10)
    assert np.abs(ft.phi[1:]).max() < 1e-8
    assert np.all(ft.ups == 0.0)


def test_fourier_parseval(two_mode, half_es):
    taus = np.geomspace(1e-2, 0.8, 12)
    ft = fourier_coeffs(two_mode, half_es, taus)
    for i, tau in enumerate(taus):
        H = compute_H(two_mode, tau)
        partial = 0.0
        for pos in range(half_es.k):
            partial += ft.phi[pos, i] ** 2
            assert partial <= H * (1.0 + 1e-8)
    # the two active modes already exhaust H
    recon = ft.phi[0] ** 2 + ft.phi[3] ** 2
    Hs = np.array([compute_H(two_mode, t) for t in taus])
    np.testing.assert_allclose(recon, Hs, rtol=1e-10)


def test_fourier_provenance_checks(half_es, half_params):
    # a field solving the problem at another lam
    bad_es = dataclasses.replace(
        half_es, params=ProblemParams(s=half_params.s, lam=0.0))
    with pytest.raises(DomainError):
        fourier_coeffs(manufactured_field(bad_es, [(0, 1.0)]), half_es,
                       [0.5])

    # a field on another cap, projected on a mesh of the same size
    def es_on(cap):
        mesh = build_mesh(12, 24, half_params.s, cap)
        return solve_eigs(mesh, half_params, k=3)

    fld = manufactured_field(es_on(SphericalCap(0.0, math.pi)), [(0, 1.0)])
    with pytest.raises(DomainError):
        fourier_coeffs(fld, es_on(SphericalCap(0.5, 2.5)), [0.5])
    # meshes are compared by value: one built anew on the same cap passes
    ft = fourier_coeffs(fld, es_on(SphericalCap(0.0, math.pi)), [0.5])
    assert ft.phi[0, 0] == pytest.approx(0.5 ** fld.gammas[0], rel=1e-12)


def test_beta_pure_profile(pure, half_es):
    taus = analyzer_radii(0.8, 40, pure.core_radius)
    ft = fourier_coeffs(pure, half_es, taus)
    g = half_es.gamma[0]
    values = [beta_coefficients(ft, g, R)[0] for R in (0.3, 0.5, 0.7)]
    assert max(values) - min(values) < 1e-6
    assert values[1] == pytest.approx(1.0, rel=1e-9)
    # off modes carry no amplitude
    others = beta_coefficients(ft, g, 0.5)[1:]
    assert np.abs(others).max() < 1e-8


def test_beta_validation(pure, half_es):
    ft = fourier_coeffs(pure, half_es,
                        analyzer_radii(0.8, 40, pure.core_radius))
    with pytest.raises(DomainError):
        beta_coefficients(ft, 0.5, 1.5)


# ---------------------------------------------------------------------------
# Pohozaev diagnostics
# ---------------------------------------------------------------------------

def test_pohozaev_pure_profile_equality(pure):
    for r in (0.2, 0.5, 0.8):
        rep = pohozaev_check(pure, r)
        assert rep.satisfied
        assert abs(rep.lhs - rep.rhs) / rep.scale < 1e-6
        assert rep.green_residual < 1e-6


def test_pohozaev_constant_field_zero():
    s = 0.5
    p = ProblemParams(s=s, lam=0.0)
    cap = SphericalCap.full_circle()
    mesh = build_mesh(12, 24, s, cap)
    es = solve_eigs(mesh, p, k=1)
    fld = manufactured_field(es, [(0, 1.0)])
    rep = pohozaev_check(fld, 0.5)
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12
    assert rep.green_residual < 1e-9 or rep.scale < 1e-10


# ---------------------------------------------------------------------------
# solver-output diagnostics
# ---------------------------------------------------------------------------

def test_solver_field_green_identity(solver_field):
    fld = solver_field
    for r in np.linspace(0.25, 0.75, 5):
        rep = pohozaev_check(fld, float(r))
        assert rep.green_residual < 0.01
        assert rep.satisfied


def test_solver_field_H_prime_identity(solver_field):
    fld = solver_field
    for r in (0.3, 0.5):
        res = check_H_prime_identity(fld, r)
        assert res <= 1e-2


def test_solver_field_trace_matches_pointwise_D(solver_field):
    # one plan for all radii against a plan per radius: the panels differ,
    # the integrals agree to the quadrature error
    fld = solver_field
    radii = np.geomspace(0.02, 0.8, 12)
    trace = frequency_trace(fld, radii=radii)
    for r, H, D in zip(radii, trace.H, trace.D):
        assert H == compute_H(fld, r)
        assert D == pytest.approx(compute_D(fld, r), rel=1e-7)


def test_solver_field_gamma_consistency(solver_field, half_es):
    fld = solver_field
    trace = frequency_trace(fld, radii=np.geomspace(0.02, 0.8, 40))
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


def test_solver_field_mode_ode_residual(solver_field, half_es, half_params):
    # the leading mode profile satisfies
    #   -phi'' - (N+1-2s)/tau phi' + mu/tau^2 phi = zeta,
    # zeta = tau^(2s-N-1) Upsilon', within 5 percent at mid radii in the
    # tau^2-weighted norm, measured against the natural term scale
    # |mu| ||phi|| of the scaled equation (the forcing itself sits well
    # below the homogeneous terms for a bounded perturbation)
    fld = solver_field
    taus = np.geomspace(0.15, 0.8, 120)
    ft = fourier_coeffs(fld, half_es, taus)
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


# ---------------------------------------------------------------------------
# Gram evaluation against the per-node sphere quadrature it replaced
# ---------------------------------------------------------------------------

def _per_node(A, X, Y=None):
    """Sample the sphere, then x @ (A @ y) per radius: the evaluation the
    Gram path replaced, kept as its reference."""
    return np.array([x @ (A @ y) for x, y in zip(X, X if Y is None else Y)])


def _reference_terms(fld, radii, params, h):
    """(vol, hardy, trace_h) up to every radius from per-node samples on
    the analyzer's plan; manufactured fields keep their closed forms."""
    from conefrac.almgren import (_equator_rows, _manufactured_terms,
                                  _plan_for)
    N, s, mesh = params.N, params.s, fld.mesh
    plan = _plan_for(fld, radii)
    lo = plan.edges[0]
    rho = np.append(lo, plan.rho)
    core = np.minimum(radii, lo) / lo
    tr = fld.sphere_values(rho)[:, fld.mesh.equator_ids]
    if fld.is_analytic:
        vol, hardy = _manufactured_terms(fld, radii)
        h_power = math.inf
    else:
        gloc = fld.local_power()
        e_vol = (rho ** (N + 1 - 2 * s)
                 * _per_node(mesh.M, fld.sphere_radial_derivative(rho))
                 + rho ** (N - 1 - 2 * s)
                 * _per_node(mesh.K, fld.sphere_values(rho)))
        e_hardy = rho ** (N - 1 - 2 * s) * _per_node(
            band_to_dense(mesh.Bth), tr)
        power = N - 2.0 * s + 2.0 * gloc
        vol = (plan.integrate(e_vol[1:], radii)
               + e_vol[0] * lo / power * core ** power)
        hardy = (plan.integrate(e_hardy[1:], radii)
                 + e_hardy[0] * lo / power * core ** power)
        h_power = N + 2.0 * gloc
    if h is None:
        return vol, hardy, np.zeros_like(vol)
    e_h = rho ** (N - 1) * _per_node(
        band_to_dense(mesh.Bth), _equator_rows(h, rho, fld.mesh) * tr, tr)
    return vol, hardy, (plan.integrate(e_h[1:], radii)
                        + e_h[0] * lo / h_power * core ** h_power)


def _reference_pohozaev(fld, params, h, radii):
    """(lhs, rhs, flux, green residual) from per-node samples."""
    from conefrac.almgren import _equator_rows, _plan_for
    N, s, kappa, mesh = params.N, params.s, params.kappa, fld.mesh
    lam = fld.es.lam if fld.is_analytic else params.lam
    v = fld.sphere_values(radii)
    g = fld.sphere_radial_derivative(radii)
    tr = v[:, fld.mesh.equator_ids]
    norm_der = radii ** (N + 1 - 2 * s) * _per_node(mesh.M, g)
    grad = norm_der + radii ** (N - 1 - 2 * s) * _per_node(mesh.K, v)
    Bth = band_to_dense(mesh.Bth)
    circ_hardy = radii ** (N - 1 - 2 * s) * _per_node(Bth, tr)
    vol, hardy, trace_h = _reference_terms(fld, radii, params, h)
    lhs = 0.5 * radii * (grad - kappa * lam * circ_hardy) - radii * norm_der
    if h is not None:
        circ_h = radii ** (N - 1) * _per_node(
            Bth, _equator_rows(h, radii, fld.mesh) * tr, tr)
        rho = _plan_for(fld, radii).rho
        th = fld.mesh.theta_nodes
        mix = (_equator_rows(h.diff("x1"), rho, fld.mesh) * np.cos(th)
               + _equator_rows(h.diff("x2"), rho, fld.mesh) * np.sin(th)
               ) * rho[:, None] + N * _equator_rows(h, rho, fld.mesh)
        trr = fld.sphere_values(rho)[:, fld.mesh.equator_ids]
        euler = _plan_for(fld, radii).integrate(
            rho ** (N - 1) * _per_node(Bth, mix * trr, trr), radii)
        lhs += 0.5 * kappa * euler - 0.5 * radii * kappa * circ_h
    rhs = 0.5 * (N - 2.0 * s) * (vol - kappa * lam * hardy)
    flux = radii ** (N + 1 - 2 * s) * _per_node(mesh.M, v, g)
    energy = vol - kappa * (lam * hardy + trace_h)
    scale = np.max(np.abs([energy, flux, lhs, rhs]), axis=0)
    return lhs, rhs, flux, np.abs(energy - flux) / scale


def _posed(fld, params):
    """The same field, owning the problem ``params`` instead of its own."""
    from conefrac.extension import GridField, ManufacturedField
    if fld.is_analytic:
        return ManufacturedField(
            es=dataclasses.replace(fld.es, params=params), modes=fld.modes,
            betas=fld.betas)
    return GridField(fld.grid, fld.values, params)


@pytest.mark.parametrize("kind", ["grid", "two_mode"])
def test_gram_path_matches_per_node_reference(kind, solver_field, two_mode,
                                              pure, half_es, half_params):
    from conefrac.almgren import _bilinear, _radial_plan
    p, rel = half_params, 1e-12
    if kind == "grid":
        fld = solver_field
        shells = fld.grid.r_nodes[[3, 10, 20]]
        # below r_min (power continuation), on shells, between shells
        radii = np.sort(np.concatenate([[0.4 * fld.grid.r_min], shells,
                                        [0.05, 0.3, 0.7]]))
    else:
        fld = two_mode
        radii = np.array([1e-3, 0.05, 0.3, 0.7])
    v = fld.sphere_values(radii)
    g = fld.sphere_radial_derivative(radii)
    c = fld.coefficients(radii)
    cg = fld.coefficients(radii, derivative=True)
    mesh = fld.mesh
    H = np.array([compute_H(fld, r) for r in radii])
    np.testing.assert_allclose(H, _per_node(mesh.M, v), rtol=rel, atol=0)
    np.testing.assert_allclose(_bilinear(c, fld.grams["M"], cg),
                               _per_node(mesh.M, v, g), rtol=rel, atol=0)
    np.testing.assert_allclose(_bilinear(c, fld.grams["K"]),
                               _per_node(mesh.K, v), rtol=rel, atol=0)

    h = parse_expression("0.1 + 0.05*x1")
    for hh in (None, h):
        fh = _posed(fld, dataclasses.replace(p, h=hh))
        vol, hardy, trace_h = _reference_terms(fh, radii, p, hh)
        lam = fh.es.lam if fh.is_analytic else p.lam
        D_ref = radii ** (2 * p.s - p.N) * (
            vol - p.kappa * (lam * hardy + trace_h))
        D = frequency_trace(fh, radii=radii).D
        np.testing.assert_allclose(D, D_ref, rtol=rel, atol=0)

        lhs, rhs, flux, green = _reference_pohozaev(fh, p, hh, radii)
        reps = pohozaev_check(fh, radii)
        np.testing.assert_allclose([q.lhs for q in reps], lhs, rtol=rel)
        np.testing.assert_allclose([q.rhs for q in reps], rhs, rtol=rel)
        # the residual is already relative to the scale
        np.testing.assert_allclose([q.green_residual for q in reps], green,
                                   rtol=0, atol=rel)

    ft = fourier_coeffs(_posed(fld, p), half_es, radii)
    phi_ref = half_es.vectors @ (half_es.mesh.M @ v.T)
    np.testing.assert_allclose(ft.phi, phi_ref, rtol=0,
                               atol=rel * np.abs(phi_ref).max())

    snap = blowup(fld, 0.3)
    w = snap.sphere_values(1.0)
    proj = half_es.vectors @ (mesh.M @ w)
    others = np.setdiff1d(np.arange(half_es.k), half_es.group_members(0))
    assert snap.off_group_norm(half_es, 0) == pytest.approx(
        math.sqrt(sum(proj[others] ** 2)), rel=rel)
    plan = _radial_plan([1e-4, 1.0])
    rho = plan.rho
    dv = snap.sphere_values(rho) - pure.sphere_values(rho)
    dg = (fld.sphere_radial_derivative(0.3 * rho) * 0.3 / snap.scale
          - pure.sphere_radial_derivative(rho))
    N, s = p.N, p.s
    f = (rho ** (N + 1 - 2 * s) * (_per_node(mesh.M, dg)
                                   + _per_node(mesh.M, dv))
         + rho ** (N - 1 - 2 * s) * _per_node(mesh.K, dv))
    assert snap.h1_distance(pure) == pytest.approx(
        math.sqrt(plan.integrate(f, [1.0])[0]), rel=rel)


def test_analyzer_products_do_not_scale_with_radii(solver_field,
                                                   monkeypatch):
    # the per-radius cost is O(table rows^2): the hemisphere-size forms
    # meet only the table, however many radii are asked for
    from conefrac.extension import GridField
    fld = solver_field
    vectors = [0]
    rmatmul = _KronForm.__rmatmul__

    def counting(form, X):      # every product, form @ x included
        vectors[0] += 1 if np.ndim(X) == 1 else len(X)
        return rmatmul(form, X)

    monkeypatch.setattr(_KronForm, "__rmatmul__", counting)

    def products(n):
        vectors[0] = 0
        fresh = GridField(fld.grid, fld.values, fld.params)
        radii = np.geomspace(0.02, 0.8, n)
        frequency_trace(fresh, radii=radii)
        pohozaev_check(fresh, radii)
        return vectors[0]

    assert 0 < products(10) == products(20)
