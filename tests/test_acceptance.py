"""Acceptance criteria, one test per criterion, each at its stated
tolerance on its stated mesh.  Every test prints a single PASS/FAIL line
(run pytest with -s or read captured output) and asserts the same flag."""

import math
import warnings

import numpy as np
import pytest
from conftest import oracle_full_circle_1d

from conefrac.almgren import (beta_coefficients, blowup,
                              check_H_prime_identity, compute_D, compute_H,
                              fourier_coeffs, frequency_trace, pohozaev_check)
from conefrac.cones import (ConeProfile, SmoothedCone, SphericalCap,
                            cap_of_cone, smoothing_defect, smoothing_profile,
                            starshape_margin)
from conefrac.config import analyzer_radii
from conefrac.expressions import parse_expression
from conefrac.extension import (build_halfball_grid, manufactured_field,
                                solve_extension)
from conefrac.hardy import hardy_constant, hardy_scan
from conefrac.params import (ProblemParams, hardy_constant_full_space,
                             kappa_s)
from conefrac.spectral import solve_eigs
from conefrac.sphercap import build_mesh

ACCEPTANCE_MESH = (96, 192)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _cluster(mu, rtol=0.02):
    groups = [[mu[0]]]
    for v in mu[1:]:
        if abs(v - groups[-1][-1]) <= rtol * (1.0 + abs(v)):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [float(np.mean(g)) for g in groups]


def _solve(nt, ntheta, s, cap, lam=0.0, k=8, **kw):
    p = ProblemParams(s=s, lam=lam)
    mesh = build_mesh(nt, ntheta, s, cap, grading=2.0)
    return solve_eigs(mesh, p, k=k, **kw), p


def test_criterion_01_closed_form_constants():
    ok1 = kappa_s(0.5) == 1.0
    p = ProblemParams(N=2, s=0.5)
    oracle = (2.0 * math.gamma(3.0 / 4.0) ** 2
              / math.gamma(1.0 / 4.0) ** 2)
    err = abs(hardy_constant_full_space(p) - oracle)
    _report(1, "closed-form constants: kappa(1/2) = 1 exactly, full-space "
               "Hardy constant vs independent gamma within 1e-10",
            ok1 and err < 1e-10, f"hardy err {err:.2e}")


def test_criterion_02_spectral_anchors():
    nt, ntheta = ACCEPTANCE_MESH
    worst_full = 0.0
    floor_ok = True
    for s in (0.25, 0.5, 0.75):
        es, p = _solve(nt, ntheta, s, SphericalCap.full_circle(), k=16)
        floor_ok &= bool(np.all(es.mu > p.spectrum_floor - 1e-9))
        reps = _cluster(es.mu)[:5]
        exact = [k * (k + 2.0 - 2.0 * s) for k in range(5)]
        for r, e in zip(reps, exact):
            rel = abs(r - e) / e if e > 0 else abs(r)
            worst_full = max(worst_full, rel)
    worst_half = 0.0
    cap = cap_of_cone(ConeProfile.half_plane())
    for s in (0.25, 0.5, 0.75):
        es, p = _solve(nt, ntheta, s, cap, k=4)
        floor_ok &= bool(np.all(es.mu > p.spectrum_floor - 1e-9))
        exact = [(k + s) * (k + 2.0 - s) for k in range(2)]
        got = _cluster(es.mu)[:2]
        for r, e in zip(got, exact):
            worst_half = max(worst_half, abs(r - e) / e)
    ok = worst_full < 0.01 and worst_half < 0.02
    test_criterion_02_spectral_anchors.floor_ok = floor_ok
    _report(2, "spectral anchors on 96x192: full circle k(k+2-2s) within "
               "1%, half circle (k+s)(k+2-s) within 2%",
            ok, f"full {worst_full:.3%}, half {worst_half:.3%}")


def test_criterion_03_oracle_agreement():
    nt, ntheta = ACCEPTANCE_MESH
    s = 0.5
    worst = 0.0
    for lam in (0.0, 0.1):
        es, p = _solve(nt, ntheta, s, SphericalCap.full_circle(),
                       lam=lam, k=16)
        for k_az in (0, 1, 2):
            fam = oracle_full_circle_1d(p, k_az, 1200)
            for mu_1d in fam[:2]:
                rel = np.abs(es.mu - mu_1d).min() / (1.0 + abs(mu_1d))
                worst = max(worst, rel)
    _report(3, "1-D/2-D oracle agreement for azimuthal k in {0,1,2}, "
               "lam in {0, 0.1}, within 0.5%",
            worst < 0.005, f"worst {worst:.4%}")


def test_criterion_04_hardy_duality():
    worst = 0.0
    for s in (0.5, 0.75):
        for cap in (cap_of_cone(ConeProfile.half_plane()),
                    SphericalCap.centered(1.5 * math.pi, 1.5 * math.pi)):
            p0 = ProblemParams(s=s)
            mesh = build_mesh(48, 96, s, cap, grading=2.0)
            lam_star = hardy_constant(mesh, p0).lambda_star
            p = ProblemParams(s=s, lam=lam_star)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                es = solve_eigs(mesh, p, k=1, allow_inadmissible=True)
            worst = max(worst, abs(es.mu[0] + (1.0 - s) ** 2))
    _report(4, "Hardy duality: mu_1 at lam = Lambda equals -(1-s)^2 "
               "within 1e-3 (s in {0.5, 0.75}, half and 3/4 caps)",
            worst < 1e-3, f"worst abs dev {worst:.2e}")


def test_criterion_05_hardy_monotonicity():
    nt, ntheta = ACCEPTANCE_MESH
    p = ProblemParams(s=0.5)
    arcs = [0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    results = hardy_scan(arcs, p, nt, ntheta)
    values = [r.lambda_star for r in results]
    margins = [a - b for a, b in zip(values, values[1:])]
    exact = hardy_constant_full_space(p)
    tail_rel = abs(values[-1] - exact) / exact
    ok = all(m > 1e-4 for m in margins) and tail_rel < 0.02
    _report(5, "Hardy constants strictly decreasing over arc lengths "
               "{pi/2, pi, 3pi/2, 2pi}, final within 2% of closed form",
            ok, f"margins {['%.3g' % m for m in margins]}, "
                f"tail {tail_rel:.3%}")


def test_criterion_06_almgren_exact_on_pure_profiles(half_es):
    fld = manufactured_field(half_es, [(0, 1.0)])
    g = half_es.gamma[0]
    radii = analyzer_radii(0.8, 40, fld.core_radius)    # 40 geometric radii
    trace = frequency_trace(fld, radii)
    dev_n = float(np.abs(trace.Ncal - g).max())
    dev_h = float(np.abs(trace.H / radii ** (2 * g) - 1.0).max())
    dev_id = max(check_H_prime_identity(fld, r) for r in (0.1, 0.4, 0.7))
    ok = dev_n < 1e-6 and dev_h < 1e-8 and dev_id <= 1e-8
    _report(6, "pure profiles: N(r) = gamma within 1e-6 across 40 radii, "
               "H/r^2gamma constant within 1e-8, H' = 2D/r within 1e-8",
            ok, f"N dev {dev_n:.1e}, H dev {dev_h:.1e}, id {dev_id:.1e}")


def test_criterion_07_blowup_classification(half_es):
    # modes 0 and 3: gamma gap ~ 1.0 >= 0.3, amplitude 0.2
    g1, g2 = half_es.gamma[0], half_es.gamma[3]
    assert g2 - g1 >= 0.3
    fld = manufactured_field(half_es, [(0, 1.0), (3, 0.2)])
    trace = frequency_trace(fld, analyzer_radii(0.8, 40, fld.core_radius))
    snap = blowup(fld, 1e-2)
    off = snap.off_group_norm(half_es, 0)
    ok = abs(trace.gamma_hat - g1) < 1e-2 and off <= 0.05
    _report(7, "two-mode blow-up: gamma_hat = gamma_1 within 1e-2 and "
               "off-group projection <= 0.05 at tau = 1e-2",
            ok, f"gamma dev {abs(trace.gamma_hat - g1):.2e}, off {off:.3f}")


def test_criterion_08_end_to_end_extension():
    s, lam = 0.5, 0.1
    p = ProblemParams(s=s, lam=lam, h=parse_expression("0.1"))
    cap = cap_of_cone(ConeProfile.half_plane())
    mesh = build_mesh(48, 96, s, cap, grading=2.0)
    es = solve_eigs(mesh, p, k=8)
    grid = build_halfball_grid(32, 1e-3, mesh)
    fld = solve_extension(grid, p, es.vectors[0], es=es)

    gamma1 = float(es.gamma[0])
    radii = analyzer_radii(0.8, 40, fld.core_radius)
    trace = frequency_trace(fld, radii)
    gamma_rel = abs(trace.gamma_hat - gamma1) / gamma1

    ft = fourier_coeffs(fld, es, radii)
    betas = [beta_coefficients(ft, gamma1, R)[0] for R in (0.3, 0.5, 0.7)]
    spread = (max(betas) - min(betas)) / max(abs(b) for b in betas)

    poho_ok = all(pohozaev_check(fld, float(r)).satisfied
                  for r in np.linspace(0.25, 0.75, 5))

    ok = gamma_rel < 0.05 and spread < 0.05 and poho_ok
    _report(8, "end-to-end 32x48x96 solve with h = 0.1: gamma_hat within "
               "5% of gamma_1, amplitude R-independent within 5%, "
               "Pohozaev at five radii",
            ok, f"gamma rel {gamma_rel:.3%}, beta spread {spread:.3%}, "
                f"pohozaev {poho_ok}")


def test_criterion_09_geometry_certificates():
    rng = np.random.default_rng(42)
    ok = True
    detail = []
    for n in (8, 16, 32, 64):
        bound = 1.5 / n ** 2
        # exact identities on the flat regimes
        ts_low = rng.uniform(0.0, 1.0 / n ** 2, 256)
        ts_high = rng.uniform(2.0 / n ** 2, 1.0, 256)
        ok &= bool(np.all(smoothing_profile(n, ts_low) == 0.0))
        ok &= bool(np.all(smoothing_profile(n, ts_high)
                          == ts_high - bound))
        # bracketing inequalities at 1e4 samples
        ts = np.concatenate([rng.uniform(0.0, 4.0 / n ** 2, 5000),
                             rng.uniform(0.0, 1.0, 5000)])
        defect = smoothing_defect(n, ts)
        dist = np.abs(smoothing_profile(n, ts) - ts)
        ok &= bool(np.all(defect <= 0.0) and np.all(defect >= -bound))
        ok &= bool(np.all(dist <= bound))
    cone = ConeProfile(1.0, 1.0)
    n = 12
    sc = SmoothedCone(cone, n)
    xs = rng.uniform(-2.0, 2.0, 1000)
    margins = np.array([starshape_margin(sc, (x, sc.psi(x))) for x in xs])
    star_ok = margins.min() >= 3.0 / (4.0 * n) - 1e-12
    sep = np.asarray(sc.psi(xs)) - np.asarray(cone.phi(xs))
    sep_ok = sep.min() >= 3.0 / (4.0 * n) - 1e-12
    ok = ok and star_ok and sep_ok
    detail.append(f"min margin {margins.min():.5f} >= {3.0 / (4 * n):.5f}")
    _report(9, "geometry certificates: exact smoothing identities, "
               "bracketing at 1e4 samples for n in {8,16,32,64}, "
               "star-shape and inclusion margins >= 3/(4n)",
            ok, "; ".join(detail))


def test_criterion_10_spectrum_floor(half_es, half_params):
    # bundled check over the matrices solved in this module plus the
    # half-cap fixture at lam = 0.1 and a lam scan below Lambda
    ok = bool(np.all(half_es.mu > half_params.spectrum_floor))
    cap = cap_of_cone(ConeProfile.half_plane())
    p0 = ProblemParams(s=0.6)
    mesh = build_mesh(24, 48, 0.6, cap, grading=2.0)
    lam_star = hardy_constant(mesh, p0).lambda_star
    for frac in (0.25, 0.6, 0.95):
        p = ProblemParams(s=0.6, lam=frac * lam_star)
        es = solve_eigs(mesh, p, k=6)
        ok &= bool(np.all(es.mu > p.spectrum_floor))
    ok &= getattr(test_criterion_02_spectral_anchors, "floor_ok", True)
    _report(10, "spectrum floor: every computed mu_j above -((N-2s)/2)^2 "
                "for admissible lam across the test matrix", ok)
