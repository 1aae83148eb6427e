"""Cone geometry: caps, distances, the smoothing profile identities and the
certified star-shapedness margins."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conefrac.cones import (ApproxDomain, _ramp_integral, ConeProfile, SmoothedCone,
                            SphericalCap, cap_of_cone, classify_point,
                            distance_to_boundary, mollifier,
                            omega_n_membership, smoothing_defect,
                            smoothing_profile, smoothing_profile_derivative,
                            starshape_margin)
from conefrac.errors import DomainError, GeometryError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

def test_cap_of_half_plane():
    cap = cap_of_cone(ConeProfile.half_plane())
    assert cap.length == pytest.approx(math.pi, rel=1e-14)
    assert cap.a == pytest.approx(math.pi, rel=1e-14)


def test_cap_of_symmetric_wedge():
    # g(1) = g(-1) = 1: boundary rays at pi/4 and 3pi/4, cap length 3pi/2
    cone = ConeProfile(1.0, 1.0)
    cap = cap_of_cone(cone)
    assert cap.length == pytest.approx(1.5 * math.pi, rel=1e-13)
    # dense sampling oracle for the membership predicate on the circle
    thetas = np.linspace(0.0, TWO_PI, 4001, endpoint=False)
    inside_oracle = np.sin(thetas) < cone.phi(np.cos(thetas)) - 1e-12
    inside_cap = cap.contains(thetas)
    disagreement = np.mean(inside_oracle != inside_cap)
    assert disagreement < 2e-3   # only points hugging the boundary rays


def test_cap_full_circle():
    cap = cap_of_cone(ConeProfile.full_plane())
    assert cap.length == pytest.approx(TWO_PI)
    assert bool(cap.contains(1.234))


def test_cap_membership_half_open():
    cap = SphericalCap(math.pi, TWO_PI)
    assert bool(cap.contains(math.pi))           # endpoint a included
    assert not bool(cap.contains(0.0))           # endpoint b excluded
    assert bool(cap.contains(1.5 * math.pi))


def test_cap_zero_length_rejected():
    with pytest.raises(GeometryError):
        SphericalCap(1.0, 1.0)


def test_cap_ray_consistency():
    cone = ConeProfile(0.4, -0.7)
    cap = cap_of_cone(cone)
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0.0, TWO_PI, 2000)
    r = 0.37
    inside_cone = cone.contains(r * np.cos(thetas), r * np.sin(thetas))
    # away from the two boundary rays the classifications agree
    a_p, a_m = cone.boundary_ray_angles()
    dist = np.minimum(np.abs(np.angle(np.exp(1j * (thetas - a_p)))),
                      np.abs(np.angle(np.exp(1j * (thetas - a_m)))))
    clear = dist > 1e-3
    assert np.array_equal(np.asarray(cap.contains(thetas))[clear],
                          np.asarray(inside_cone)[clear])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_half_plane():
    cone = ConeProfile.half_plane()
    assert distance_to_boundary(cone, (0.0, -1.0)) == pytest.approx(1.0)
    assert distance_to_boundary(cone, (5.0, -2.0)) == pytest.approx(2.0)


def test_distance_boundary_point_zero():
    cone = ConeProfile(1.0, 1.0)
    assert distance_to_boundary(cone, (1.0, 1.0)) == pytest.approx(0.0,
                                                                   abs=1e-15)


def test_distance_outside_raises():
    cone = ConeProfile.half_plane()
    with pytest.raises(DomainError):
        distance_to_boundary(cone, (0.0, 1.0))


def test_distance_homogeneity_exact():
    cone = ConeProfile(0.8, -0.3)
    rng = np.random.default_rng(2)
    count = 0
    while count < 200:
        x = rng.uniform(-2, 2), rng.uniform(-3, 0.5)
        if not cone.contains(x[0], x[1]):
            continue
        count += 1
        d1 = distance_to_boundary(cone, x)
        for alpha in (0.5, 2.0, 7.3):
            d2 = distance_to_boundary(cone, (alpha * x[0], alpha * x[1]))
            assert d2 == pytest.approx(alpha * d1, rel=1e-12, abs=1e-15)


def test_distance_vertex_clamp():
    # projection onto the ray falls behind the vertex: distance to origin
    cone = ConeProfile(0.0, 0.0)
    d = distance_to_boundary(cone, (0.0, -2.0))
    assert d == pytest.approx(2.0)


def test_euler_identity_by_finite_differences():
    cone = ConeProfile(1.3, -0.4)
    rng = np.random.default_rng(9)
    for x in rng.uniform(0.2, 3.0, 50) * rng.choice([-1.0, 1.0], 50):
        eps = 1e-6 * max(abs(x), 1.0)
        dphi = (cone.phi(x + eps) - cone.phi(x - eps)) / (2 * eps)
        assert dphi * x == pytest.approx(cone.phi(x), rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# the mollifier and smoothing profile
# ---------------------------------------------------------------------------

def test_mollifier_constraints():
    assert mollifier(0.5) == 0.0
    assert mollifier(1.0) == 0.0
    assert mollifier(2.0) == 1.0
    assert mollifier(3.0) == 1.0
    taus = np.linspace(0.0, 3.0, 301)
    vals = mollifier(taus)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)
    integral, _ = quad(lambda v: mollifier(v), 1.0, 2.0, epsabs=1e-13)
    assert integral == pytest.approx(0.5, abs=1e-12)


def test_fn_exact_regimes():
    # frozen example: n = 10, closed forms on both flat regimes
    assert smoothing_profile(10, 0.005) == 0.0
    assert smoothing_profile(10, 0.05) == pytest.approx(0.035, abs=1e-17)
    assert smoothing_profile(10, 0.01) == 0.0          # t = 1/n^2 boundary
    assert smoothing_profile(10, 0.02) == pytest.approx(0.02 - 0.015)


def test_ramp_integral_matches_adaptive_quadrature():
    # adaptive quadrature at epsrel 1e-13 misses by up to 2.9e-14 (at
    # w = 0.5717, against a 30-digit reference, where the fixed rule is
    # within 2.5e-16), so the reference runs at epsrel 2e-14
    ws = np.linspace(0.0, 1.0, 2401)[1:-1]
    ref = [quad(lambda v: mollifier(v), 1.0, 1.0 + w, epsabs=1e-17,
                epsrel=2e-14, limit=200)[0] for w in ws]
    vals = [_ramp_integral(float(w)) for w in ws]
    np.testing.assert_allclose(vals, ref, rtol=0.0, atol=2e-15)
    assert (_ramp_integral(0.0), _ramp_integral(1.0)) == (0.0, 0.5)


def test_ramp_integral_symmetry_exact():
    # the mollifier is symmetric about 3/2: R(w) = w - 1/2 + R(1 - w),
    # exactly on the upper half, where the values are built from it
    for w in np.random.default_rng(5).uniform(0.5, 1.0, 500):
        w = float(w)
        assert _ramp_integral(w) == (w - 0.5) + _ramp_integral(1.0 - w)
    for w in np.linspace(0.01, 0.99, 99):
        assert _ramp_integral(w) == pytest.approx(
            w - 0.5 + _ramp_integral(1.0 - w), abs=1e-16)


def test_fn_inequalities_dense():
    rng = np.random.default_rng(13)
    for n in (8, 16, 32, 64):
        bound = 1.5 / n ** 2
        ts = np.concatenate([
            rng.uniform(0.0, 4.0 / n ** 2, 6000),
            rng.uniform(0.0, 1.0, 4000),
        ])
        f = smoothing_profile(n, ts)
        defect = smoothing_defect(n, ts)
        assert np.all(defect <= 0.0)
        assert np.all(defect >= -bound)
        assert np.all(np.abs(f - ts) <= bound)


def test_fn_derivative_matches_mollifier():
    n = 9
    ts = np.linspace(0.0, 3.0 / n ** 2, 200)
    np.testing.assert_allclose(smoothing_profile_derivative(n, ts),
                               mollifier(n * n * ts), atol=1e-15)


def test_fn_derivative_consistent_with_fd():
    n = 8
    for t in np.linspace(1.1 / n ** 2, 1.9 / n ** 2, 17):
        eps = 1e-8
        fd = (smoothing_profile(n, t + eps)
              - smoothing_profile(n, t - eps)) / (2 * eps)
        assert smoothing_profile_derivative(n, t) == pytest.approx(
            fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# smoothed cones and star-shapedness
# ---------------------------------------------------------------------------

def test_smoothed_cone_threshold():
    cone = ConeProfile(1.0, 1.0)    # M = 1, n0 = 6
    with pytest.raises(DomainError):
        SmoothedCone(cone, 5)
    SmoothedCone(cone, 6)


def test_starshape_margin_half_plane():
    # g == 0: margin is exactly 1/n everywhere on the graph
    sc = SmoothedCone(ConeProfile.half_plane(), 10)
    for x1 in (0.0, 0.005, 0.05, 1.3):
        m = starshape_margin(sc, (x1, sc.psi(x1)))
        assert m == pytest.approx(1.0 / 10.0, rel=1e-14)


def test_starshape_margin_bound_sampled():
    cone = ConeProfile(1.0, 1.0)
    n = 12
    sc = SmoothedCone(cone, n)
    rng = np.random.default_rng(21)
    xs = np.concatenate([rng.uniform(-1.5, 1.5, 900),
                         rng.uniform(-3.0 / n ** 2, 3.0 / n ** 2, 100)])
    margins = np.array([starshape_margin(sc, (x, sc.psi(x))) for x in xs])
    assert margins.min() >= 3.0 / (4.0 * n) - 1e-12


def test_starshape_margin_at_origin():
    sc = SmoothedCone(ConeProfile(1.0, -0.5), 12)
    assert starshape_margin(sc, (0.0, sc.psi(0.0))) == pytest.approx(
        1.0 / 12.0, rel=1e-14)


def test_starshape_margin_requires_graph_point():
    sc = SmoothedCone(ConeProfile.half_plane(), 8)
    with pytest.raises(DomainError):
        starshape_margin(sc, (0.3, 0.5))


def test_cone_contained_in_smoothing():
    cone = ConeProfile(1.0, 1.0)
    n = 12
    sc = SmoothedCone(cone, n)
    rng = np.random.default_rng(4)
    count = 0
    while count < 10000:
        x1 = rng.uniform(-1.0, 1.0)
        x2 = rng.uniform(-1.5, cone.phi(x1))
        if x1 * x1 + x2 * x2 > 1.0 or not cone.contains(x1, x2):
            continue
        count += 1
        assert sc.contains(x1, x2)
    # graph separation bound
    xs = rng.uniform(-1.0, 1.0, 10000)
    sep = sc.psi(xs) - cone.phi(xs)
    assert sep.min() >= 3.0 / (4.0 * n) - 1e-12


# ---------------------------------------------------------------------------
# the (N+1)-dimensional approximating domain
# ---------------------------------------------------------------------------

def _domain(n=16):
    return ApproxDomain(SmoothedCone(ConeProfile.half_plane(), n))


def test_omega_n_interior_point():
    ad = _domain(64)
    assert omega_n_membership(ad, (0.0, -0.5, 0.5))
    assert classify_point(ad, (0.0, -0.5, 0.5)) == "interior"


def test_omega_n_exterior_points():
    ad = _domain()
    assert classify_point(ad, (0.0, 0.0, 2.0)) == "exterior"   # outside ball
    assert classify_point(ad, (0.0, 0.9, 0.05)) == "exterior"  # above graph
    assert classify_point(ad, (0.0, -0.1, -0.05)) == "exterior"


def test_omega_n_boundary_pieces():
    n = 16
    ad = _domain(n)
    sc = ad.smoothed
    # gamma_n: on the graph x2 = psi_n(x1) + (n/3) f_n(t)
    x1, t = 0.2, 0.1
    x2 = float(sc.psi(x1)) + (n / 3.0) * float(smoothing_profile(n, t))
    assert classify_point(ad, (x1, x2, t)) == "gamma_n"
    # sigma_n: on the thin disc inside the smoothed cone
    assert classify_point(ad, (0.1, -0.3, 0.0)) == "sigma_n"
    # tau_n: on the sphere, inside the graph region
    z = np.array([0.0, -0.6, 0.4])
    z = z / np.linalg.norm(z)
    assert classify_point(ad, z) == "tau_n"


def test_gamma_n_margin_bound():
    cone = ConeProfile(1.0, 1.0)
    n = 12
    ad = ApproxDomain(SmoothedCone(cone, n))
    rng = np.random.default_rng(17)
    margins = []
    for _ in range(1000):
        x1 = rng.uniform(-0.6, 0.6)
        t = rng.uniform(0.0, 0.5)
        x2 = float(ad.smoothed.psi(x1)) \
            + (n / 3.0) * float(smoothing_profile(n, t))
        z = (x1, x2, t)
        if np.linalg.norm(z) >= 1.0:
            continue
        margins.append(ad.gamma_margin(z))
    margins = np.array(margins)
    assert margins.min() >= 1.0 / (4.0 * n) - 1e-12
