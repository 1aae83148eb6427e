"""Hypographical cones, their spherical caps, and the explicit vertex
smoothing with certified star-shapedness; also the package's Gauss rules.

The cone is the region below the graph of a 1-homogeneous function.  For the
planar case (N = 2) the profile reduces to two slopes ``g(+1), g(-1)`` and all
point-set predicates are exact.  The smoothing replaces the vertex by the
profile ``f_n`` built from a fixed mollifier; its defining identities are
returned in closed form on the two flat regimes so they can be tested exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GeometryError

__all__ = [
    "ConeProfile",
    "SphericalCap",
    "SmoothedCone",
    "ApproxDomain",
    "cap_of_cone",
    "mollifier",
    "smoothing_profile",
    "smoothing_profile_derivative",
    "smoothing_defect",
    "starshape_margin",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Gauss rules on [-1, 1] (Golub-Welsch), for every module of the package
# ---------------------------------------------------------------------------

def _gauss_jacobi(n: int, beta: float):
    """n-point Gauss rule for the weight (1 + x)^beta on [-1, 1] (Golub &
    Welsch 1969): nodes and weights mu0 v0^2 from the eigenpairs of the
    tridiagonal Jacobi matrix, with mu0 = 2^(beta+1) / (beta + 1)."""
    k = np.arange(1, n, dtype=float)
    ab = 2.0 * k + beta
    J = np.diag(np.append(beta / (beta + 2.0),
                          beta * beta / (ab * (ab + 2.0))))
    J += np.diag(2.0 * k * (k + beta) / (ab * np.sqrt(ab * ab - 1.0)), 1)
    nodes, vecs = np.linalg.eigh(J, UPLO="U")
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre rule, read-only, bit-identical to numpy's
    ``leggauss(n)`` by taking its steps in its order: eigenvalues of the
    scaled Jacobi matrix, one Newton step, weights 1 / (P_n-1 P_n')."""
    def legval(x, c):       # numpy legval's Clenshaw recurrence, in order
        c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
        for nd in range(len(c) - 1, 1, -1):
            c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                      c0 + c1 * x * ((2 * nd - 1) / nd))
        return c0 + c1 * x

    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = np.linalg.eigvalsh(np.diag(np.arange(1, n) * scl[:-1] * scl[1:], -1))
    df = legval(x, [(2.0 * k + 1.0) * ((n - k) % 2) for k in range(n)])
    x -= legval(x, [0.0] * n + [1.0]) / df  # df: P_n' as legder forms it
    fm = legval(x, [0.0] * (n - 1) + [1.0])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# spherical caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalCap:
    """A single circular arc [a, b) on the unit circle, b - a in (0, 2 pi].

    The full circle is encoded as b - a == 2 pi.  Membership uses the
    half-open convention: the endpoint ``a`` belongs to the cap, ``b`` does
    not.
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.b - self.a <= TWO_PI + 1e-15:
            raise GeometryError(
                f"arc length must lie in (0, 2 pi], got {self.b - self.a}")

    @classmethod
    def full_circle(cls) -> "SphericalCap":
        return cls(0.0, TWO_PI)

    @classmethod
    def centered(cls, center: float, length: float) -> "SphericalCap":
        return cls(center - 0.5 * length, center + 0.5 * length)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def is_full(self) -> bool:
        return self.length >= TWO_PI - 1e-12

    def contains(self, theta) -> np.ndarray | bool:
        """Half-open membership of angle(s) ``theta``, taken mod 2 pi."""
        rel = np.mod(np.asarray(theta, dtype=float) - self.a, TWO_PI)
        if self.is_full:
            out = np.ones_like(rel, dtype=bool)
        else:
            out = rel < self.length - 1e-14 * TWO_PI
            # endpoint a itself belongs to the cap
            out |= rel < 1e-14 * TWO_PI
        return bool(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# cone profiles (N = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeProfile:
    """Planar hypographical cone {(x1, x2) : x2 < phi(x1)} with
    phi(x1) = |x1| g(sign x1).

    ``full=True`` encodes the whole plane (no graph constraint).
    """

    g_plus: float = 0.0
    g_minus: float = 0.0
    full: bool = False

    @classmethod
    def half_plane(cls) -> "ConeProfile":
        return cls(0.0, 0.0)

    @classmethod
    def full_plane(cls) -> "ConeProfile":
        return cls(0.0, 0.0, full=True)

    @property
    def M(self) -> float:
        """max |g| over the 0-sphere {+1, -1}."""
        return max(abs(self.g_plus), abs(self.g_minus))

    def g(self, sign: float) -> float:
        return self.g_plus if sign >= 0.0 else self.g_minus

    def phi(self, x1) -> np.ndarray | float:
        """The induced 1-homogeneous graph function."""
        x1 = np.asarray(x1, dtype=float)
        out = np.where(x1 >= 0.0, self.g_plus * x1, -self.g_minus * x1)
        return float(out) if out.ndim == 0 else out

    def contains(self, x1, x2, strict: bool = True) -> np.ndarray | bool:
        if self.full:
            shaped = np.broadcast_arrays(np.asarray(x1), np.asarray(x2))[0]
            out = np.ones(shaped.shape, dtype=bool)
            return bool(out) if out.ndim == 0 else out
        x2 = np.asarray(x2, dtype=float)
        out = x2 < self.phi(x1) if strict else x2 <= self.phi(x1)
        return bool(out) if out.ndim == 0 else out

    def boundary_ray_angles(self) -> tuple[float, float]:
        """Angles of the two boundary rays (1, g(+1)) and (-1, g(-1)); the
        left ray's angle is normalized into (pi/2, 3 pi/2)."""
        alpha_plus = math.atan2(self.g_plus, 1.0)
        alpha_minus = math.atan2(self.g_minus, -1.0) % TWO_PI
        return alpha_plus, alpha_minus


def cap_of_cone(cone: ConeProfile) -> SphericalCap:
    """Arc of directions whose ray lies inside the cone.

    The subgraph region spans the arc from the (-1, g(-1)) ray, through the
    downward direction, around to the (1, g(+1)) ray.
    """
    if cone.full:
        return SphericalCap.full_circle()
    alpha_plus, alpha_minus = cone.boundary_ray_angles()
    length = alpha_plus + TWO_PI - alpha_minus
    if length <= 1e-12 or length >= TWO_PI - 1e-12:
        raise GeometryError("degenerate cone: empty or full interior")
    return SphericalCap(alpha_minus, alpha_minus + length)


# ---------------------------------------------------------------------------
# the smoothing profile f_n
# ---------------------------------------------------------------------------

def _bump(u: float) -> float:
    # exp(-1/u) extended by 0 for u <= 0; C-infinity flat at 0
    if u < 1.0 / 700.0:
        return 0.0  # u <= 0, or exp(-1/u) underflows anyway
    return math.exp(-1.0 / u)


def mollifier(tau) -> np.ndarray | float:
    """Fixed C-infinity ramp: 0 on [0,1], 1 on [2,inf), symmetric about 3/2
    on [1,2] so its integral over [1,2] is exactly 1/2."""
    def scalar(v):
        if v <= 1.0:
            return 0.0
        if v >= 2.0:
            return 1.0
        e1 = _bump(v - 1.0)
        e2 = _bump(2.0 - v)
        return e1 / (e1 + e2)

    out = np.vectorize(scalar, otypes=[float])(np.asarray(tau, dtype=float))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=4096)
def _ramp_integral(w: float) -> float:
    """Integral R(w) of the mollifier over [1, 1 + w], 0 <= w <= 1: a fixed
    48-point Gauss-Legendre rule for w <= 1/2, above it the symmetry R(w) =
    (w - 1/2) + R(1 - w), which keeps smoothing_defect's exact bracketing."""
    if w <= 0.0:
        return 0.0
    if w >= 1.0:
        return 0.5
    if w > 0.5:
        return (w - 0.5) + _ramp_integral(1.0 - w)
    x, wts = gauss_legendre(48)
    return float(0.5 * w * (wts @ mollifier(1.0 + 0.5 * w * (x + 1.0))))


def smoothing_profile(n: int, t) -> np.ndarray | float:
    """f_n(t): exactly 0 on [0, 1/n^2], exactly t - 3/(2 n^2) on
    [2/n^2, inf), and the mollifier integral in between."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    inv2 = 1.0 / (n * n)

    def scalar(tv):
        if tv <= inv2:
            return 0.0
        if tv >= 2.0 * inv2:
            return tv - 1.5 * inv2
        # f_n(t) = (1/n^2) * integral_1^{n^2 t} of the mollifier
        return inv2 * _ramp_integral(tv / inv2 - 1.0)

    out = np.vectorize(scalar, otypes=[float])(np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


def smoothing_profile_derivative(n: int, t) -> np.ndarray | float:
    """f_n'(t) = mollifier(n^2 t), exact in every regime."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    return mollifier(np.asarray(t, dtype=float) * (n * n))


def smoothing_defect(n: int, t) -> np.ndarray | float:
    """f_n(t) - t f_n'(t), in [-3/(2 n^2), 0]; returned in closed form on the
    two flat regimes so the bracketing inequalities are exact.

    The mid-regime quadrature value is projected onto the certified interval
    (the defect decreases monotonically from 0 to -3/(2 n^2) there), which
    removes ulp-level rounding spill at the regime boundaries.
    """
    inv2 = 1.0 / (n * n)

    def scalar(tv):
        if tv <= inv2:
            return 0.0
        if tv >= 2.0 * inv2:
            return -1.5 * inv2
        raw = smoothing_profile(n, tv) \
            - tv * smoothing_profile_derivative(n, tv)
        return min(max(raw, -1.5 * inv2), 0.0)

    out = np.vectorize(scalar, otypes=[float])(np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# smoothed cones and the (N+1)-dimensional approximating domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothedCone:
    """Vertex-smoothed cone C_n = {x2 < psi_n(x1)} with
    psi_n(x1) = 1/n + f_n(|x1|) g(x1/|x1|)."""

    cone: ConeProfile
    n: int

    def __post_init__(self):
        n0 = math.ceil(6.0 * self.cone.M)
        if self.n < max(n0, 1):
            raise DomainError(
                f"n = {self.n} below the star-shapedness threshold "
                f"ceil(6M) = {n0}")

    def psi(self, x1) -> np.ndarray | float:
        x1 = np.asarray(x1, dtype=float)
        f = smoothing_profile(self.n, np.abs(x1))
        g = np.where(x1 >= 0.0, self.cone.g_plus, self.cone.g_minus)
        out = 1.0 / self.n + f * g
        return float(out) if out.ndim == 0 else out

    def psi_derivative(self, x1) -> np.ndarray | float:
        x1 = np.asarray(x1, dtype=float)
        fp = smoothing_profile_derivative(self.n, np.abs(x1))
        g = np.where(x1 >= 0.0, self.cone.g_plus, self.cone.g_minus)
        out = np.sign(x1) * fp * g
        return float(out) if out.ndim == 0 else out

    def contains(self, x1, x2) -> np.ndarray | bool:
        x2 = np.asarray(x2, dtype=float)
        out = x2 < self.psi(x1)
        return bool(out) if out.ndim == 0 else out


def starshape_margin(sc: SmoothedCone, point) -> float:
    """grad F . x at a boundary point of C_n, with F(x) = x2 - psi_n(x1).

    The construction guarantees a lower bound 3/(4n) once n >= ceil(6M).
    Errors out if the point is off the graph x2 = psi_n(x1) by over 1e-10.
    """
    x1, x2 = float(point[0]), float(point[1])
    if abs(x2 - sc.psi(x1)) > 1e-10 * max(1.0, abs(x2)):
        raise DomainError(
            f"point ({x1}, {x2}) is not on the graph x2 = psi_n(x1)")
    # grad F . x = x2 - psi_n'(x1) x1 = 1/n + g (f_n - |x1| f_n')
    g = sc.cone.g(x1)
    return 1.0 / sc.n + g * float(smoothing_defect(sc.n, abs(x1)))


@dataclass(frozen=True)
class ApproxDomain:
    """Upper half-space approximating domain
    Omega_n = {(x1, x2, t) : x2 < psi_n(x1) + (n/3) f_n(t)} cap B^+_1.

    Boundary pieces: the thin disc part sigma_n (t = 0, inside C_n), the
    spherical part tau_n (|z| = 1), and the graph part gamma_n.
    """

    smoothed: SmoothedCone

    def gauge(self, z) -> float:
        """G(z) = x2 - psi_n(x1) - (n/3) f_n(t); Omega_n is {G < 0}."""
        x1, x2, t = float(z[0]), float(z[1]), float(z[2])
        n = self.smoothed.n
        return x2 - float(self.smoothed.psi(x1)) \
            - (n / 3.0) * float(smoothing_profile(n, t))

    def gauge_gradient(self, z) -> np.ndarray:
        x1, _, t = float(z[0]), float(z[1]), float(z[2])
        n = self.smoothed.n
        return np.array([
            -float(self.smoothed.psi_derivative(x1)),
            1.0,
            -(n / 3.0) * float(smoothing_profile_derivative(n, t)),
        ])

    def gamma_margin(self, z) -> float:
        """grad G . z on the graph piece; bounded below by 1/(4n)."""
        return float(self.gauge_gradient(z) @ np.asarray(z, dtype=float))
