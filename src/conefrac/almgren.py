"""Frequency machinery: boundary mass H(r), scaled energy D(r), the
frequency N(r) = D/H with its H' = 2D/r identity, blow-up rescalings,
Fourier mode profiles, the amplitude formula for the limit profile, and the
Pohozaev balance used as a numerical diagnostic.

A field's sphere sample is c(rho)^T T (``ScalarField``), so every sphere
form is c(rho)^T (T A T^T) c(rho) on the Grams the field caches: O(rows^2)
per radius, no sweep over the hemisphere nodes; the h trace term alone is
evaluated row-wise on the equator columns.  Radial integrals are closed
forms for manufactured (exactly homogeneous) fields; everything else goes
through one radial quadrature plan: composite 4-point Gauss panels in log
radius with a panel edge at every requested radius, and the integrals up to
every radius read off one cumulative sum.  Grid fields add a local-power
continuation below the innermost shell.

Every entry point reads N, s, lambda and h from the field's ``params``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .expressions import Expression
from .extension import (ManufacturedField, ScalarField, equator_values,
                        table_grams)
from .spectral import EigenSystem
from .sphercap import band_to_dense

__all__ = [
    "FrequencyTrace",
    "FourierTrace",
    "BlowupSnapshot",
    "PohozaevReport",
    "compute_H",
    "compute_D",
    "frequency_trace",
    "check_H_prime_identity",
    "blowup",
    "fourier_coeffs",
    "beta_coefficients",
    "pohozaev_check",
]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _bilinear(C: np.ndarray, G: np.ndarray,
              D: np.ndarray | None = None) -> np.ndarray:
    """Row-wise c_i^T G d_i for a dense G, D defaulting to C: one
    vector-matrix product and one row sum per row, so a row of a batched
    call is bit-identical to the call at that radius alone."""
    CG = (C[:, None, :] @ G)[:, 0, :]
    return np.sum(CG * (C if D is None else D), axis=1)


def _equator_rows(expr: Expression, rho: np.ndarray, mesh) -> np.ndarray:
    """expr at the equator nodes of the sphere of every radius in rho, one
    row per radius."""
    return equator_values(expr, rho[:, None], mesh.theta_nodes)


def _equator_density(fld: ScalarField, weights: np.ndarray, rho: np.ndarray,
                     N: int) -> np.ndarray:
    """rho^(N-1) int weights |Tr U|^2 on the equator circle of each rho."""
    tr = fld.trace_values(rho)
    return rho ** (N - 1) * _bilinear(weights * tr,
                                      band_to_dense(fld.mesh.Bth), tr)


def _shell_terms(fld: ScalarField, rho: np.ndarray):
    """Normal-derivative and gradient energies, equator mass and flux on
    the sphere of every rho, from the field's Grams."""
    N, s, G = fld.params.N, fld.params.s, fld.grams
    c, cg = fld.coefficients(rho), fld.coefficients(rho, derivative=True)
    norm_der = rho ** (N + 1 - 2 * s) * _bilinear(cg, G["M"])
    grad = norm_der + rho ** (N - 1 - 2 * s) * _bilinear(c, G["K"])
    return (norm_der, grad, rho ** (N - 1 - 2 * s) * _bilinear(c, G["B"]),
            rho ** (N + 1 - 2 * s) * _bilinear(c, G["M"], cg))


@dataclass(frozen=True)
class _RadialPlan:
    """Composite 4-point Gauss panels in log radius with an edge at every
    entry of ``edges``; ``integrate`` reads the integrals of f(rho) from the
    lower end up to each of ``radii`` (edges) off one cumulative sum."""

    edges: np.ndarray      # ascending; edges[0] is the lower end
    rho: np.ndarray        # Gauss nodes, ascending
    w: np.ndarray          # weights for dr, Jacobian included
    starts: np.ndarray     # index of the first node above each edge

    def integrate(self, f: np.ndarray, radii) -> np.ndarray:
        cumulative = np.concatenate([[0.0], np.cumsum(self.w * f)])
        return cumulative[self.starts[np.searchsorted(self.edges, radii)]]


def _radial_plan(edges, per_decade: int = 24) -> _RadialPlan:
    edges = np.sort(np.asarray(edges, dtype=float))  # np.unique: numpy.ma
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    x = np.log(edges)
    n = np.maximum(1, np.ceil(np.diff(x) * per_decade
                              / math.log(10.0)).astype(int))
    xe = np.concatenate([np.linspace(a, b, m + 1)[:-1]
                         for a, b, m in zip(x[:-1], x[1:], n)] + [x[-1:]])
    xg, wg = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (xe[:-1] + xe[1:])
    half = 0.5 * np.diff(xe)
    rho = np.exp((mid[:, None] + half[:, None] * xg[None, :]).ravel())
    w = (half[:, None] * wg[None, :]).ravel() * rho
    starts = 4 * np.concatenate([[0], np.cumsum(n)])
    return _RadialPlan(edges=edges, rho=rho, w=w, starts=starts)


def _plan_for(fld: ScalarField, radii: np.ndarray) -> _RadialPlan:
    """The plan for integrals up to every radius.  A field with a power
    continuation starts at its core radius and leaves the rest to the core;
    other fields start at 1e-8 times the smallest radius."""
    lo = fld.core_radius or 1e-8 * np.min(radii)
    return _radial_plan(np.append(np.maximum(radii, lo), lo))


# ---------------------------------------------------------------------------
# H and D
# ---------------------------------------------------------------------------

def _boundary_mass(fld: ScalarField, radii: np.ndarray) -> np.ndarray:
    outside = radii[(radii <= 0.0) | (radii > 1.0 + 1e-12)]
    if len(outside):
        raise DomainError(f"radius must lie in (0, 1], got {outside[0]}")
    H = _bilinear(fld.coefficients(radii), fld.grams["M"])
    bad = np.flatnonzero(H <= 0.0)
    if len(bad):
        raise NumericalError(
            f"H({radii[bad[0]]}) = {H[bad[0]]} is not positive: the field "
            "is trivial there")
    return H


def compute_H(fld: ScalarField, r: float) -> float:
    """Scaled boundary mass r^(2s-N-1) int_{sphere r} t^(1-2s) U^2 dS,
    evaluated on the field's mass Gram.  Positive for any non-trivial field;
    H <= 0 raises."""
    return float(_boundary_mass(fld, np.array([float(r)]))[0])


def _manufactured_terms(fld: ManufacturedField, radii: np.ndarray):
    """Closed-form volume and Hardy integrals up to every radius."""
    k0, m, b = (fld.grams[form] for form in "KMB")
    g = fld.gammas
    beta = fld.betas
    N, s = fld.params.N, fld.params.s
    powsum = N - 2.0 * s + g[:, None] + g[None, :]
    radial = radii[:, None, None] ** powsum / powsum
    bb = beta[:, None] * beta[None, :]
    vol = np.sum(bb * radial * (g[:, None] * g[None, :] * m + k0),
                 axis=(1, 2))
    hardy = np.sum(bb * radial * b, axis=(1, 2))
    return vol, hardy


def _d_terms(fld: ScalarField, plan: _RadialPlan, radii: np.ndarray):
    """(vol, hardy, trace_h): the radial integrals of the energy from the
    vertex to every radius.  Manufactured fields give vol and hardy in
    closed form; the rest comes from the plan, and a grid field's power
    continuation supplies the core below the plan's lower end (all of the
    integral for radii below it)."""
    N, s, h = fld.params.N, fld.params.s, fld.params.h
    lo = plan.edges[0]
    rho = np.append(lo, plan.rho)          # the core point, then the nodes
    core = np.minimum(radii, lo) / lo      # r / lo below the plan, else 1
    if isinstance(fld, ManufacturedField):
        vol, hardy = _manufactured_terms(fld, radii)
        h_power = math.inf                 # no core
    else:
        gloc = fld.local_power()
        _, e_vol, e_hardy, _ = _shell_terms(fld, rho)
        power = N - 2.0 * s + 2.0 * gloc
        if power <= 1e-2:
            # the trace fails to vanish fast enough at the vertex: the
            # Hardy term int |Tr U|^2 / |x|^2s is not integrable against
            # the continuation power
            if (fld.params.lam != 0.0
                    and e_hardy[0] > 1e-14 * lo ** (N - 1 - 2 * s)):
                raise NumericalError(
                    f"non-integrable trace singularity: local power {gloc:.4f}"
                    f" is at or below (2s - N)/2 = {(2 * s - N) / 2:.4f}")
            power = math.inf
        vol = (plan.integrate(e_vol[1:], radii)
               + e_vol[0] * lo / power * core ** power)
        hardy = (plan.integrate(e_hardy[1:], radii)
                 + e_hardy[0] * lo / power * core ** power)
        h_power = N + 2.0 * gloc if N + 2.0 * gloc > 1e-2 else math.inf
    if h is None:
        return vol, hardy, np.zeros_like(vol)
    e_h = _equator_density(fld, _equator_rows(h, rho, fld.mesh), rho, N)
    return vol, hardy, (plan.integrate(e_h[1:], radii)
                        + e_h[0] * lo / h_power * core ** h_power)


def _scaled_energy(fld: ScalarField, radii: np.ndarray) -> np.ndarray:
    vol, hardy, trace_h = _d_terms(fld, _plan_for(fld, radii), radii)
    p = fld.params
    return radii ** (2.0 * p.s - p.N) * (
        vol - p.kappa * (p.lam * hardy + trace_h))


def compute_D(fld: ScalarField, r: float) -> float:
    """Scaled energy r^(2s-N) (volume gradient energy minus the kappa_s
    (h + lam |x|^(-2s)) trace term).  Manufactured fields evaluate the
    radial integrals in closed form; grid fields by the radial plan with a
    power-law core below the innermost shell."""
    return float(_scaled_energy(fld, np.array([float(r)]))[0])


# ---------------------------------------------------------------------------
# frequency traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyTrace:
    """Radial profiles H, D, N = D/H with the extrapolated order estimate."""

    radii: np.ndarray
    H: np.ndarray
    D: np.ndarray
    Ncal: np.ndarray
    gamma_hat: float
    fit_exponent: float | None
    fit_coefficient: float | None
    fit_fallback: bool


def _fit_gamma(radii, ncal, delta_fixed=None):
    """Fit N(r) ~ gamma + c r^delta on the smallest half of the radii.
    For a fixed delta the fit is linear in (gamma, c) (variable projection,
    Golub & Pereyra 1973): a free delta is scanned on a grid over [0.05, 8]
    and refined by golden section in the grid cells around the minimum."""
    m = max(4, len(radii) // 2)
    r = np.asarray(radii[:m])
    y = np.asarray(ncal[:m])
    if delta_fixed is not None:
        A = np.column_stack([np.ones_like(r), r ** delta_fixed])
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > 1e12:
            return float(y[0]), None, None, True
        return float(sol[0]), delta_fixed, float(sol[1]), False

    if np.ptp(y) < 1e-12:
        return float(y[0]), None, 0.0, False

    yc = y - y.mean()

    def project(d):  # squared residual, gamma and c; one fit per entry of d
        x = r ** np.asarray(d)[..., None]
        xc = x - x.mean(axis=-1, keepdims=True)
        c = (xc @ yc) / np.sum(xc * xc, axis=-1)
        return (np.sum((yc - c[..., None] * xc) ** 2, axis=-1),
                y.mean() - c * x.mean(axis=-1), c)

    grid = np.linspace(0.05, 8.0, 80)
    i = int(np.argmin(project(grid)[0]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(64):
        x1, x2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = project([x1, x2])[0]
        a, b = (a, x2) if f1 < f2 else (x1, b)
    d = 0.5 * (a + b)
    _, g, c = project(d)
    if not np.isfinite(g + c):
        return float(y[0]), None, None, True
    return float(g), float(d), float(c), False


def frequency_trace(fld: ScalarField, radii) -> FrequencyTrace:
    """Pointwise frequency on the radii, ascending in (0, 1] (the CLI takes
    them from ``config.analyzer_radii``), plus the r -> 0 extrapolation.

    With a perturbation present the remainder exponent is pinned to
    2s - N/p; without one the exponent is free.  An ill-conditioned fit
    falls back to the smallest-radius frequency value.
    """
    radii = np.asarray(radii, dtype=float)
    params = fld.params
    Hs = _boundary_mass(fld, radii)
    Ds = _scaled_energy(fld, radii)
    ncal = Ds / Hs

    floor = -params.half_order
    if np.any(ncal <= floor - 1e-9):
        warnings.warn("frequency dipped below -(N-2s)/2: "
                      "lam is likely inadmissible", RuntimeWarning)

    if params.h is None:
        g, d, c, fb = _fit_gamma(radii, ncal, None)
    else:
        delta = 2.0 * params.s - params.N / params.p
        g, d, c, fb = _fit_gamma(radii, ncal, delta)
    return FrequencyTrace(radii=radii, H=Hs, D=Ds, Ncal=ncal, gamma_hat=g,
                          fit_exponent=d, fit_coefficient=c, fit_fallback=fb)


def check_H_prime_identity(fld: ScalarField, r: float = 0.5) -> float:
    """Relative residual of H'(r) = 2 D(r) / r with fourth-order central
    differences of H in log radius, step 1e-3 (0.04 on a grid field)."""
    delta = 1e-3 if fld.is_analytic else 0.04
    xs = math.log(r) + delta * np.array([-2.0, -1.0, 1.0, 2.0])
    Hvals = [compute_H(fld, math.exp(x)) for x in xs]
    dHdx = (Hvals[0] - 8.0 * Hvals[1] + 8.0 * Hvals[2] - Hvals[3]) / (12.0 * delta)
    Hp = dHdx / r
    rhs = 2.0 * compute_D(fld, r) / r
    scale = max(abs(Hp), abs(rhs))
    # both sides at the finite-difference noise floor: the identity holds
    # trivially (constant fields)
    if scale < 1e-9 * max(1.0, compute_H(fld, r) / r):
        return 0.0
    return abs(Hp - rhs) / scale


# ---------------------------------------------------------------------------
# blow-up family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupSnapshot:
    """Rescaled field w(z) = U(tau z) / sqrt(H(tau)) on the unit half-ball."""

    fld: ScalarField
    tau: float
    scale: float

    def sphere_values(self, rho: float) -> np.ndarray:
        return self.fld.sphere_values(self.tau * rho) / self.scale

    def boundary_norm(self) -> float:
        """Weighted boundary mass on the unit sphere; 1 by construction."""
        c = self.fld.coefficients(self.tau)
        return float(c @ self.fld.grams["M"] @ c) / self.scale ** 2

    def projection(self, es: EigenSystem, j) -> float:
        """Boundary-mass projection of the snapshot onto mode j, one per
        mode for an array of modes: psi_j^T M T^T times c(tau)."""
        return (es.vectors[j] @ self.fld.mesh.M @ self.fld.table.T
                @ self.fld.coefficients(self.tau)) / self.scale

    def off_group_norm(self, es: EigenSystem, group_of: int) -> float:
        """l2 size of projections onto every stored mode outside the
        multiplicity group of ``group_of``."""
        others = np.setdiff1d(np.arange(es.k), es.group_members(group_of))
        return float(np.linalg.norm(self.projection(es, others)))

    def h1_distance(self, other: ScalarField) -> float:
        """Weighted H1 distance on the unit half-ball (radii 1e-4 to 1)
        between the snapshot and another field, on the joint table's Grams."""
        N, s = self.fld.params.N, self.fld.params.s
        plan = _radial_plan([1e-4, 1.0])
        rho = plan.rho
        T = np.vstack([self.fld.table, other.table])
        dv = np.hstack([self.fld.coefficients(self.tau * rho) / self.scale,
                        -other.coefficients(rho)])
        dg = np.hstack([self.fld.coefficients(self.tau * rho, derivative=True)
                        * (self.tau / self.scale),
                        -other.coefficients(rho, derivative=True)])
        G = table_grams(self.fld.mesh, T)
        f = (rho ** (N + 1 - 2 * s) * (_bilinear(dg, G["M"])
                                       + _bilinear(dv, G["M"]))
             + rho ** (N - 1 - 2 * s) * _bilinear(dv, G["K"]))
        total = float(plan.integrate(f, [1.0])[0])
        return math.sqrt(max(total, 0.0))


def blowup(fld: ScalarField, tau: float) -> BlowupSnapshot:
    """Normalized rescaling at scale tau; requires H(tau) > 0."""
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau must lie in (0, 1], got {tau}")
    return BlowupSnapshot(fld=fld, tau=tau,
                          scale=math.sqrt(compute_H(fld, tau)))


# ---------------------------------------------------------------------------
# Fourier mode profiles and the amplitude formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierTrace:
    """Mode profiles phi_j(tau) and the perturbation integrals Upsilon_j."""

    taus: np.ndarray
    modes: np.ndarray
    phi: np.ndarray          # (n_modes, n_tau)
    ups: np.ndarray          # (n_modes, n_tau)
    es: EigenSystem

    def phi_at(self, j_pos: int, R: float) -> float:
        """phi of the j_pos-th stored mode at radius R.

        Between samples the profile is interpolated as a local power of tau
        (exact for homogeneous modes), falling back to linear interpolation
        in log tau where the sign changes."""
        y = self.phi[j_pos]
        x = np.log(self.taus)
        xr = math.log(R)
        if xr <= x[0]:
            return float(y[0])
        if xr >= x[-1]:
            return float(y[-1])
        i = int(np.searchsorted(x, xr, side="right") - 1)
        y0, y1 = y[i], y[i + 1]
        if y0 * y1 > 0.0:
            q = (math.log(abs(y1)) - math.log(abs(y0))) / (x[i + 1] - x[i])
            return float(y0 * math.exp(q * (xr - x[i])))
        frac = (xr - x[i]) / (x[i + 1] - x[i])
        return float((1.0 - frac) * y0 + frac * y1)


def fourier_coeffs(fld: ScalarField, es: EigenSystem, taus) -> FourierTrace:
    """Mode coefficients phi_j(tau) by hemisphere quadrature and the
    cumulative perturbation integrals Upsilon_j(tau) of the field's h by
    log-spaced radial quadrature of the cap-arc integrand.  A field at
    another lam, or on a mesh of another size, s, grading or cap than the
    eigen system's, raises DomainError."""
    params = fld.params
    if abs(params.lam - es.lam) > 1e-14:
        raise DomainError("the field's lam does not match the eigen "
                          "system's lam")
    fm, em = fld.mesh, es.mesh
    if ((fm.nt, fm.ntheta, fm.s, fm.grading, fm.cap)
            != (em.nt, em.ntheta, em.s, em.grading, em.cap)):
        raise DomainError("the field's mesh does not match the eigen "
                          "system's mesh")

    taus = np.sort(np.asarray(taus, dtype=float))
    if taus[0] <= 0.0 or taus[-1] > 1.0:
        raise DomainError("taus must lie in (0, 1]")
    k = es.k
    # psi_j^T M T^T once, then c(tau) per radius
    phi = (es.vectors @ es.mesh.M) @ fld.table.T @ fld.coefficients(taus).T

    ups = np.zeros((k, len(taus)))
    h = params.h
    if h is not None:
        r_lo = max(taus[0], fld.core_radius) * 1e-3
        plan = _radial_plan([r_lo, taus[-1]], per_decade=32)
        rho = plan.rho
        tr = fld.trace_values(rho)
        hv = _equator_rows(h, rho, es.mesh)
        q = rho ** (params.N - 1) * (
            es.vectors[:, es.mesh.equator_ids]
            @ (band_to_dense(es.mesh.Bth) @ (hv * tr).T))
        cumulative = np.cumsum(q * plan.w[None, :], axis=1)
        # Upsilon_j(tau) sums the nodes at or below tau
        pos = np.maximum(np.searchsorted(rho, taus, side="right") - 1, 0)
        ups = params.kappa * cumulative[:, pos]
    return FourierTrace(taus=taus, modes=np.arange(k), phi=phi, ups=ups,
                        es=es)


def _power_weighted_integral(taus: np.ndarray, vals: np.ndarray,
                             alpha: float, R: float) -> float:
    """int_0^R t^alpha vals(t) dt with vals sampled on the tau grid: linear
    interpolation between samples integrated against the exact power, plus a
    fitted power tail below the first sample."""
    sel = taus <= R * (1.0 + 1e-12)
    x, y = taus[sel], vals[sel]
    if len(x) < 2:
        raise DomainError("need at least two samples below R")
    if x[-1] < R * (1.0 - 1e-12):
        # extend to R by linear extrapolation of the last interval
        slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
        y = np.append(y, y[-1] + slope * (R - x[-1]))
        x = np.append(x, R)

    # linear y on each [a, b] against t^alpha, power rule per piece
    a, b = x[:-1], x[1:]
    slope = np.diff(y) / np.diff(x)
    c0 = y[:-1] - slope * a
    p1, p2 = alpha + 1.0, alpha + 2.0
    if abs(p1) < 1e-12 or abs(p2) < 1e-12:
        rho = np.linspace(a, b, 33)
        total = float(np.sum(np.trapezoid(rho ** alpha * (c0 + slope * rho),
                                          rho, axis=0)))
    else:
        total = float(np.sum(c0 * (b ** p1 - a ** p1) / p1
                             + slope * (b ** p2 - a ** p2) / p2))

    # power tail below the first sample
    t0, t1 = x[0], x[1]
    y0, y1 = y[0], y[1]
    if abs(y0) > 0.0 and abs(y1) > 0.0 and y0 * y1 > 0.0:
        q = math.log(abs(y1) / abs(y0)) / math.log(t1 / t0)
    else:
        q = 1.0
    decay = q + alpha + 1.0
    if abs(y0) > 1e-300:
        if decay <= 1e-3:
            raise NumericalError(
                "Upsilon tail decays too slowly against the order weight: "
                f"local power {q:.3f} with exponent {alpha:.3f} makes the "
                "amplitude integral divergent")
        total += y0 * t0 / decay
    return total


def beta_coefficients(ft: FourierTrace, gamma: float, R: float) -> np.ndarray:
    """Limit-profile amplitudes

        beta_j = phi_j(R)/R^gamma
                 + (N+gamma-2s)/(N+2gamma-2s) int_0^R t^(-N-1+2s-gamma) Ups_j
                 + gamma R^(-N+2s-2gamma)/(N+2gamma-2s) int_0^R t^(gamma-1) Ups_j

    for every stored mode, quadrature on the trace grid with power-law
    endpoint treatment.  The value is R-independent for exact solutions."""
    if not 0.0 < R < 1.0:
        raise DomainError(f"R must lie in (0, 1), got {R}")
    N, s = ft.es.params.N, ft.es.params.s
    denom = N + 2.0 * gamma - 2.0 * s
    out = np.zeros(len(ft.modes))
    for pos in range(len(ft.modes)):
        beta = ft.phi_at(pos, R) / R ** gamma
        if np.any(ft.ups[pos] != 0.0):
            try:
                i1 = _power_weighted_integral(ft.taus, ft.ups[pos],
                                              -N - 1.0 + 2.0 * s - gamma, R)
                i2 = _power_weighted_integral(ft.taus, ft.ups[pos],
                                              gamma - 1.0, R)
            except NumericalError as exc:
                raise NumericalError(f"beta of mode {int(ft.modes[pos]) + 1}"
                                     f" at R = {R:g}: {exc}") from exc
            beta += (N + gamma - 2.0 * s) / denom * i1
            beta += gamma * R ** (-N + 2.0 * s - 2.0 * gamma) / denom * i2
        out[pos] = beta
    return out


# ---------------------------------------------------------------------------
# Pohozaev diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PohozaevReport:
    lhs: float
    rhs: float
    satisfied: bool
    green_residual: float
    scale: float


def pohozaev_check(fld: ScalarField, r
                   ) -> PohozaevReport | list[PohozaevReport]:
    """Evaluates both sides of the Pohozaev balance at radius r and the
    residual of the Green identity tying energy to the boundary flux.

    lhs >= rhs - 1e-2 * scale is reported as ``satisfied``; homogeneous
    fields saturate the balance (equality).  An array of radii gives one
    report per radius, all from one radial plan with an edge at every
    radius.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    mesh = fld.mesh
    p = fld.params
    N, s, lam, h, kappa = p.N, p.s, p.lam, p.h, p.kappa

    norm_der, grad, circ_hardy, flux = _shell_terms(fld, radii)

    plan = _plan_for(fld, radii)
    vol, hardy, trace_h = _d_terms(fld, plan, radii)

    lhs = 0.5 * radii * (grad - kappa * lam * circ_hardy) - radii * norm_der
    if h is not None:
        circ_h = _equator_density(fld, _equator_rows(h, radii, mesh), radii,
                                  N)
        # Euler term int (x . grad h + N h) |Tr U|^2 on the plan's panels,
        # x . grad h = x1 h_x1 + x2 h_x2 + r h_r for h in x1, x2, r, theta
        rho = plan.rho
        x1 = rho[:, None] * np.cos(mesh.theta_nodes)
        x2 = rho[:, None] * np.sin(mesh.theta_nodes)
        mix = (_equator_rows(h.diff("x1"), rho, mesh) * x1
               + _equator_rows(h.diff("x2"), rho, mesh) * x2
               + _equator_rows(h.diff("r"), rho, mesh) * rho[:, None]
               + N * _equator_rows(h, rho, mesh))
        euler = plan.integrate(_equator_density(fld, mix, rho, N), radii)
        lhs += 0.5 * kappa * euler - 0.5 * radii * kappa * circ_h

    rhs = 0.5 * (N - 2.0 * s) * (vol - kappa * lam * hardy)

    energy = vol - kappa * (lam * hardy + trace_h)
    scale = np.maximum(np.max(np.abs([energy, flux, lhs, rhs]), axis=0),
                       1e-300)
    green = np.abs(energy - flux) / scale
    satisfied = lhs >= rhs - 1e-2 * scale
    reports = [PohozaevReport(lhs=float(a), rhs=float(b), satisfied=bool(c),
                              green_residual=float(d), scale=float(e))
               for a, b, c, d, e in zip(lhs, rhs, satisfied, green, scale)]
    return reports if np.ndim(r) else reports[0]
