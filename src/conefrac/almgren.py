"""Frequency machinery: the boundary mass
H(r) = r^(2s-N-1) int_{sphere r} t^(1-2s) U^2 dS, the scaled energy D(r),
r^(2s-N) times the volume gradient energy minus the kappa_s
(h + lam |x|^(-2s)) trace term, the frequency N(r) = D/H, Fourier mode
profiles, the amplitude formula for the limit profile, and the Pohozaev
balance used as a numerical diagnostic.

Two claims of the theory are read off these outputs.  The Green identity
energy = flux is H' = 2D/r: H = c^T G_M c gives H' = 2 c^T G_M c', so
r^(2s-N) flux = r H'/2 while D = r^(2s-N) energy, and ``pohozaev_check``'s
``green_residual`` is that identity's residual.  The blow-up
U(tau z) / sqrt(H(tau)) has mode coefficients phi_j(tau) / sqrt(H(tau)),
so its projection off the dominant multiplicity group comes from
``fourier_coeffs`` and ``frequency_trace``.

A field's sphere sample is c(rho)^T T (``ScalarField``), so every sphere
form is c(rho)^T (T A T^T) c(rho) on the Grams that the field's solve
supplied: O(rows^2) per radius, no sweep over the hemisphere nodes; the h
trace term alone is evaluated row-wise on the equator columns.  Mode
projections read the eigen system's M psi_j.  Radial integrals are closed
forms for manufactured (exactly homogeneous) fields; everything else goes
through one radial quadrature plan: composite 4-point Gauss panels in log
radius with a panel edge at every requested radius, and the integrals up to
every radius read off one cumulative sum.  Grid fields add a local-power
continuation below the innermost shell.

Every entry point reads N, s, lambda and h from the field's ``params`` and
the modes from its eigen system ``es``, which without h also fixes the
order fit's remainder exponent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cones import gauss_legendre
from .errors import DomainError, NumericalError
from .expressions import Expression
from .extension import (ManufacturedField, ScalarField, _sample,
                        equator_values)
from .spectral import EigenSystem

__all__ = [
    "FrequencyTrace",
    "FourierTrace",
    "PohozaevReport",
    "frequency_trace",
    "fourier_coeffs",
    "beta_coefficients",
    "pohozaev_check",
]


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _bilinear(C: np.ndarray, G: np.ndarray,
              D: np.ndarray | None = None) -> np.ndarray:
    """Row-wise c_i^T G d_i for a dense G, D defaulting to C: ``_sample``'s
    vector-matrix product and one row sum per row, so a row of a batched
    call is bit-identical to the call at that radius alone."""
    return np.sum(_sample(C, G) * (C if D is None else D), axis=1)


def _equator_rows(expr: Expression, rho: np.ndarray, mesh) -> np.ndarray:
    """expr at the equator nodes of the sphere of every radius in rho, one
    row per radius."""
    return equator_values(expr, rho[:, None], mesh.theta_nodes)


def _shell_terms(fld: ScalarField, rho: np.ndarray):
    """Normal-derivative and gradient energies, equator mass and flux on
    the sphere of every rho, from the field's Grams, and the rows (c, c')."""
    N, s, G = fld.params.N, fld.params.s, fld.grams
    c, cg = fld.coefficients(rho), fld.coefficients(rho, derivative=True)
    norm_der = rho ** (N + 1 - 2 * s) * _bilinear(cg, G["M"])
    grad = norm_der + rho ** (N - 1 - 2 * s) * _bilinear(c, G["K"])
    return (norm_der, grad, rho ** (N - 1 - 2 * s) * _bilinear(c, G["B"]),
            rho ** (N + 1 - 2 * s) * _bilinear(c, G["M"], cg), (c, cg))


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
    xg, wg = gauss_legendre(4)
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

def _boundary_mass(fld: ScalarField, radii: np.ndarray):
    """H on the field's mass Gram, and its rows c; H <= 0 (trivial) raises."""
    outside = radii[(radii <= 0.0) | (radii > 1.0 + 1e-12)]
    if len(outside):
        raise DomainError(f"radius must lie in (0, 1], got {outside[0]}")
    c = fld.coefficients(radii)
    H = _bilinear(c, fld.grams["M"])
    bad = np.flatnonzero(H <= 0.0)
    if len(bad):
        raise NumericalError(
            f"H({radii[bad[0]]}) = {H[bad[0]]} is not positive: the field "
            "is trivial there")
    return H, c


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
    """(vol, hardy, trace_h, rows): the radial integrals of the energy from
    the vertex to every radius, and any rows (c, c') formed at the core
    point and the nodes.  Manufactured fields give vol and hardy in closed
    form, the rest comes from the plan; a grid field's power continuation
    gives the part below the plan's lower end, all of it for smaller radii."""
    N, s, h = fld.params.N, fld.params.s, fld.params.h
    lo = plan.edges[0]
    rho = np.append(lo, plan.rho)          # the core point, then the nodes
    core = np.minimum(radii, lo) / lo      # r / lo below the plan, else 1
    if isinstance(fld, ManufacturedField):
        vol, hardy = _manufactured_terms(fld, radii)
        h_power, rows = math.inf, ()       # no core, no rows yet
    else:
        gloc = fld.local_power()
        _, e_vol, e_hardy, _, rows = _shell_terms(fld, rho)
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
        return vol, hardy, np.zeros_like(vol), rows
    rows = rows or (fld.coefficients(rho),
                    fld.coefficients(rho, derivative=True))
    tr = _sample(rows[0], fld.table[:, fld.mesh.equator_ids])
    e_h = rho ** (N - 1) * _bilinear(_equator_rows(h, rho, fld.mesh) * tr,
                                     fld.mesh.Bth_dense, tr)
    return vol, hardy, (plan.integrate(e_h[1:], radii)
                        + e_h[0] * lo / h_power * core ** h_power), rows


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


def _fit_gamma(radii, ncal, delta):
    """Fit N(r) ~ gamma + c r^delta on the smallest half of the radii, a
    linear least-squares fit in (gamma, c).  No delta, a non-finite N or an
    ill-conditioned fit falls back to the smallest-radius value; a flat N
    has no remainder to fit."""
    m = max(4, len(radii) // 2)
    r, y = np.asarray(radii[:m]), np.asarray(ncal[:m])
    if delta is None or not np.all(np.isfinite(y)):
        return float(y[0]), None, None, True
    if np.ptp(y) < 1e-12:
        return float(y[0]), None, 0.0, False
    A = np.column_stack([np.ones_like(r), r ** delta])
    if not np.linalg.cond(A) <= 1e12:           # also inf or nan
        return float(y[0]), None, None, True
    (g, c), *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(g), delta, float(c), False


def _remainder_exponent(fld: ScalarField, c0: np.ndarray) -> float | None:
    """2 (gamma_g - gamma_j0) from the mode profiles phi = psi^T M T^T c0
    of the field's eigen system at the smallest radius: j0 the mode of
    largest |phi_j|, g the group above j0's with the largest leading term
    (gamma_g - gamma_j0) sum_{j in g} phi_j^2 of N - gamma_j0.  None
    without an eigen system or a group above j0's."""
    es = fld.es
    if es is None:
        return None
    phi = es.mass_vectors @ fld.table.T @ c0
    j0 = int(np.argmax(np.abs(phi)))
    above = int(es.group[j0]) + 1
    first = np.flatnonzero(np.diff(es.group, prepend=-1))  # per group
    gap = es.gamma[first] - es.gamma[j0]
    # np.bincount, not np.unique: that loads numpy.ma
    lead = (gap * np.bincount(es.group, weights=phi * phi))[above:]
    return 2.0 * float(gap[above + np.argmax(lead)]) if len(lead) else None


def frequency_trace(fld: ScalarField, radii) -> FrequencyTrace:
    """Pointwise frequency on the radii, ascending in (0, 1] (the CLI takes
    them from ``config.analyzer_radii``), plus the r -> 0 extrapolation.

    With a perturbation present the remainder exponent is pinned to
    2s - N/p; without one ``_remainder_exponent`` reads it off the field's
    modes.  No exponent or an ill-conditioned fit falls back to N(radii[0]).
    """
    radii = np.asarray(radii, dtype=float)
    params = fld.params
    Hs, rows = _boundary_mass(fld, radii)
    vol, hardy, trace_h, _ = _d_terms(fld, _plan_for(fld, radii), radii)
    Ds = radii ** (2.0 * params.s - params.N) * (
        vol - params.kappa * (params.lam * hardy + trace_h))
    ncal = Ds / Hs

    floor = -params.half_order
    if np.any(ncal <= floor - 1e-9):
        warnings.warn("frequency dipped below -(N-2s)/2: "
                      "lam is likely inadmissible", RuntimeWarning)

    delta = (_remainder_exponent(fld, rows[0]) if params.h is None
             else 2.0 * params.s - params.N / params.p)
    g, d, c, fb = _fit_gamma(radii, ncal, delta)
    return FrequencyTrace(radii=radii, H=Hs, D=Ds, Ncal=ncal, gamma_hat=g,
                          fit_exponent=d, fit_coefficient=c, fit_fallback=fb)


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


def fourier_coeffs(fld: ScalarField, taus) -> FourierTrace:
    """Mode coefficients phi_j(tau) on the field's eigen system by
    hemisphere quadrature and the cumulative perturbation integrals
    Upsilon_j(tau) of the field's h by log-spaced radial quadrature of the
    cap-arc integrand.  A field without an eigen system raises
    DomainError."""
    params, es = fld.params, fld.es
    if es is None:
        raise DomainError("the field has no eigen system to project on")
    taus = np.sort(np.asarray(taus, dtype=float))
    if taus[0] <= 0.0 or taus[-1] > 1.0:
        raise DomainError("taus must lie in (0, 1]")
    k = es.k
    # psi_j^T M T^T once, then c(tau) per radius
    phi = es.mass_vectors @ fld.table.T @ fld.coefficients(taus).T

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
            @ (es.mesh.Bth_dense @ (hv * tr).T))
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

    The h part, in its Euler form kappa/2 int (x . grad h + N h) |Tr U|^2
    minus kappa/2 R circ_h(R) (circ_h: rho^(N-1) int h |Tr U|^2 on the
    circle of radius rho), is taken by parts in the radius, since
    rho^(N-1) (rho d_rho h + N h) = d_rho (rho^N h): the piece at R cancels
    the circle term, leaving -kappa/2 int rho^N int h d_rho |Tr U|^2 on the
    plan.  It reads h, never grad h, so any bounded h works.  The piece at
    the plan's lower end lo, kappa/2 lo circ_h(lo), is O(lo^(N + 2 gamma))
    and dropped: no core term.

    lhs >= rhs - 1e-2 * scale is reported as ``satisfied``; homogeneous
    fields saturate the balance (equality).  An array of radii gives one
    report per radius, all from one radial plan with an edge at every
    radius.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    p = fld.params
    N, s, lam, h, kappa = p.N, p.s, p.lam, p.h, p.kappa

    norm_der, grad, circ_hardy, flux, _ = _shell_terms(fld, radii)

    plan = _plan_for(fld, radii)
    vol, hardy, trace_h, rows = _d_terms(fld, plan, radii)

    lhs = 0.5 * radii * (grad - kappa * lam * circ_hardy) - radii * norm_der
    if h is not None:
        eq = fld.table[:, fld.mesh.equator_ids]
        tr, dtr = (c[1:] @ eq for c in rows)    # rows: core point, nodes
        hv = _equator_rows(h, plan.rho, fld.mesh)
        Bth = fld.mesh.Bth_dense
        d_mass = plan.rho ** N * (_bilinear(hv * dtr, Bth, tr)
                                  + _bilinear(hv * tr, Bth, dtr))
        lhs -= 0.5 * kappa * plan.integrate(d_mass, radii)

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
