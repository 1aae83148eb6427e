"""Coarse solver for the localized extension problem on the 3-D half-ball
(N = 2) and the scalar-field containers the frequency analyzer consumes.

Spherical coordinates (r, t, theta) make every radial integral of the
Almgren machinery a closed form or a 1-D quadrature: the grid is the tensor
product of geometrically graded shells with the hemisphere mesh.  The
operator

    kron(S_r, M_h) + kron(M_r, K_h) - kappa_s * (trace terms on the equator)

is never assembled in 3-D: it is applied through its factors, and all but
its h trace term is inverted exactly, without sparse factorization, by
fast diagonalization: a generalized eigendecomposition in r, then per
radial eigenvalue the hemisphere solver of ``sphercap``.  The h term
couples only the free equator nodes, so conjugate gradients (``_pcg``) run
on that trace alone, a capacitance-matrix method (Buzbee et al., 1971).

Fields come in two flavours: ``ManufacturedField`` (exact superpositions of
homogeneous eigenprofiles, used as oracles) and ``GridField`` (solver
output, radially interpolated with 4-point stencils on the uniform-in-log
shell grid); both are coefficient rows over a table of sphere vectors, and
both own their problem (``params``, h included) and their mesh (the cap).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .cones import SphericalCap
from .errors import DomainError, NumericalError
from .expressions import Expression
from .params import ProblemParams
from .spectral import EigenSystem
from .sphercap import (HemisphereMesh, HemisphereSolver, band_to_dense,
                       build_mesh, eigh_pencil, element_band)

__all__ = [
    "HalfBallGrid",
    "build_halfball_grid",
    "ScalarField",
    "ManufacturedField",
    "GridField",
    "manufactured_field",
    "solve_extension",
    "save_field",
    "load_field",
]

CG_TOL = 1e-10          # relative residual at which the extension CG stops
CG_MAXITER = 20000


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfBallGrid:
    """Geometric shells times a hemisphere mesh; no node at r = 0."""

    r_nodes: np.ndarray          # (n_r + 1,) from r_min to 1, constant ratio
    mesh: HemisphereMesh

    @property
    def n_surfaces(self) -> int:
        return len(self.r_nodes)

    @property
    def r_min(self) -> float:
        return float(self.r_nodes[0])

    @property
    def x_nodes(self) -> np.ndarray:
        return np.log(self.r_nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_surfaces * self.mesh.n_nodes


def build_halfball_grid(n_r: int, r_min: float,
                        mesh: HemisphereMesh) -> HalfBallGrid:
    if n_r < 5:
        # the one-sided radial slope stencils read six shells
        raise DomainError("need n_r >= 5 (at least 6 shells)")
    if not 0.0 < r_min < 1.0:
        raise DomainError(f"r_min must lie in (0, 1), got {r_min}")
    r = r_min ** (1.0 - np.arange(n_r + 1) / n_r)
    return HalfBallGrid(r_nodes=r, mesh=mesh)


# ---------------------------------------------------------------------------
# radial 1-D matrices (closed-form power integrals)
# ---------------------------------------------------------------------------

def _power_primitive(a, b, w):
    return (b ** (w + 1.0) - a ** (w + 1.0)) / (w + 1.0)


def radial_mass(r_nodes: np.ndarray, weight_exp: float) -> np.ndarray:
    """int r^w N_i N_j dr assembled over the shells, exact (power rule);
    dense."""
    a, b = r_nodes[:-1], r_nodes[1:]
    dd = (b - a) ** 2
    p0 = _power_primitive(a, b, weight_exp)
    p1 = _power_primitive(a, b, weight_exp + 1.0)
    p2 = _power_primitive(a, b, weight_exp + 2.0)
    m00 = (b * b * p0 - 2.0 * b * p1 + p2) / dd
    m01 = (-a * b * p0 + (a + b) * p1 - p2) / dd
    m11 = (a * a * p0 - 2.0 * a * p1 + p2) / dd
    return band_to_dense(element_band(
        np.moveaxis(np.array([[m00, m01], [m01, m11]]), -1, 0)))


def radial_stiffness(r_nodes: np.ndarray, weight_exp: float) -> np.ndarray:
    """int r^w N_i' N_j' dr, exact; dense."""
    a, b = r_nodes[:-1], r_nodes[1:]
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return band_to_dense(element_band(
        sign * (_power_primitive(a, b, weight_exp)
                / (b - a) ** 2)[:, None, None]))


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def _sample(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c^T T with one vector-matrix product per radius (batched rows are
    bit-identical to scalar calls)."""
    return (coef[..., None, :] @ table)[..., 0, :]


def table_grams(mesh: HemisphereMesh, table: np.ndarray) -> dict:
    """Gram matrices T A T^T of a table of node vectors of the mesh for its
    forms A = M, K and B (B through Bth on the equator columns), keyed by
    name."""
    eq = table[:, mesh.equator_ids]
    return {"M": (table @ mesh.M) @ table.T,
            "K": (table @ mesh.K) @ table.T,
            "B": eq @ (band_to_dense(mesh.Bth) @ eq.T)}


class ScalarField:
    """Common surface for fields on the half-ball.

    A field's sample on the sphere of radius rho is c(rho)^T T: rows of
    ``coefficients`` (one per radius) over a small ``table`` of hemisphere
    node vectors, so a sphere form x^T A y of samples is c^T (T A T^T) c on
    the cached ``grams``.  Below ``core_radius`` the field is a power of r.
    ``params`` is the problem the field solves, h included, and ``mesh``
    the hemisphere mesh whose forms the grams use.
    """

    params: ProblemParams
    mesh: HemisphereMesh
    core_radius = 0.0
    is_analytic = False

    @property
    def grams(self) -> dict:
        """T A T^T for the mesh's forms A = M, K and B, keyed by name."""
        if not self._grams:
            self._grams.update(table_grams(self.mesh, self.table))
        return self._grams

    def sphere_radial_derivative(self, r) -> np.ndarray:
        return _sample(self.coefficients(r, derivative=True), self.table)

    def trace_values(self, rho) -> np.ndarray:
        return _sample(self.coefficients(rho),
                       self.table[:, self.mesh.equator_ids])


@dataclass(frozen=True)
class ManufacturedField(ScalarField):
    """Exact superposition sum_j beta_j |z|^gamma_j psi_j(z/|z|).

    An exact solution of the h = 0 problem at the eigen system's lambda; all
    frequency-analyzer integrals against it reduce to closed forms in r.
    Its table holds the modes psi_j, its coefficients beta_j r^gamma_j.
    """

    es: EigenSystem
    modes: tuple[int, ...]
    betas: np.ndarray
    _grams: dict = field(default_factory=dict, repr=False, compare=False)
    is_analytic = True

    def __post_init__(self):
        if len(self.modes) == 0:
            raise DomainError("empty coefficient list")
        for j in self.modes:
            if not 0 <= j < self.es.k:
                raise DomainError(f"mode index {j} out of range")

    @property
    def params(self) -> ProblemParams:
        return self.es.params

    @property
    def mesh(self) -> HemisphereMesh:
        return self.es.mesh

    @property
    def gammas(self) -> np.ndarray:
        return self.es.gamma[list(self.modes)]

    @property
    def table(self) -> np.ndarray:
        return self.es.vectors[list(self.modes)]

    def coefficients(self, r, derivative: bool = False) -> np.ndarray:
        r = np.asarray(r, dtype=float)[..., None]
        if derivative:
            return self.betas * self.gammas * r ** (self.gammas - 1.0)
        return self.betas * r ** self.gammas

    def sphere_values(self, r) -> np.ndarray:
        return _sample(self.coefficients(r), self.table)


def manufactured_field(es: EigenSystem, coefficients) -> ManufacturedField:
    """Build the exact superposed solution from (mode, amplitude) pairs."""
    coefficients = list(coefficients)
    if not coefficients:
        raise DomainError("empty coefficient list")
    modes = tuple(int(j) for j, _ in coefficients)
    betas = np.array([float(b) for _, b in coefficients])
    return ManufacturedField(es=es, modes=modes, betas=betas)


class GridField(ScalarField):
    """Solver output on a HalfBallGrid.

    Its table is the shell values.  Radial interpolation is 4-point
    Lagrange on the uniform log-radius grid; radial derivatives interpolate
    fourth-order central stencils at the shells (one-sided at the edges).
    Below the innermost shell the field continues as the local power
    r^gamma_loc fitted to the boundary-mass slope there.
    """

    def __init__(self, grid: HalfBallGrid, values: np.ndarray,
                 params: ProblemParams, meta: dict | None = None):
        grid.mesh.check_params(params)
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_surfaces, grid.mesh.n_nodes):
            raise DomainError("values have the wrong shape for the grid")
        self.grid = grid
        self.values = self.table = values
        self.params = params
        self.meta = dict(meta or {})
        self.core_radius = grid.r_min
        self._grams = {}
        self._gamma_loc = None

    @property
    def mesh(self) -> HemisphereMesh:
        return self.grid.mesh

    def _slope_matrix(self) -> np.ndarray:
        """D with D @ values the log-radius slopes at the shells."""
        n = self.grid.n_surfaces
        D = np.zeros((n, n))
        for k, a in enumerate(np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0):
            D[np.arange(2, n - 2), np.arange(k, n - 4 + k)] = a
        # one-sided fourth order at the edges
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
        D[0, :5] = D[1, 1:6] = c
        D[-1, -5:] = D[-2, -6:-1] = -c[::-1]
        return D / (self.grid.x_nodes[1] - self.grid.x_nodes[0])

    def local_power(self) -> float:
        """Homogeneity exponent near the inner shell, from the boundary-mass
        slope; used to continue the field below r_min."""
        if self._gamma_loc is None:
            # plain node sums are enough for a slope estimate
            v0 = self.values[0]
            v2 = self.values[2]
            h0 = float(v0 @ v0) + 1e-300
            h2 = float(v2 @ v2) + 1e-300
            dx = self.grid.x_nodes[2] - self.grid.x_nodes[0]
            self._gamma_loc = 0.5 * (math.log(h2) - math.log(h0)) / dx
        return self._gamma_loc

    def coefficients(self, r, derivative: bool = False) -> np.ndarray:
        """Coefficient rows over the shells at radii r: 4-point Lagrange
        weights in log r, times the slope stencils over r for the
        derivative; below r_min the power continuation (r / r_min)^gamma_loc
        of values[0], times gamma_loc / r for the derivative."""
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(rr <= 0.0):
            raise DomainError("radius must be positive")
        if np.any(rr > self.grid.r_nodes[-1] * (1.0 + 1e-12)):
            raise DomainError(f"radius {rr.max()} beyond the grid")
        xs = self.grid.x_nodes
        below = rr < self.grid.r_min
        x = np.log(np.maximum(rr, self.grid.r_min))
        stencil = np.clip(np.searchsorted(xs, x, side="right") - 2, 0,
                          len(xs) - 4)[:, None] + np.arange(4)
        xst = xs[stencil]
        w = np.ones(stencil.shape)
        for a in range(4):
            for b in range(4):
                if a != b:
                    w[:, a] *= (x - xst[:, b]) / (xst[:, a] - xst[:, b])
        w[below] = 0.0
        out = np.zeros((len(rr), len(xs)))
        out[np.arange(len(rr))[:, None], stencil] = w
        if derivative:
            out = _sample(out / rr[:, None], self._slope_matrix())
        if np.any(below):
            gloc = self.local_power()
            scale = (rr[below] / self.grid.r_min) ** gloc
            out[below, 0] = scale * gloc / rr[below] if derivative else scale
        return out if np.ndim(r) else out[0]

    def sphere_values(self, r) -> np.ndarray:
        return _sample(self.coefficients(r), self.table)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def equator_values(expr: Expression, r, theta) -> np.ndarray:
    """expr on the equator plane t = 0 at the polar coordinates (r, theta),
    broadcast together, with x1 = r cos theta and x2 = r sin theta bound
    too."""
    return np.asarray(expr.eval({"x1": r * np.cos(theta),
                                 "x2": r * np.sin(theta),
                                 "r": r, "theta": theta, "t": 0.0})
                      * np.ones(np.broadcast_shapes(np.shape(r),
                                                    np.shape(theta))))


def _trace_h(grid: HalfBallGrid, h: Expression):
    """The equator form int h(x) Tr U Tr V dx over the mesh's cap segments,
    4x4 Gauss per (radial cell, segment), as the map from a (shells, nodes)
    block U to its (shells, ntheta) equator rows; the per-element 4 x 4
    blocks are applied directly."""
    mesh = grid.mesh
    theta_segments = np.flatnonzero(mesh.segment_mask)
    xg, wg = np.polynomial.legendre.leggauss(4)

    def cells(lo, width):
        """Gauss points, weights and the two hats (cell, 2, point)."""
        x = lo[:, None] + 0.5 * width[:, None] * (xg + 1.0)
        frac = 0.5 * (xg + 1.0) * np.ones((len(lo), 1))
        return x, 0.5 * width[:, None] * wg, np.stack([1.0 - frac, frac], 1)

    r = grid.r_nodes
    rq, wr, Nr = cells(r[:-1], np.diff(r))
    dtheta = 2.0 * math.pi / mesh.ntheta
    thq, wth, Nt = cells(mesh.theta_nodes[theta_segments],
                         np.full(len(theta_segments), dtheta))
    W = (equator_values(h, rq[:, :, None, None], thq)
         * (rq * wr)[:, :, None, None] * wth)          # (cell, p, seg, q)
    E = np.einsum("cap,cbp,sdq,seq,cpsq->csadbe", Nr, Nr, Nt, Nt, W,
                  optimize=True).reshape(-1, 4, 4)
    # equator position (shell, node) of corner (a, d) of (cell, segment)
    shell = np.arange(len(rq))[:, None, None, None] + np.arange(2)[:, None]
    node = (theta_segments[:, None] + np.arange(2)) % mesh.ntheta
    ids = (shell * mesh.ntheta + node[:, None]).reshape(-1, 4)
    shape = (grid.n_surfaces, mesh.ntheta)

    def apply(U: np.ndarray) -> np.ndarray:
        v = U[:, :mesh.ntheta].ravel()[ids]
        return np.bincount(ids.ravel(), (E @ v[:, :, None]).ravel(),
                           minlength=shape[0] * shape[1]).reshape(shape)

    return apply


class _FastDiagPreconditioner:
    """Exact inverse of A0 = kron(S_r, M_h) + kron(M_r, K_h - rho B_h) on
    the free dofs, with no sparse factorization; SPD for admissible rho.  Its
    vectors are flat (shells, nodes) arrays that vanish on Dirichlet nodes.

    The generalized eigendecomposition S_r W = M_r W diag(lam) splits the
    operator into one hemisphere operator K_h - rho B_h + lam_i M_h per
    radial eigenvalue, and ``HemisphereSolver`` inverts them all at once;
    its Schur complements S_i on the free equator nodes give ``trace``.
    """

    def __init__(self, Sr: np.ndarray, Mr: np.ndarray, mesh: HemisphereMesh,
                 rho: float):
        lam, self.W = eigh_pencil(Sr, Mr)
        self.solver = HemisphereSolver(mesh, lam, rho)
        self._trace = ((self.W, self.solver.schur_inv),
                       (Mr @ self.W, self.solver.schur))

    def apply(self, x: np.ndarray) -> np.ndarray:
        X = self.W.T @ x.reshape(len(self.W), -1)
        return (self.W @ self.solver.solve(X)).ravel()

    def trace(self, y: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Z y = E^T A0^-1 E y = (W x I) diag(S_i^-1) (W^T x I) y, E the free
        equator nodes F, y flat (shells, F); Z^-1 y from M_r W, S_i."""
        W, S = self._trace[inverse]
        Y = W.T @ y.reshape(len(W), -1)
        return (W @ (S @ Y[:, :, None])[:, :, 0]).ravel()


def _extension_operator(grid: HalfBallGrid, params: ProblemParams):
    """The operator kron(S_r, M_h) + kron(M_r, K_h - lam kappa_s B_h) minus
    the kappa_s h trace term, applied to full 3-D node vectors through its
    factors; returned with S_r, M_r and the h trace form (None without h).
    Its result lives in a workspace that the next application overwrites."""
    s = params.s
    Sr = radial_stiffness(grid.r_nodes, 3.0 - 2.0 * s)
    Mr = radial_mass(grid.r_nodes, 1.0 - 2.0 * s)
    # the lambda trace term is radially exact and joins the hemisphere
    # stiffness; the h term is a Gauss quadrature on the equator plane
    mesh = grid.mesh
    M, K_lam = mesh.M, mesh.K - (params.lam * params.kappa) * mesh.B
    trace_h = None if params.h is None else _trace_h(grid, params.h)
    shape = (grid.n_surfaces, mesh.n_nodes)
    n_eq = mesh.ntheta
    # one workspace: fresh full-size temporaries fault in every page
    out, tmp = np.empty(shape), np.empty(shape)

    def apply(u: np.ndarray) -> np.ndarray:
        U = u.reshape(shape)
        np.matmul(Sr, U @ M, out=out)
        np.add(out, np.matmul(Mr, U @ K_lam, out=tmp), out=out)
        if trace_h is not None:
            out[:, :n_eq] -= params.kappa * trace_h(U)
        return out.ravel()

    return apply, Sr, Mr, trace_h


def _pcg(matvec, precond, b: np.ndarray):
    """Preconditioned CG for the SPD system matvec(x) = b (the extension's
    equator trace) from x = 0, stopping before the update at which
    |r| < CG_TOL |b|.  Returns the solution and the number of updates,
    CG_MAXITER when the test never held."""
    x, r, p = np.zeros_like(b), b.copy(), None
    tol = CG_TOL * np.linalg.norm(b)
    if tol == 0.0:                              # b = 0
        return x, 0
    for it in range(CG_MAXITER):
        if np.linalg.norm(r) < tol:
            return x, it
        z = precond(r)
        rho = np.dot(r, z)
        p = z if p is None else (rho / rho_prev) * p + z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, CG_MAXITER


def solve_extension(grid: HalfBallGrid, params: ProblemParams,
                    lid_data: np.ndarray, es: EigenSystem) -> GridField:
    """Discrete weak solution of the localized extension problem that
    ``params`` (h included) poses on the cap of the grid's mesh.

    Dirichlet data: ``lid_data`` on the unit sphere (full hemisphere node
    vector; its values on Dirichlet equator nodes are forced to zero) and
    zero trace outside the cap on every shell.  The inner sphere r = r_min
    carries the scaled trace of the dominant homogeneous mode of the lid
    data when h is absent, else a natural (zero-flux) condition; frequency
    analysis of the output should then stay above ~10 r_min.

    The admissibility lam < Lambda(cap) is enforced through the eigen system
    ``es`` used for the modal bookkeeping, solved on the grid's mesh at the
    same lam.
    A = A0 - E H E^T, A0 inverted by ``_FastDiagPreconditioner``, H the h
    form on the free equator nodes E.  Without h, x = A0^-1 b.  With h, CG
    solves (Z^-1 - H) y = Z^-1 E^T x0 for y = E^T x, x0 = A0^-1 b,
    Z = E^T A0^-1 E; x = A0^-1 (b + E H y) is refined once.  ``meta``: the
    trace CG's iterations (0 without h), the 3-D residual.
    """
    mesh = grid.mesh
    mesh.check_params(params)
    lid = np.asarray(lid_data, dtype=float).copy()
    if lid.shape != (mesh.n_nodes,):
        raise DomainError("lid data must be a full hemisphere node vector")
    lid[mesh.dirichlet_ids] = 0.0

    h_is_zero = params.h is None
    if es.mesh is not mesh:
        raise DomainError("the eigen system belongs to a different mesh")
    elif es.lam != params.lam:
        raise DomainError("the eigen system was solved at a different lam")

    n_h = mesh.n_nodes
    n_surf = grid.n_surfaces
    operator, Sr, Mr, trace_h = _extension_operator(grid, params)

    # Dirichlet data on the outer shell, and on the inner one when h is
    # absent; the unknowns are the shells between, with zero Dirichlet columns
    u = np.zeros((n_surf, n_h))
    u[-1] = lid
    inner_mode = None
    if h_is_zero:
        coeffs = es.vectors @ (mesh.M @ lid)
        j0 = inner_mode = int(np.argmax(np.abs(coeffs)
                                        * grid.r_min ** es.gamma))
        u[0] = coeffs[j0] * grid.r_min ** es.gamma[j0] * es.vectors[j0]
    shells = slice(1 if h_is_zero else 0, n_surf - 1)
    free = mesh.dof_of_node >= 0

    def interior(y: np.ndarray) -> np.ndarray:
        return (y.reshape(n_surf, n_h)[shells] * free).ravel()

    b = -interior(operator(u))

    def residual(x: np.ndarray) -> np.ndarray:      # b - A x, x into u
        u[shells] = x.reshape(-1, n_h)
        return -interior(operator(u))

    F, v_eq = mesh.robin_ids, np.zeros((n_surf, mesh.ntheta))

    def trace_form(y: np.ndarray) -> np.ndarray:        # H y
        v_eq[shells, F] = y.reshape(-1, len(F))
        return params.kappa * trace_h(v_eq)[shells, F].ravel()

    fast = _FastDiagPreconditioner(Sr[shells, shells], Mr[shells, shells],
                                   mesh, params.lam * params.kappa)
    x, iters = fast.apply(b), 0             # without h, A = A0
    if trace_h is not None:
        y, iters = _pcg(lambda y: fast.trace(y, True) - trace_form(y),
                        fast.trace,
                        fast.trace(x.reshape(-1, n_h)[:, F].ravel(), True))
        rhs = b.reshape(-1, n_h).copy()
        rhs[:, F] += trace_form(y).reshape(-1, len(F))
        x = fast.apply(rhs)
        x += fast.apply(residual(x))        # one refinement step
    res = float(np.linalg.norm(residual(x))
                / max(np.linalg.norm(b), 1e-300))
    if iters == CG_MAXITER:
        raise NumericalError(
            f"conjugate gradients did not converge in {iters} iterations "
            f"(relative residual {res:.3e}); check admissibility of lam = "
            f"{params.lam}")

    meta = {"inner_mode": inner_mode, "cg_iters": iters,
            "cg_residual": res}
    return GridField(grid, u, params, meta=meta)


# ---------------------------------------------------------------------------
# flat binary serialization
# ---------------------------------------------------------------------------

_MAGIC = b"CFXF"
_VERSION = 1
_HEADER = struct.Struct("<4sI3I6d")   # magic, version, dims, scalars


def save_field(path, fld: GridField) -> None:
    """Flat little-endian layout: magic, version, dims, scalar header, the
    shell radii, then node values in (r, t, theta) lexicographic order."""
    mesh = fld.mesh
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, fld.grid.n_surfaces,
                              mesh.nt, mesh.ntheta, fld.params.s,
                              fld.params.lam, mesh.cap.a, mesh.cap.b,
                              fld.grid.r_min, mesh.grading))
        fld.grid.r_nodes.astype("<f8").tofile(fh)
        fld.values.astype("<f8").tofile(fh)


def load_field(path, params: ProblemParams | None = None) -> GridField:
    """Read a field written by ``save_field``.  A file whose header and
    payload disagree, that holds non-finite numbers, or whose shell radii
    are not geometric raises DomainError, as do ``params`` whose s or lam
    differ from the file's.  The field owns ``params``, by default the
    file's s and lam without h."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC or len(raw) < _HEADER.size:
        raise DomainError(f"{path} is not a conefrac field file")
    _, version, n_surf, nt, ntheta, *scalars = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise DomainError(f"unsupported field version {version}")
    size = _HEADER.size + 8 * n_surf * (1 + nt * ntheta)
    if n_surf < 6:
        raise DomainError(f"{path}: {n_surf} shells, need at least 6")
    if len(raw) != size:
        raise DomainError(f"{path}: header declares {n_surf} shells of "
                          f"{nt}x{ntheta} nodes ({size} bytes), the file "
                          f"has {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(scalars))):
        raise DomainError(f"{path} holds non-finite values")
    r_nodes = data[:n_surf]
    ratio = r_nodes[1:] / r_nodes[:-1]
    if r_nodes[0] <= 0.0 or not np.allclose(ratio, ratio[0], rtol=1e-9,
                                            atol=0.0) or ratio[0] <= 1.0:
        raise DomainError(f"{path}: shell radii are not geometric")
    s, lam, cap_a, cap_b, r_min, grading = scalars
    if params is None:
        params = ProblemParams(s=s, lam=lam)
    elif (params.s, params.lam) != (s, lam):
        raise DomainError(f"{path} holds a field for s = {s}, lam = {lam},"
                          f" not {params.s}, {params.lam}")
    mesh = build_mesh(nt, ntheta, s, SphericalCap(cap_a, cap_b), grading)
    grid = HalfBallGrid(r_nodes=r_nodes, mesh=mesh)
    return GridField(grid, data[n_surf:].reshape(n_surf, nt * ntheta),
                     params)
