"""Weighted finite elements on the upper half-sphere (N = 2).

The hemisphere is parametrized by polar height t in [0, pi/2) and azimuth
theta in [0, 2 pi), with surface element cos t dt dtheta and degenerate
weight (sin t)^(1-2s).  Bilinear elements on the tensor grid separate: the
stiffness, mass and boundary forms are Kronecker products of polar and
azimuthal 1-D matrices.  The mesh keeps the forms as those factors,
symmetric bands summed from per-cell 2 x 2 element blocks, applied in
banded passes; they are never assembled in 2-D.  The polar blocks fold all
metric and weight factors into 1-D integrals computed either in closed form
(substitution u = sin t) or by Gauss/Gauss-Jacobi quadrature, so the
degenerate factor at the equator is integrated to near machine precision.

The polar axis t = pi/2 carries no node: the last cell extends the ring
values as constants in t and is integrated one-sidedly, which imposes
nothing there (natural condition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import SphericalCap, _gauss_jacobi, gauss_legendre
from .errors import (DomainError, GeometryError, NumericalError,
                     UnresolvedCapError)
from .params import ProblemParams

__all__ = [
    "HemisphereMesh",
    "build_mesh",
    "element_band",
    "band_to_dense",
    "eigh_pencil",
    "HemisphereSolver",
    "polar_matrices",
]

_GAUSS_PTS = 12
_POLE_GAUSS_PTS = 16


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HemisphereMesh:
    """Tensor grid on the hemisphere with equator classification, and the
    symmetric forms of the weighted spherical problem on its full node set,
    held as their 1-D factors (bands from ``element_band``):

      K = P1 (x) Mth + P2 (x) Kth   stiffness (no Robin term), semi-definite
      M = P0 (x) Mth                weighted mass, positive definite
      B = e0 e0^T (x) Bth           equator boundary mass on the cap dofs

    with P0, P1, P2 the tridiagonal polar bands of ``polar_matrices``, Mth
    and Kth the constant-coefficient circulants of the azimuthal mass and
    stiffness, and Bth the periodic band of the cap segments on the equator
    row e0.  Its forms, symbols, dense Bth, C and E are built once, on read.

    Nodes are indexed by ``i * ntheta + j`` with ``i`` the polar row
    (``i = 0`` on the equator) and ``j`` the azimuthal column.  Row ``nt - 1``
    is the last ring before the pole; the pole itself is covered by the
    one-sided pole cell.
    """

    nt: int
    ntheta: int
    s: float
    grading: float
    cap: SphericalCap
    t_nodes: np.ndarray
    theta_nodes: np.ndarray
    robin_mask: np.ndarray       # (ntheta,) equator nodes inside the cap
    segment_mask: np.ndarray     # (ntheta,) segment midpoints in the cap
    free_nodes: np.ndarray       # retained dof -> node id
    dof_of_node: np.ndarray      # node id -> retained dof or -1
    P0: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    Mth: np.ndarray
    Kth: np.ndarray
    Bth: np.ndarray

    @cached_property
    def K(self) -> _KronForm:
        return _KronForm(self, k=1.0)

    @cached_property
    def M(self) -> _KronForm:
        return _KronForm(self, m=1.0)

    @cached_property
    def B(self) -> _KronForm:
        return _KronForm(self, b=1.0)

    @cached_property
    def Bth_dense(self) -> np.ndarray:
        return band_to_dense(self.Bth)

    def check_params(self, params: ProblemParams) -> None:
        """Raise DomainError unless ``params`` pose their problem on this
        mesh: the N = 2 hemisphere at the mesh's s."""
        if params.N != 2:
            raise DomainError(
                f"the hemisphere forms need N = 2, got {params.N}")
        if abs(params.s - self.s) > 1e-14:
            raise DomainError("mesh was built for a different s")

    @property
    def n_nodes(self) -> int:
        return self.nt * self.ntheta

    @property
    def n_free(self) -> int:
        return len(self.free_nodes)

    @property
    def equator_ids(self) -> np.ndarray:
        return np.arange(self.ntheta)

    @property
    def robin_ids(self) -> np.ndarray:
        return np.flatnonzero(self.robin_mask)

    @property
    def dirichlet_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.robin_mask)

    @cached_property
    def mode_scale(self) -> np.ndarray:
        """sqrt(c_k / ntheta): c_k = 1 for the self-conjugate modes, else 2.
        Undone by the factor 1 / mode_scale: numpy's division, but cheaper."""
        k = np.arange(self.ntheta // 2 + 1)
        return np.sqrt(np.where(2 * k % self.ntheta, 2.0, 1.0) / self.ntheta)

    def to_modes(self, X: np.ndarray) -> np.ndarray:
        """Modes of node rows (..., ntheta): rfft scaled to an isometry."""
        Z = np.fft.rfft(X, axis=-1)
        Z *= self.mode_scale            # in place: a copy faults in pages
        return Z

    def from_modes(self, Z: np.ndarray) -> np.ndarray:
        """Node rows (..., ntheta) of scaled coefficients."""
        return np.fft.irfft(Z * (1.0 / self.mode_scale), self.ntheta, axis=-1)

    @cached_property
    def C(self) -> np.ndarray:
        """Mass factor C = U0 (x) diag(sqrt m_k), M = C C^T on float mode
        rows: P0 = U0 U0^T with U0 upper bidiagonal (factored from the last
        row up, so that C^-1 maps the equator row into itself), m_k the
        symbol of Mth.  Its diagonal and superdiagonal (row i to row i + 1)
        in t, (2, nt, 2 n_modes); the last superdiagonal row is 0."""
        U = np.zeros((2, self.nt))
        d, o = self.P0
        U[0, -1] = math.sqrt(d[-1])
        for i in range(self.nt - 2, -1, -1):
            U[1, i] = o[i] / U[0, i + 1]
            U[0, i] = math.sqrt(d[i] - U[1, i] ** 2)
        return U[:, :, None] * np.repeat(np.sqrt(self.symbols[0]), 2)

    @cached_property
    def E(self) -> np.ndarray:
        """Float mode rows of the free equator nodes F, (2 n_modes, |F|):
        orthonormal columns, E E^T the projection that zeros D."""
        rows = np.eye(self.ntheta)[self.robin_mask]
        return np.ascontiguousarray(self.to_modes(rows).view(float).T)

    def symbol(self, band: np.ndarray) -> np.ndarray:
        """Eigenvalue per mode of a circulant band (Mth, Kth)."""
        col = np.zeros(self.ntheta)
        col[[0, 1, -1]] = band[0, 0], band[1, 0], band[1, -1]
        return np.fft.rfft(col).real

    @cached_property
    def symbols(self) -> tuple[np.ndarray, np.ndarray]:      # m_k, w_k
        return self.symbol(self.Mth), self.symbol(self.Kth)


def build_mesh(n_t: int, n_theta: int, s: float, cap: SphericalCap,
               grading: float = 2.0) -> HemisphereMesh:
    """Graded tensor mesh and its forms; refinement accumulates at the
    equator t = 0.

    Polar rows sit at t_i = (pi/2) (i / n_t)^grading for i = 0 .. n_t - 1,
    so no node lands on the pole.  Equator nodes and segment midpoints are
    classified against the cap with the half-open convention [a, b).  A
    cap that no free equator node's segments reach raises
    UnresolvedCapError.
    """
    if n_t < 4 or n_theta < 4:
        raise DomainError("need n_t >= 4 and n_theta >= 4")
    if grading < 1.0:
        raise DomainError(f"grading must be >= 1, got {grading}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if cap.length <= 0.0:
        raise GeometryError("cap arc has zero length")

    i = np.arange(n_t, dtype=float)
    t_nodes = 0.5 * math.pi * (i / n_t) ** grading
    theta_nodes = 2.0 * math.pi * np.arange(n_theta) / n_theta
    robin_mask = np.asarray(cap.contains(theta_nodes), dtype=bool)
    segment_mask = np.asarray(cap.contains(theta_nodes + math.pi / n_theta),
                              dtype=bool)
    if not np.any(robin_mask & (segment_mask | np.roll(segment_mask, 1))):
        raise UnresolvedCapError(
            f"a cap of arc {cap.length:.6g} is not resolved on the {n_t}x"
            f"{n_theta} mesh: no free equator node touches a cap segment; "
            f"ntheta >= {math.ceil(4.0 * math.pi / cap.length)} resolves it")

    dirichlet = np.zeros(n_t * n_theta, dtype=bool)
    dirichlet[:n_theta] = ~robin_mask
    free_nodes = np.flatnonzero(~dirichlet)
    dof_of_node = np.full(n_t * n_theta, -1, dtype=np.int64)
    dof_of_node[free_nodes] = np.arange(len(free_nodes))

    mesh = HemisphereMesh(n_t, n_theta, s, grading, cap, t_nodes,
                          theta_nodes, robin_mask, segment_mask, free_nodes,
                          dof_of_node, *polar_matrices(t_nodes, s),
                          *_azimuthal_matrices(n_theta, segment_mask))
    if np.any(mesh.M.diagonal() <= 0.0):
        raise NumericalError("degenerate cell produced a singular mass")
    return mesh


# ---------------------------------------------------------------------------
# 1-D element matrices
# ---------------------------------------------------------------------------

def element_band(blocks, periodic: bool = False) -> np.ndarray:
    """Sum per-cell 2 x 2 element blocks (ncell, 2, 2) into a symmetric
    band (2, n): row 0 the diagonal, row 1 the coupling of node j to j + 1.
    Cell c couples nodes c and c + 1; with ``periodic`` there are as many
    nodes as cells and the last cell couples the last node to node 0, else
    a zero cell closes the chain and the last coupling is 0."""
    blocks = np.asarray(blocks, dtype=float)
    if not periodic:
        blocks = np.concatenate([blocks, np.zeros((1, 2, 2))])
    return np.stack([blocks[:, 0, 0] + np.roll(blocks[:, 1, 1], 1),
                     blocks[:, 0, 1]])


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix of a band from ``element_band``."""
    upper = np.roll(np.diag(band[1]), 1, axis=1)    # upper[j, j + 1]
    return np.diag(band[0]) + upper + upper.T


def eigh_pencil(A: np.ndarray, B: np.ndarray):
    """Eigenvalues, ascending, and B-orthonormal eigenvectors (columns) of
    the dense symmetric-definite pencil (A, B), reduced through B = L L^T
    to the standard problem L^-1 A L^-T y = w y, with x = L^-T y."""
    Li = np.linalg.inv(np.linalg.cholesky(B))
    w, Y = np.linalg.eigh(Li @ A @ Li.T)        # eigh reads the lower half
    return w, Li.T @ Y


def polar_matrices(t_nodes: np.ndarray, s: float):
    """Assembled 1-D polar matrices (P0, P1, P2) on the rows t_nodes:

      P0 = int N_a N_b (sin t)^(1-2s) cos t dt
      P1 = int N_a' N_b' (sin t)^(1-2s) cos t dt     (closed form)
      P2 = int N_a N_b (sin t)^(1-2s) / cos t dt

    The equator cell uses the Golub-Welsch Gauss-Jacobi rule in u = sin t,
    which absorbs u^(1-2s); other cells use Gauss-Legendre in t.  The pole
    cell [t_last, pi/2] extends the last ring as a constant in t, adding
    one-sided scalars to P0 and P2 at the last row only.
    """
    beta = 1.0 - 2.0 * s
    pow_exp = 2.0 - 2.0 * s
    t0, t1 = t_nodes[:-1], t_nodes[1:]
    u0, u1 = np.sin(t0), np.sin(t1)
    dt = t1 - t0

    # t-stiffness weight: exact power integral of u^(1-2s)
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    W1 = sign * ((u1 ** pow_exp - u0 ** pow_exp)
                 / (pow_exp * dt * dt))[:, None, None]

    # quadrature points t (ncell, q) and weights q0 (mass), q2 (azimuthal)
    xg, wg = gauss_legendre(_GAUSS_PTS)
    t = t0[:, None] + 0.5 * dt[:, None] * (xg + 1.0)
    w = 0.5 * dt[:, None] * wg * np.sin(t) ** beta
    q0 = w * np.cos(t)
    q2 = w / np.cos(t)
    # equator cell: Gauss-Jacobi in u = sin t (du = cos t dt)
    xj, wj = _gauss_jacobi(_GAUSS_PTS, beta)
    u = 0.5 * u1[0] * (xj + 1.0)
    t[0] = np.arcsin(u)
    q0[0] = (0.5 * u1[0]) ** (beta + 1.0) * wj
    q2[0] = q0[0] / (1.0 - u * u)
    hats = np.stack([t1[:, None] - t, t - t0[:, None]],
                    axis=1) / dt[:, None, None]
    W0 = np.einsum("caq,cbq,cq->cab", hats, hats, q0)
    W2 = np.einsum("caq,cbq,cq->cab", hats, hats, q2)

    # pole cell: mass in closed form, azimuthal weight by one-sided Gauss
    # (finite because the points stay interior)
    t_last = t_nodes[-1]
    W0[-1, 1, 1] += (1.0 - math.sin(t_last) ** pow_exp) / pow_exp
    xp, wp = gauss_legendre(_POLE_GAUSS_PTS)
    half = 0.5 * (0.5 * math.pi - t_last)
    tp = t_last + half * (xp + 1.0)
    W2[-1, 1, 1] += float(np.sum(half * wp * np.sin(tp) ** beta / np.cos(tp)))
    return element_band(W0), element_band(W1), element_band(W2)


def _azimuthal_matrices(ntheta: int, segment_mask: np.ndarray):
    """Periodic azimuthal mass, stiffness and cap-segment boundary mass
    over the ``segment_mask`` cells, as bands."""
    dtheta = 2.0 * math.pi / ntheta
    mass = dtheta / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    stiff = (1.0 / dtheta) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    cells = (ntheta, 2, 2)
    return (element_band(np.broadcast_to(mass, cells), periodic=True),
            element_band(np.broadcast_to(stiff, cells), periodic=True),
            element_band(segment_mask[:, None, None] * mass, periodic=True))


# ---------------------------------------------------------------------------
# factored forms
# ---------------------------------------------------------------------------

_CHUNK = 32768      # nodes per banded pass, so the workspaces stay in cache


class _KronForm:
    """The form m M + k K + b B, applied to (rows, nt, ntheta) blocks.

    With S[j] = X[j - 1] + X[j + 1] periodic in theta, Mth X = c_m X + n_m S
    and Kth X = c_k X + n_k S, so m M + k K is A X + N S with A and N
    tridiagonal in t: A = c_m (m P0 + k P1) + c_k k P2, N alike from n_m and
    n_k.  b B adds b Bth on the equator row.  The form is symmetric: ``X @
    form`` takes a row block, ``form @ x`` a vector or a column block.
    """

    __array_ufunc__ = None          # ndarray @ form defers to __rmatmul__

    def __init__(self, mesh: HemisphereMesh, m=0.0, k=0.0, b=0.0):
        self.mesh, self.coef = mesh, (m, k, b)
        self.work = np.empty((2, max(1, _CHUNK // mesh.n_nodes), mesh.nt,
                              mesh.ntheta))
        P = m * mesh.P0 + k * mesh.P1
        A, N = (c * P + (c_k * k) * mesh.P2
                for c, c_k in zip(mesh.Mth[:, 0], mesh.Kth[:, 0]))
        # diagonals and couplings of A and N repeated along theta, so that
        # every pass below is one contiguous loop
        self.bands = [np.repeat(F[i, :len(F[i]) - i, None],
                                mesh.ntheta, axis=1)
                      for i in (0, 1) for F in (A, N)]
        self.bth = b * mesh.Bth

    def __add__(self, other: _KronForm) -> _KronForm:
        return _KronForm(self.mesh,
                         *(a + b for a, b in zip(self.coef, other.coef)))

    def __sub__(self, other: _KronForm) -> _KronForm:
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> _KronForm:
        return _KronForm(self.mesh, *(c * a for a in self.coef))

    def __matmul__(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float).T @ self).T

    def __rmatmul__(self, X) -> np.ndarray:
        return self.images(X)[0]

    def images(self, X, *others: _KronForm) -> list[np.ndarray]:
        """X @ form for this form and ``others``: one pass, S summed once."""
        forms, X = (self, *others), np.asarray(X, dtype=float)
        Ys = [np.empty(X.shape) for _ in forms]
        Xb, *Yb = (Z.reshape((-1,) + self.work.shape[2:]) for Z in (X, *Ys))
        rows = self.work.shape[1]
        for i in range(0, len(Xb), rows):
            Xi = Xb[i:i + rows]
            S, T = self.work[:, :len(Xi)]
            np.add(Xi[..., :-2], Xi[..., 2:], out=S[..., 1:-1])
            np.add(Xi[..., -1], Xi[..., 1], out=S[..., 0])
            np.add(Xi[..., -2], Xi[..., 0], out=S[..., -1])
            for form, Y in zip(forms, Yb):
                form._apply(Xi, S, T, Y[i:i + rows])
        return Ys

    def _apply(self, X, S, T, Y) -> None:
        dA, dN, oA, oN = self.bands
        np.multiply(X, dA, out=Y)
        Y += np.multiply(S, dN, out=T)
        for Z, o in ((X, oA), (S, oN)):
            Y[:, :-1] += np.multiply(Z[:, 1:], o, out=T[:, 1:])
            Y[:, 1:] += np.multiply(Z[:, :-1], o, out=T[:, 1:])
        if self.coef[2]:
            (d, o), x = self.bth, X[:, 0]
            Y[:, 0] += (d * x + o * np.roll(x, -1, axis=-1)
                        + np.roll(o * x, 1, axis=-1))

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.mesh.n_nodes)

    def diagonal(self) -> np.ndarray:
        d = self.bands[0].flatten()
        d[:self.mesh.ntheta] += self.bth[0]
        return d


# ---------------------------------------------------------------------------
# exact shifted solver
# ---------------------------------------------------------------------------

class HemisphereSolver:
    """Exact inverse of H_i = K - rho B + sigma_i M restricted to the free
    nodes, for a batch of shifts sigma_i > 0 and a Robin coefficient rho,
    with no sparse factorization.

    On the mesh's isometric theta-mode rows (``to_modes``, float view)
    A_i = K + sigma_i M on the full node set becomes the tridiagonals
    T_ik = (P1 + sigma_i P0) m_k + P2 w_k in t, with m_k and w_k the
    symbols of the circulant Mth and Kth (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7, 1970); their LDL^T factors are computed once, repeated
    for the re and im parts.  On the equator row A_i^-1 is the circulant G_i
    of symbol g_ik = [T_ik^-1]_00, so the Schur complement of A_i onto the
    equator is the circulant G_i^-1 of symbol 1 / g_ik.  The Dirichlet
    nodes D and the -rho B term both live on that row, and the Schur
    complement of H_i onto the free equator nodes F is the symmetric
    S_i = (G_i^-1)_FF - rho Bth_FF (Proskurowski & Widlund, Math. Comp. 30,
    1976), kept as ``schur`` and inverted once per shift; a singular S_i
    raises LinAlgError.  With y = A_i^-1 b and E the mesh's free equator
    mode rows, the one equator step is u_F = E^T (g_i^-1 y_0),
    x_F = S_i^-1 u_F, x_eq = E x_F, and the solution is y + A_i^-1 e_0 w
    with w = G_i^-1 (x_eq - y_0); b may be nonzero on D, which w absorbs.
    ``solve_modes`` runs this on mode rows; ``solve`` wraps it for node
    rows, and ``solve_trace`` returns x_F alone.
    """

    def __init__(self, mesh: HemisphereMesh, shifts, rho: float = 0.0):
        shifts = np.asarray(shifts, dtype=float)[:, None, None]
        self.mesh, self.shape = mesh, (len(shifts), mesh.nt, mesh.ntheta)
        m_k, w_k = mesh.symbols

        def band(offset):   # (n_shifts, nt - offset, n_modes)
            p0, p1, p2 = (P[offset, :mesh.nt - offset, None]
                          for P in (mesh.P0, mesh.P1, mesh.P2))
            return (p1 + shifts * p0) * m_k + p2 * w_k

        d, off = band(0), band(1)              # LDL^T, in place
        for j in range(1, mesh.nt):
            d[:, j] -= off[:, j - 1] ** 2 / d[:, j - 1]
        l, self.d = (np.repeat(F, 2, axis=-1) for F in (off / d[:, :-1], d))
        self.l = list(np.moveaxis(l, 1, 0))     # one row per t step

        self.col0 = np.zeros_like(self.d)
        self.col0[:, 0] = 1.0
        self._tridiag_solve(self.col0)
        n = mesh.ntheta
        self.ginv = 1.0 / self.col0[:, 0]       # G_i^-1's symbol, float view
        # G_i^-1 by the distance of two nodes, so that S_i is symmetric
        ginv = np.fft.irfft(self.ginv[:, ::2], n, axis=-1)
        self.robin, F = mesh.robin_mask, mesh.robin_ids
        dist = np.abs(F[:, None] - F)
        self.schur = (ginv[:, np.minimum(dist, n - dist)]
                      - rho * mesh.Bth_dense[np.ix_(F, F)])
        self.schur_inv = np.linalg.inv(self.schur)
        self._work, self.E = np.empty_like(self.col0), mesh.E

    def _tridiag_solve(self, Y: np.ndarray) -> None:
        """Solve T_ik x = y in place for every (i, k) at once on the float
        mode rows Y (n_shifts, nt, 2 n_modes), one t row per step."""
        rows, t = list(np.moveaxis(Y, 1, 0)), np.empty_like(Y[:, 0])
        for l, x, y in zip(self.l, rows, rows[1:]):
            y -= np.multiply(l, x, out=t)
        Y /= self.d
        for l, x, y in zip(self.l[::-1], rows[:0:-1], rows[-2::-1]):
            y -= np.multiply(l, x, out=t)

    def _equator(self, y0: np.ndarray) -> np.ndarray:
        """x_F = S_i^-1 E^T (g_i^-1 y_0) from the equator mode rows y_0."""
        u = (self.ginv * y0) @ self.E
        return (self.schur_inv @ u[:, :, None])[:, :, 0]

    def solve_modes(self, Y: np.ndarray) -> np.ndarray:
        """Apply the inverse for shift i in place to Y[i] (nt, 2 n_modes),
        float mode rows; the result vanishes on D."""
        self._tridiag_solve(Y)
        x_eq = self._equator(Y[:, 0]) @ self.E.T
        w = self.ginv * (x_eq - Y[:, 0])
        Y += np.multiply(self.col0, w[:, None], out=self._work)
        Y[:, 0] = x_eq
        return Y

    def solve(self, X: np.ndarray) -> np.ndarray:
        """Apply the inverse for shift i to row i of X; rows are node
        vectors, and the result's vanish on D, a new array."""
        Y = self.mesh.to_modes(np.reshape(X, self.shape))
        self.solve_modes(Y.view(float))
        Y *= 1.0 / self.mesh.mode_scale         # ``from_modes`` in place
        U = np.fft.irfft(Y, self.shape[-1], axis=-1)
        U[:, 0, ~self.robin] = 0.0
        return U.reshape(len(U), -1)

    def solve_trace(self, X: np.ndarray) -> np.ndarray:
        """x_F of ``solve(X)``, no t-sweep: y_0 = col0^T Y as T_ik = T_ik^T."""
        Y = self.mesh.to_modes(np.reshape(X, self.shape)).view(float)
        return self._equator(np.einsum("itk,itk->ik", self.col0, Y))

    def equator_inverse(self, nodes: np.ndarray) -> np.ndarray:
        """The block of the free-node inverse on free equator ``nodes``, the
        same block of S_i^-1; one square block per shift."""
        pos = np.searchsorted(np.flatnonzero(self.robin), nodes)
        return self.schur_inv[:, pos[:, None], pos]
