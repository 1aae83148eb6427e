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

import numpy as np

from .cones import SphericalCap
from .errors import DomainError, GeometryError, NumericalError
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
    row e0.

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

    @property
    def K(self) -> _KronForm:
        return _KronForm(self, k=1.0)

    @property
    def M(self) -> _KronForm:
        return _KronForm(self, m=1.0)

    @property
    def B(self) -> _KronForm:
        return _KronForm(self, b=1.0)

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


def build_mesh(n_t: int, n_theta: int, s: float, cap: SphericalCap,
               grading: float = 2.0) -> HemisphereMesh:
    """Graded tensor mesh and its forms; refinement accumulates at the
    equator t = 0.

    Polar rows sit at t_i = (pi/2) (i / n_t)^grading for i = 0 .. n_t - 1,
    so no node lands on the pole.  Equator nodes and segment midpoints are
    classified against the cap with the half-open convention [a, b).
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
    xg, wg = np.polynomial.legendre.leggauss(_GAUSS_PTS)
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
    xp, wp = np.polynomial.legendre.leggauss(_POLE_GAUSS_PTS)
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
        self.mesh, self.coef, self.work = mesh, (m, k, b), None
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
        mesh = self.mesh
        X = np.asarray(X, dtype=float)
        Y = np.empty(X.shape)
        Xb, Yb = (Z.reshape(-1, mesh.nt, mesh.ntheta) for Z in (X, Y))
        rows = max(1, _CHUNK // mesh.n_nodes)
        if self.work is None:
            self.work = np.empty((2, rows, mesh.nt, mesh.ntheta))
        for i in range(0, len(Xb), rows):
            self._apply(Xb[i:i + rows], Yb[i:i + rows])
        return Y

    def _apply(self, X: np.ndarray, Y: np.ndarray) -> None:
        S, T = self.work[:, :len(X)]
        np.add(X[..., :-2], X[..., 2:], out=S[..., 1:-1])
        np.add(X[..., -1], X[..., 1], out=S[..., 0])
        np.add(X[..., -2], X[..., 0], out=S[..., -1])
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

    A real FFT in theta turns A_i = K + sigma_i M on the full node set into
    the tridiagonals T_ik = (P1 + sigma_i P0) m_k + P2 w_k in t, with m_k
    and w_k the symbols of the circulant Mth and Kth; their LDL^T factors
    are computed once, repeated for the re and im parts so that the sweeps
    run on the float view of the modes.  On the equator row A_i^-1 is the
    circulant G_i of symbol g_ik = [T_ik^-1]_00, so the Schur complement of
    A_i onto the equator is the circulant G_i^-1 of symbol 1 / g_ik.  The
    Dirichlet nodes D and the -rho B term both live on that row, and the
    Schur complement of H_i onto the free equator nodes F is the symmetric
    S_i = (G_i^-1)_FF - rho Bth_FF (Proskurowski & Widlund, Math. Comp. 30,
    1976), kept as ``schur`` and inverted once per shift; a singular S_i
    raises LinAlgError.  With y = A_i^-1 b and u = G_i^-1 y_E, the solution
    has x_F = S_i^-1 u_F and x_D = 0 on the equator, and is y + A_i^-1 E w
    with E the equator injection and w = G_i^-1 (x_E - y_E).  Vectors are
    node rows that vanish on D.
    """

    def __init__(self, mesh: HemisphereMesh, shifts, rho: float = 0.0):
        shifts = np.asarray(shifts, dtype=float)[:, None, None]
        self.shape = (len(shifts), mesh.nt, mesh.ntheta)
        m_k, w_k = (np.fft.rfft(band_to_dense(C)[:, 0]).real
                    for C in (mesh.Mth, mesh.Kth))

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
        self.ginv = 1.0 / self.col0[:, 0, ::2]  # symbol of G_i^-1
        # G_i^-1 by the distance of two nodes, so that S_i is symmetric
        ginv = np.fft.irfft(self.ginv, n, axis=-1)
        self.robin, F = mesh.robin_mask, mesh.robin_ids
        dist = np.abs(F[:, None] - F)
        self.schur = (ginv[:, np.minimum(dist, n - dist)]
                      - rho * band_to_dense(mesh.Bth)[np.ix_(F, F)])
        self.schur_inv = np.linalg.inv(self.schur)
        self._work = np.empty_like(self.col0)

    def _tridiag_solve(self, Y: np.ndarray) -> None:
        """Solve T_ik x = y in place for every (i, k) at once on the float
        view Y (n_shifts, nt, 2 n_modes), one t row per step."""
        rows, t = list(np.moveaxis(Y, 1, 0)), np.empty_like(Y[:, 0])
        for l, x, y in zip(self.l, rows, rows[1:]):
            y -= np.multiply(l, x, out=t)
        Y /= self.d
        for l, x, y in zip(self.l[::-1], rows[:0:-1], rows[-2::-1]):
            y -= np.multiply(l, x, out=t)

    def solve(self, X: np.ndarray) -> np.ndarray:
        """Apply the inverse for shift i to row i of X; rows are node
        vectors that vanish on D, as do those of the result, a new array."""
        m, nt, ntheta = self.shape
        Y = np.fft.rfft(np.reshape(X, self.shape), axis=-1)
        Yr = Y.view(float)              # re and im parts side by side
        self._tridiag_solve(Yr)
        u = np.fft.irfft(self.ginv * Y[:, 0], ntheta, axis=-1)
        x_eq = np.zeros((m, ntheta))
        x_eq[:, self.robin] = (self.schur_inv
                               @ u[:, self.robin, None])[:, :, 0]
        w = self.ginv * (np.fft.rfft(x_eq, axis=-1) - Y[:, 0])
        Yr += np.multiply(self.col0, w.view(float)[:, None], out=self._work)
        U = np.fft.irfft(Y, ntheta, axis=-1)
        U[:, 0, ~self.robin] = 0.0
        return U.reshape(m, -1)

    def equator_inverse(self, nodes: np.ndarray) -> np.ndarray:
        """The block of the free-node inverse on free equator ``nodes``, the
        same block of S_i^-1; one square block per shift."""
        pos = np.searchsorted(np.flatnonzero(self.robin), nodes)
        return self.schur_inv[:, pos[:, None], pos]
