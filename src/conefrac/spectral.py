"""Eigenpairs of the weighted spherical problem with mixed boundary
conditions.

The generalized pencil is (K - lam kappa B, M) on the free nodes.  Its
smallest eigenpairs come from shift-invert Lanczos in the M inner product
(Parlett, The Symmetric Eigenvalue Problem, 1980) with the shift sigma just
below the spectrum floor -((N-2s)/2)^2, on the mesh's theta modes, where
(K - lam kappa B - sigma M)^-1 and M = m_k P0 read node values on the
equator row alone; the dense pencil is solved only when k >= n - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleLambdaError, ModeCountError, NumericalError
from .params import ProblemParams, gamma_from_mu
from .sphercap import HemisphereMesh, HemisphereSolver, eigh_pencil

__all__ = ["EigenSystem", "solve_eigs"]

MULTIPLICITY_RTOL = 1e-6
LANCZOS_CHECK = 4      # Lanczos steps between convergence checks


# ---------------------------------------------------------------------------
# eigen system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenpairs (mu_j, psi_j) of the weighted spherical pencil.

    Eigenvectors are stored on the full node set (zeros on Dirichlet nodes),
    M-orthonormal, with a deterministic sign.  ``group`` assigns a
    multiplicity-group id to every mode (eigenvalues within
    1e-6 (1 + |mu|) of each other share a group).  ``hardy_lambda`` is the
    cap's Hardy constant that lam was checked against, None when lam <= 0.
    ``eigen_path`` is "lanczos" or "dense", ``shift`` the Lanczos shift and
    ``lanczos_steps`` its step count (both None when dense).
    """

    mu: np.ndarray
    vectors: np.ndarray          # (k, n_nodes)
    gamma: np.ndarray
    group: np.ndarray
    params: ProblemParams
    mesh: HemisphereMesh
    hardy_lambda: float | None = None
    eigen_path: str = "lanczos"
    shift: float | None = None
    lanczos_steps: int | None = None

    @property
    def k(self) -> int:
        return len(self.mu)

    @property
    def lam(self) -> float:
        return self.params.lam

    def group_members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.group == self.group[j])


def _fix_signs(V: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Deterministic sign: weighted integral V @ weight positive (weight =
    M 1), falling back when it nearly vanishes to the lowest node within
    1e-8 of the largest magnitude, so that rounding breaks no mirror tie."""
    w = V @ weight
    near = np.abs(V) >= (1.0 - 1e-8) * np.abs(V).max(axis=1, keepdims=True)
    lead = V[np.arange(len(V)), np.argmax(near, axis=1)]
    return np.where((np.where(np.abs(w) > 1e-8, w, lead) < 0.0)[:, None],
                    -V, V)


def solve_eigs(mesh: HemisphereMesh, params: ProblemParams,
               k: int) -> EigenSystem:
    """k smallest eigenpairs of (K - lam kappa B, M) on the mesh's retained
    dofs.

    When lam > 0 the cap's Hardy constant Lambda_h is computed on the same
    mesh; this is the one admissibility check of a run, and lam >= Lambda_h
    always raises InadmissibleLambdaError.  Below it the spectrum lies
    above the floor -((N-2s)/2)^2.
    """
    mesh.check_params(params)
    n = mesh.n_free
    if k < 1 or k > n:
        raise ModeCountError(f"need 1 <= k <= {n} on this mesh, got k = {k}")
    lam = params.lam
    lam_star = None
    if lam > 0.0:
        from .hardy import hardy_constant
        lam_star = hardy_constant(mesh, params).lambda_star
        if lam >= lam_star:
            raise InadmissibleLambdaError(
                f"lambda = {lam} is not admissible: the cap's Hardy "
                f"constant on this {mesh.nt}x{mesh.ntheta} mesh is "
                f"{lam_star:.6g}")

    shift = steps = None
    if k >= n - 1:      # the whole spectrum, or all but one mode
        path = "dense"
        free = np.ix_(mesh.free_nodes, mesh.free_nodes)
        A = mesh.K - (lam * params.kappa) * mesh.B
        w, Vf = eigh_pencil(A.toarray()[free], mesh.M.toarray()[free])
        w, V = w[:k], np.zeros((k, mesh.n_nodes))
        V[:, mesh.free_nodes] = Vf[:, :k].T
    else:
        path = "lanczos"
        w, V, shift, steps = _sparse_smallest(mesh, k, params)

    order = np.argsort(w, kind="stable")
    w = w[order]
    V = _fix_signs(V[order], mesh.M @ (mesh.dof_of_node >= 0))

    # near lam = Lambda_h, mu_1 may round to just below the floor
    floor = params.spectrum_floor
    gamma = np.array([gamma_from_mu(max(mu, floor), params) for mu in w])
    # a new group wherever consecutive eigenvalues differ by more than rtol
    group = np.cumsum(np.abs(np.diff(w, prepend=w[0]))
                      > MULTIPLICITY_RTOL * (1.0 + np.abs(w)))

    return EigenSystem(mu=w, vectors=V, gamma=gamma, group=group,
                       params=params, mesh=mesh, hardy_lambda=lam_star,
                       eigen_path=path, shift=shift, lanczos_steps=steps)


def _free_mass(mesh: HemisphereMesh):
    """M on the free nodes for the float view of mode rows: m_k P0 per mode
    between two ``project_free``, the first on the Lanczos vector in place."""
    d, o = mesh.P0[:, :, None] * np.repeat(mesh.symbol(mesh.Mth), 2)

    def mass(z: np.ndarray) -> np.ndarray:
        Z = z.reshape(mesh.nt, -1)
        mesh.project_free(Z.view(complex))
        Y = d * Z
        Y[:-1] += o[:-1] * Z[1:]
        Y[1:] += o[:-1] * Z[:-1]
        mesh.project_free(Y.view(complex))
        return Y.reshape(-1)

    return mass


def _sparse_smallest(mesh, k, params):
    """Shift-invert Lanczos at sigma = -1.01 c^2 - 0.05 (1 + c^2) < -c^2,
    c^2 = ((N-2s)/2)^2; returns the eigenvalues, the eigenvectors as node
    rows, sigma and the number of Lanczos steps.  The shift needs no check:
    for lam <= 0, K - lam kappa B >= 0, and for 0 < lam < Lambda_h (same
    mesh and free nodes, as ``solve_eigs`` enforces) the discrete Hardy
    inequality kappa B <= (K + c^2 M) / Lambda_h gives K - lam kappa B >=
    (1 - lam/Lambda_h) K - (lam/Lambda_h) c^2 M >= -c^2 M.  So K - lam
    kappa B - sigma M and its Schur complement on the free equator nodes,
    which ``HemisphereSolver`` inverts, are positive definite."""
    n = mesh.n_free
    c2 = -params.spectrum_floor
    sigma = -1.01 * c2 - 0.05 * (1.0 + c2)
    solver = HemisphereSolver(mesh, [-sigma], params.lam * params.kappa)
    v0 = np.zeros((mesh.nt, mesh.ntheta))
    v0.flat[mesh.free_nodes] = 1.0 + 0.01 * np.sin(np.arange(n))
    scale = np.repeat(mesh.mode_scale, 2)   # solve_rfft takes plain rfft

    def opinv(y: np.ndarray) -> np.ndarray:
        Y = (y.reshape(mesh.nt, -1) / scale).view(complex)[None]
        Y = solver.solve_rfft(Y).view(float)
        return np.multiply(Y, scale, out=Y).ravel()

    theta, V, steps = _lanczos(opinv, _free_mass(mesh),
                               mesh.to_modes(v0).view(float).ravel(), k, n)
    V = mesh.from_modes(V.reshape(k, mesh.nt, -1).view(complex))
    V[:, 0, ~mesh.robin_mask] = 0.0
    return sigma + 1.0 / theta, V.reshape(k, -1), sigma, steps


def _lanczos(opinv, mass, v0: np.ndarray, k: int, n: int):
    """The k largest eigenpairs (theta_i, x_i) of OP = opinv(mass(.)),
    self-adjoint and positive definite in the M inner product.

    Lanczos in that inner product, each three-term step followed by one
    full reorthogonalization, with no restart: the basis Q and its image
    M Q grow until the k largest Ritz pairs of the recurrence's tridiagonal
    T_m all meet |beta_m s_mi| <= eps theta_i (ARPACK's test at tol = 0),
    checked every max(``LANCZOS_CHECK``, m / 16) steps so that the checks'
    dense eigh of T_m costs O(m^3) in all, or until they span the space, of
    dimension n (v0 may be longer; mode rows also span Dirichlet nodes).  A
    breakdown (beta_m at rounding level) before that raises NumericalError.
    Returns theta ascending, the Ritz vectors as M-orthonormal rows, and m.
    """
    eps = np.finfo(float).eps
    Q = np.empty((min(n, 6 * k + 20), len(v0)))
    P = np.empty_like(Q)                    # P = M Q
    alpha, beta = np.zeros(n), np.zeros(n)
    p = mass(v0)
    Q[0], P[0] = np.array([v0, p]) / math.sqrt(v0 @ p)
    check = k                               # the step of the next check
    for m in range(1, n + 1):
        j = m - 1
        r = opinv(P[j])
        alpha[j] = r @ P[j]
        r -= alpha[j] * Q[j]
        if j:
            r -= beta[j - 1] * Q[j - 1]
        h = P[:m] @ r                       # full reorthogonalization
        r -= h @ Q[:m]
        alpha[j] += h[j]
        p = mass(r)
        beta[j] = math.sqrt(max(r @ p, 0.0))
        breakdown = beta[j] <= eps * np.abs(alpha[:m]).max()
        if m == n or (m >= k and (breakdown or m >= check)):
            check = m + max(LANCZOS_CHECK, m // 16)
            # eigh reads the lower triangle of T_m
            theta, S = np.linalg.eigh(np.diag(alpha[:m])
                                      + np.diag(beta[:j], -1))
            theta, S = theta[-k:], S[:, -k:]
            if m == n or np.all(np.abs(beta[j] * S[-1]) <= eps * theta):
                return theta, S.T @ Q[:m], m
        if breakdown:
            raise NumericalError(f"Lanczos broke down after {m} steps, "
                                 f"before {k} eigenpairs converged")
        if m == len(Q):                     # grow the basis
            Q, P = (np.concatenate([X, np.empty_like(X[:min(n, 2 * m) - m])])
                    for X in (Q, P))
        Q[m], P[m] = r / beta[j], p / beta[j]

