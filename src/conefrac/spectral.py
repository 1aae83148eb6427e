"""Eigenpairs of the weighted spherical problem with mixed boundary
conditions.

The generalized pencil is (K - lam kappa B, M) on the free nodes.  Its
smallest eigenpairs come from shift-invert Lanczos in the M inner product,
with the shift sigma parked just below the guaranteed spectrum bottom
-((N-2s)/2)^2, (K - lam kappa B - sigma M)^-1 applied by
``sphercap.HemisphereSolver`` (tridiagonal sweeps on the float view of its
Fourier modes) and M through the mesh's factored forms, both on node arrays
that vanish on the Dirichlet nodes.  The dense pencil of the forms' free
block is solved only when k >= n - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InadmissibleLambdaError, NumericalError
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
    ``eigen_path`` is "lanczos" or "dense", ``shift`` the final shift (None
    when dense) and ``shift_retries`` the number of times it was lowered.
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
    shift_retries: int = 0

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


def solve_eigs(mesh: HemisphereMesh, params: ProblemParams, k: int,
               allow_inadmissible: bool = False) -> EigenSystem:
    """k smallest eigenpairs of (K - lam kappa B, M) on the mesh's retained
    dofs.

    When lam > 0 the cap's Hardy constant is computed on the same mesh;
    this is the one admissibility check of a run.  lam >= Lambda raises
    InadmissibleLambdaError unless ``allow_inadmissible`` is set, in which
    case a warning is emitted (the spectrum may dip below the floor).
    """
    mesh.check_params(params)
    lam = params.lam
    lam_star = None
    if lam > 0.0:
        from .hardy import hardy_constant
        lam_star = hardy_constant(mesh, params).lambda_star
        if lam >= lam_star:
            if not allow_inadmissible:
                raise InadmissibleLambdaError(
                    f"lambda = {lam} is not admissible: the cap's Hardy "
                    f"constant on this {mesh.nt}x{mesh.ntheta} mesh is "
                    f"{lam_star:.6g}")
            warnings.warn(
                f"lam = {lam} >= Lambda = {lam_star:.6g}: eigenvalues may "
                "fall below the spectrum floor", RuntimeWarning)

    n = mesh.n_free
    if k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= {n}, got {k}")

    mass = _free_mass(mesh)
    shift, retries = None, 0
    if k >= n - 1:      # the whole spectrum, or all but one mode
        path = "dense"
        free = np.ix_(mesh.free_nodes, mesh.free_nodes)
        A = mesh.K - (lam * params.kappa) * mesh.B
        w, Vf = eigh_pencil(A.toarray()[free], mesh.M.toarray()[free])
        w, V = w[:k], np.zeros((k, mesh.n_nodes))
        V[:, mesh.free_nodes] = Vf[:, :k].T
    else:
        path = "lanczos"
        w, V, shift, retries = _sparse_smallest(mesh, mass, k, params)

    order = np.argsort(w, kind="stable")
    w = w[order]
    V = _fix_signs(V[order], mass(mesh.dof_of_node >= 0))   # M 1

    floor = params.spectrum_floor
    gamma = np.array([math.nan if mu < floor - 1e-6 * (1.0 + abs(mu))
                      else gamma_from_mu(max(mu, floor), params) for mu in w])
    # a new group wherever consecutive eigenvalues differ by more than rtol
    group = np.cumsum(np.abs(np.diff(w, prepend=w[0]))
                      > MULTIPLICITY_RTOL * (1.0 + np.abs(w)))

    return EigenSystem(mu=w, vectors=V, gamma=gamma, group=group,
                       params=params, mesh=mesh, hardy_lambda=lam_star,
                       eigen_path=path, shift=shift, shift_retries=retries)


def _free_mass(mesh: HemisphereMesh):
    """M on the free nodes as a function of one node vector that vanishes
    on the Dirichlet nodes: apply M, then zero the Dirichlet rows."""
    M, dirichlet = mesh.M, mesh.dirichlet_ids

    def mass(x: np.ndarray) -> np.ndarray:
        y = M @ x
        y[dirichlet] = 0.0
        return y

    return mass


def _sparse_smallest(mesh, mass, k, params):
    """Shift-invert Lanczos with the shift sigma just below the spectrum
    floor, lowered while eigenvalues lie beneath it or the Schur complement
    on the free equator nodes is singular (sigma is an eigenvalue).
    Returns the eigenvalues, the eigenvectors as rows, the final shift and
    the number of times it was lowered."""
    n = mesh.n_free
    c2 = -params.spectrum_floor
    sigma = -1.01 * c2 - 0.05 * (1.0 + c2)
    for retries in range(41):
        try:
            solver = HemisphereSolver(mesh, [-sigma],
                                      params.lam * params.kappa)
            # off the equator row the operator is K - sigma M, positive
            # definite; by Sylvester's law of inertia it has as many
            # negative eigenvalues as its Schur complement there
            if np.all(np.linalg.eigvalsh(solver.schur[0]) > 0.0):
                break
        except np.linalg.LinAlgError:
            pass
        sigma = 2.0 * sigma - 1.0
    else:
        raise NumericalError("eigensolver shift selection failed: "
                             f"eigenvalues remain below {sigma:.6g}")
    v0 = np.zeros(mesh.n_nodes)
    v0[mesh.free_nodes] = 1.0 + 0.01 * np.sin(np.arange(n))
    theta, V = _lanczos(lambda y: solver.solve(y[None])[0], mass, v0, k, n)
    return sigma + 1.0 / theta, V, sigma, retries


def _lanczos(opinv, mass, v0: np.ndarray, k: int, n: int):
    """The k largest eigenpairs (theta_i, x_i) of OP = opinv(mass(.)),
    self-adjoint and positive definite in the M inner product.

    Lanczos in that inner product, each three-term step followed by one
    full reorthogonalization, with no restart: the basis Q and its image
    M Q grow until the k largest Ritz pairs of the recurrence's tridiagonal
    T_m all meet |beta_m s_mi| <= eps theta_i (ARPACK's test at tol = 0),
    checked every max(``LANCZOS_CHECK``, m / 16) steps so that the checks'
    dense eigh of T_m costs O(m^3) in all, or until they span the space, of
    dimension n (v0 may be longer, say with zeros on Dirichlet nodes).  A
    breakdown (beta_m at rounding level) before that raises NumericalError.
    Returns theta ascending and the Ritz vectors as M-orthonormal rows.
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
                return theta, S.T @ Q[:m]
        if breakdown:
            raise NumericalError(f"Lanczos broke down after {m} steps, "
                                 f"before {k} eigenpairs converged")
        if m == len(Q):                     # grow the basis
            Q, P = (np.concatenate([X, np.empty_like(X[:min(n, 2 * m) - m])])
                    for X in (Q, P))
        Q[m], P[m] = r / beta[j], p / beta[j]

