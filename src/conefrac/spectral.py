"""Eigenpairs of the weighted spherical problem with mixed boundary
conditions.

The generalized pencil is (K - lam kappa B, M) on the free nodes.  Its
smallest eigenpairs come from shift-invert Lanczos (Parlett, The Symmetric
Eigenvalue Problem, 1980; partial reorthogonalization after Simon, Math.
Comp. 42, 1984) with the shift sigma just below the spectrum floor
-((N-2s)/2)^2, in mass-factor coordinates z = C^T x on the mesh's theta
modes, M = C C^T with C = U0 (x) diag(sqrt m_k) bidiagonal in t, so that
the recurrence uses plain dot products and (K - lam kappa B - sigma M)^-1
couples the modes on the equator row alone; the dense pencil is solved only
when k >= n - 1.
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
    M-orthonormal, with a deterministic sign; ``mass_vectors`` are their
    images M psi_j from the solve.  ``group`` assigns a multiplicity-group
    id to every mode (eigenvalues within 1e-6 (1 + |mu|) of each other share
    a group).  ``hardy_lambda`` is the cap's Hardy constant that lam was
    checked against, None when lam <= 0.  ``eigen_path`` is "lanczos" or
    "dense", ``shift`` the Lanczos shift, ``lanczos_steps`` its step count,
    ``lanczos_reorths`` the number of steps that swept the whole basis and
    ``lanczos_residual`` the largest |beta_m s_mi| / theta_i of the
    returned pairs (all None when dense).
    """

    mu: np.ndarray
    vectors: np.ndarray          # (k, n_nodes)
    mass_vectors: np.ndarray     # (k, n_nodes), rows psi_j^T M
    gamma: np.ndarray
    group: np.ndarray
    params: ProblemParams
    mesh: HemisphereMesh
    hardy_lambda: float | None = None
    eigen_path: str = "lanczos"
    shift: float | None = None
    lanczos_steps: int | None = None
    lanczos_residual: float | None = None
    lanczos_reorths: int | None = None

    @property
    def k(self) -> int:
        return len(self.mu)

    @property
    def lam(self) -> float:
        return self.params.lam

    def group_members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.group == self.group[j])


def _signs(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sign column of V's rows, that of the integrals w or, where |w| <= 1e-8,
    of the lowest node within 1e-8 of the top |V| (no rounding-made tie)."""
    near = np.abs(V) >= (1.0 - 1e-8) * np.abs(V).max(axis=1, keepdims=True)
    lead = V[np.arange(len(V)), np.argmax(near, axis=1)]
    return 1.0 - 2.0 * (np.where(np.abs(w) > 1e-8, w, lead) < 0.0)[:, None]


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

    shift = steps = residual = reorths = None
    if k >= n - 1:      # the whole spectrum, or all but one mode
        path = "dense"
        free = np.ix_(mesh.free_nodes, mesh.free_nodes)
        A = mesh.K - (lam * params.kappa) * mesh.B
        w, Vf = eigh_pencil(A.toarray()[free], mesh.M.toarray()[free])
        w, V = w[:k], np.zeros((k, mesh.n_nodes))
        V[:, mesh.free_nodes] = Vf[:, :k].T
        MV = V @ mesh.M
    else:
        path = "lanczos"
        w, V, MV, shift, steps, residual, reorths = _sparse_smallest(
            mesh, k, params)

    order = np.argsort(w, kind="stable")
    w, V, MV = w[order], V[order], MV[order]
    sign = _signs(V, MV @ (mesh.dof_of_node >= 0))    # V M 1, free nodes
    V, MV = sign * V, sign * MV

    # near lam = Lambda_h, mu_1 may round to just below the floor
    floor = params.spectrum_floor
    gamma = np.array([gamma_from_mu(max(mu, floor), params) for mu in w])
    # a new group wherever consecutive eigenvalues differ by more than rtol
    group = np.cumsum(np.abs(np.diff(w, prepend=w[0]))
                      > MULTIPLICITY_RTOL * (1.0 + np.abs(w)))

    return EigenSystem(mu=w, vectors=V, mass_vectors=MV, gamma=gamma,
                       group=group, params=params, mesh=mesh,
                       hardy_lambda=lam_star, eigen_path=path, shift=shift,
                       lanczos_steps=steps, lanczos_residual=residual,
                       lanczos_reorths=reorths)


def _sparse_smallest(mesh, k, params):
    """Shift-invert Lanczos at sigma = -1.01 c^2 - 0.05 (1 + c^2) < -c^2,
    c^2 = ((N-2s)/2)^2; returns the eigenvalues, the eigenvectors as node
    rows, sigma, the Lanczos steps and sweeps and the largest residual.  The
    shift needs no check: for lam <= 0, K - lam kappa B >= 0, and for
    0 < lam < Lambda_h (same mesh and free nodes, as ``solve_eigs``
    enforces) the discrete Hardy inequality kappa B <= (K + c^2 M) /
    Lambda_h gives K - lam kappa B >= (1 - lam/Lambda_h) K - (lam/Lambda_h)
    c^2 M >= -c^2 M.  So K - lam kappa B - sigma M and its Schur complement
    on the free equator nodes, which ``HemisphereSolver`` inverts, are
    positive definite.  Also returns the mass images M x = C z.

    Lanczos runs on z = C^T x with M = C C^T (``mesh.C``), where the
    operator C^T (K - lam kappa B - sigma M)_FF^-1 C is symmetric in the
    plain dot product (Ericsson & Ruhe, Math. Comp. 35, 1980).  Its null
    space, C^-1 of the Dirichlet nodes, lies on the equator row of z, and
    ``opinv`` removes it from its argument with the projection P.  The
    eigenvectors come back once, x = C^-T z."""
    n = mesh.n_free
    c2 = -params.spectrum_floor
    sigma = -1.01 * c2 - 0.05 * (1.0 + c2)
    solver = HemisphereSolver(mesh, [-sigma], params.lam * params.kappa)
    d, o = mesh.C
    null = mesh.to_modes(np.eye(mesh.ntheta)[~mesh.robin_mask]).view(float)
    null = null.T / d[0, :, None]
    P = null @ np.linalg.solve(null.T @ null, null.T)
    x0 = np.zeros((mesh.nt, mesh.ntheta))
    x0.flat[mesh.free_nodes] = 1.0 + 0.01 * np.sin(np.arange(n))
    X, T = np.empty((2, 1) + d.shape)           # workspaces

    def c_t(Y: np.ndarray) -> np.ndarray:       # C^T Y
        R = d * Y
        R[1:] += np.multiply(o[:-1], Y[:-1], out=T[0, 1:])
        return R.ravel()

    def opinv(z: np.ndarray) -> np.ndarray:     # C^T H^-1 C (I - P) z
        Z = z.reshape(d.shape)
        Z[0] -= P @ Z[0]
        np.multiply(d, Z, out=X[0])
        X[0, :-1] += np.multiply(o[:-1], Z[1:], out=T[0, 1:])
        return c_t(solver.solve_modes(X)[0])

    theta, Z, steps, residual, sweeps = _lanczos(
        opinv, c_t(mesh.to_modes(x0).view(float)), k, n)
    Z = Z.reshape((k,) + d.shape)
    MZ = d * Z                                  # M x = C z
    Z[:, 0] /= d[0]                             # x = C^-T z, top down
    for i in range(1, mesh.nt):
        MZ[:, i - 1] += o[i - 1] * Z[:, i]      # before row i is replaced
        Z[:, i] -= o[i - 1] * Z[:, i - 1]
        Z[:, i] /= d[i]
    inv = 1.0 / mesh.mode_scale                 # ``from_modes`` in place
    V, MV = (np.fft.irfft(np.multiply(Y, inv, out=Y), mesh.ntheta, axis=-1)
             .reshape(k, -1) for Y in (Z.view(complex), MZ.view(complex)))
    V[:, mesh.dirichlet_ids] = 0.0
    return sigma + 1.0 / theta, V, MV, sigma, steps, residual, sweeps


def _lanczos(opinv, v0: np.ndarray, k: int, n: int):
    """The k largest eigenpairs (theta_i, z_i) of the symmetric positive
    semi-definite OP = opinv(.), whose range has dimension n.

    Lanczos with no restart and partial reorthogonalization (Simon, Math.
    Comp. 42, 1984): each three-term step is orthogonalized against q_j,
    and Simon's recurrence carries w_i ~ q_{j+1}^T q_i from alpha, beta and
    ||OP|| <= max_i |alpha_i| + beta_i + beta_{i-1}; where max |w| >
    sqrt(eps), that vector and the next are swept against the whole basis
    Q and w is reset to eps.  Q grows until the k largest Ritz pairs of the
    tridiagonal T_m all meet |beta_m s_mi| <= eps theta_i (ARPACK's test at
    tol = 0), checked every max(``LANCZOS_CHECK``, m / 16) steps so that
    the checks' dense eigh of T_m costs O(m^3) in all, or until they span
    the range, of dimension n (v0 may be longer; mode rows also span
    Dirichlet nodes).  opinv may project its argument, a basis vector, onto
    the range in place, which keeps the recurrence's rounding from growing
    in the null space.  A breakdown (beta_m at rounding level) before that
    raises NumericalError.  Returns theta ascending, the Ritz vectors as
    orthonormal rows, m, max_i |beta_m s_mi| / theta_i and the sweep count.
    """
    eps = np.finfo(float).eps
    Q = np.empty((min(n, 6 * k + 20), len(v0)))
    alpha, beta, w, w_prev = np.zeros((4, n + 1))
    Q[0] = v0 / math.sqrt(v0 @ v0)
    w[0] = 1.0
    check, norm, sweeps, again = k, 0.0, 0, False
    for m in range(1, n + 1):
        j = m - 1
        r = opinv(Q[j])
        alpha[j] = r @ Q[j]
        r -= alpha[j] * Q[j]
        if j:
            r -= beta[j - 1] * Q[j - 1]
        h = Q[j] @ r                        # local reorthogonalization
        r -= h * Q[j]
        alpha[j] += h
        beta[j] = math.sqrt(r @ r)
        norm = max(norm, abs(alpha[j]) + beta[j] + beta[j - 1])
        # w_i <- (beta_i w_{i+1} + (alpha_i - alpha_j) w_i + beta_{i-1}
        #         w_{i-1} - beta_{j-1} w'_i +- eps ||OP||) / beta_j
        x = ((alpha[:j] - alpha[j]) * w[:j] + beta[:j] * w[1:m]
             - beta[j - 1] * w_prev[:j])
        x[1:] += (beta[:j] * w[:j])[:-1]
        w_prev[:m], w[:j] = w[:m], (x + np.copysign(eps * norm, x)) / beta[j]
        w[j], w[m] = eps * norm / beta[j], 1.0
        if again or np.abs(w[:m]).max() > math.sqrt(eps):
            h = Q[:m] @ r                   # sweep against the whole basis
            r -= h @ Q[:m]
            alpha[j] += h[j]
            beta[j] = math.sqrt(r @ r)
            w[:m] = eps
            sweeps, again = sweeps + 1, not again
        breakdown = beta[j] <= eps * np.abs(alpha[:m]).max()
        if m == n or (m >= k and (breakdown or m >= check)):
            check = m + max(LANCZOS_CHECK, m // 16)
            # eigh reads the lower triangle of T_m
            theta, S = np.linalg.eigh(np.diag(alpha[:m])
                                      + np.diag(beta[:j], -1))
            theta, S = theta[-k:], S[:, -k:]
            bs = np.abs(beta[j] * S[-1])
            if m == n or np.all(bs <= eps * theta):
                # Ritz vectors in W = R^-1 Q (Q Q^T = R R^T), where T_m is
                # OP's projection to rounding (Simon, Lin. Alg. Appl. 1984)
                R = np.linalg.cholesky(Q[:m] @ Q[:m].T)
                return (theta, np.linalg.solve(R.T, S).T @ Q[:m], m,
                        float(np.max(bs / theta)), sweeps)
        if breakdown:
            raise NumericalError(f"Lanczos broke down after {m} steps, "
                                 f"before {k} eigenpairs converged")
        if m == len(Q):                     # grow the basis
            Q = np.concatenate([Q, np.empty_like(Q[:min(n, 2 * m) - m])])
        Q[m] = r / beta[j]
