"""The parameters of the problem and the closed-form maps between
eigenvalues, vanishing orders and Hardy constants.

Everything here is a pure function of a handful of reals; the heavier mesh and
solver machinery lives in the other modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .expressions import Expression

__all__ = [
    "ProblemParams",
    "kappa_s",
    "gamma_from_mu",
    "mu_from_gamma",
    "hardy_constant_full_space",
]


def kappa_s(s: float) -> float:
    """Normalization constant Gamma(1-s) / (2^(2s-1) Gamma(s)) of the
    weighted Neumann trace condition.

    Raises
    ------
    DomainError
        If ``s`` is outside (0, 1).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    return math.gamma(1.0 - s) / (2.0 ** (2.0 * s - 1.0) * math.gamma(s))


@dataclass(frozen=True)
class ProblemParams:
    """Immutable parameters of the problem a run solves.

    Attributes
    ----------
    N : int
        Thin-space dimension (>= 2).  The PDE modules require N == 2; the
        closed-form maps below are generic in N.
    s : float
        Fractional order in (0, 1).
    lam : float
        Coefficient of the singular potential.  Admissibility, lam below
        the cap's Hardy constant, is checked by ``spectral.solve_eigs`` on
        the mesh it solves on, not here.
    p : float
        Integrability exponent of the bounded perturbation, > N / (2s).
        Defaults to 10 N / (2s).
    h : Expression or None
        Bounded perturbation in the trace condition; a zero expression is
        stored as None, the unperturbed problem.
    kappa : float
        Derived trace-condition constant; filled in automatically.
    """

    N: int = 2
    s: float = 0.5
    lam: float = 0.0
    p: float | None = None
    h: Expression | None = None
    kappa: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.N < 2:
            raise DomainError(f"dimension N must be >= 2, got {self.N}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must lie in (0, 1), got {self.s}")
        p_min = self.N / (2.0 * self.s)
        if self.p is None:
            object.__setattr__(self, "p", 10.0 * p_min)
        elif self.p <= p_min:
            raise DomainError(
                f"p must exceed N/(2s) = {p_min:.6g}, got {self.p}")
        if self.h is not None and self.h.is_zero():
            object.__setattr__(self, "h", None)
        object.__setattr__(self, "kappa", kappa_s(self.s))

    @property
    def half_order(self) -> float:
        """(N - 2s) / 2, the pivot of the mu <-> gamma map."""
        return 0.5 * (self.N - 2.0 * self.s)

    @property
    def spectrum_floor(self) -> float:
        """-((N - 2s)/2)^2, strict lower bound of the admissible spectrum."""
        return -self.half_order ** 2


def gamma_from_mu(mu: float, params: ProblemParams) -> float:
    """Vanishing order gamma = sqrt(((N-2s)/2)^2 + mu) - (N-2s)/2.

    Raises
    ------
    DomainError
        If the radicand is negative beyond a 1e-12 tolerance.
    """
    c = params.half_order
    radicand = c * c + mu
    if radicand < -1e-12:
        raise DomainError(
            f"mu = {mu} lies below the spectrum floor {-c * c:.12g}")
    return math.sqrt(max(radicand, 0.0)) - c


def mu_from_gamma(gamma: float, params: ProblemParams) -> float:
    """Inverse map mu = gamma (gamma + N - 2s); total for gamma >= -(N-2s)/2."""
    return gamma * (gamma + params.N - 2.0 * params.s)


def hardy_constant_full_space(params: ProblemParams) -> float:
    """Best trace-Hardy constant when the cone is the whole space:
    2^(2s) Gamma^2((N+2s)/4) / Gamma^2((N-2s)/4)."""
    N, s = params.N, params.s
    return (2.0 ** (2.0 * s)
            * math.gamma((N + 2.0 * s) / 4.0) ** 2
            / math.gamma((N - 2.0 * s) / 4.0) ** 2)
