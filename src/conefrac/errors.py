"""Exception hierarchy shared by all conefrac modules."""


class ConefracError(Exception):
    """Base class for all package errors."""


class DomainError(ConefracError):
    """A scalar argument lies outside the mathematical domain of an operation."""


class GeometryError(ConefracError):
    """Degenerate or inconsistent cone / cap / mesh geometry."""


class ConfigurationError(ConefracError):
    """Invalid run configuration.  Carries the full list of violations."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InadmissibleLambdaError(DomainError, ConfigurationError):
    """lam is not below the cap's Hardy constant: a domain error of the
    eigen solve, reported by the command line as a config error."""


class ModeCountError(DomainError, ConfigurationError):
    """k is not in 1 .. the mesh's free dof count; a config error."""


class UnresolvedCapError(GeometryError, ConfigurationError):
    """No free equator node of the mesh touches a cap segment: the mesh
    cannot see the cap, a config error at the command line."""


class NumericalError(ConefracError):
    """A solver failed to converge or produced an inconsistent result."""


class ExpressionError(ConefracError):
    """Parse or evaluation failure of an arithmetic expression."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
