"""Exception types shared across the toolkit."""


class TdqhoError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TdqhoError):
    """Malformed or contradictory configuration input."""


class DomainError(TdqhoError):
    """Evaluation outside the declared time domain or parameter range."""


class ValidityError(TdqhoError):
    """A physical admissibility constraint fails (e.g. effective frequency
    squared not positive). Carries the offending time when known."""

    def __init__(self, message, t=None, constraint=None):
        super().__init__(message)
        self.t = t
        self.constraint = constraint


class SingularityError(TdqhoError):
    """Closed-form expression evaluated at a removable-singularity point
    that the model treats as an error (e.g. omega^2 = 4*alpha_xp^2)."""


class IntegrationError(TdqhoError):
    """ODE solve failed: a non-finite coefficient, propagator or state, or a
    step sequence that is too long or does not settle. Carries the offending
    time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
