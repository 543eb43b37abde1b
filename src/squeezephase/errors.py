"""Exception types shared across the package."""


class NonEllipticError(ValueError):
    """The schedule or monodromy is outside the elliptic (bounded) regime."""


class DomainError(ValueError):
    """A state left the domain of the equations of motion (G <= 0).

    Raised inside a right-hand side, it tells the adaptive stepper to
    retry with a smaller step; any other exception propagates.
    """


class IntegrationError(RuntimeError):
    """Adaptive step control failed; ``last_t`` is the last good time."""

    def __init__(self, message, last_t=None):
        super().__init__(message)
        self.last_t = last_t


class ConvergenceError(RuntimeError):
    """An iterative solve did not reach tolerance."""


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists (line, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(msg for _, msg in self.errors))
