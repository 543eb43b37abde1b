"""Exception types shared across the package."""


class NonEllipticError(ValueError):
    """The schedule or monodromy is outside the elliptic (bounded) regime."""


class DomainError(ValueError):
    """A state left the domain of the equations of motion (its width G is
    not positive, or in a right-hand side at or below dynamics.G_FLOOR).

    Raised inside a right-hand side, it ends an rk4-fixed pass with an
    IntegrationError at the last good time; only the adaptive stepper of
    the tests (tests/witness.py) rejects the step and retries it halved.
    Any other exception propagates.
    """


class IntegrationError(RuntimeError):
    """Integration failed; ``last_t`` is the last good time, whose state
    was inside the domain (None when no such time was reached)."""

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
