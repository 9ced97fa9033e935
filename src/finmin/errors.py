"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """Input lies outside the mathematically admissible domain."""


class DegenerateJetError(DomainError):
    """Immersion jet fails the rank-two / positive-determinant requirement."""


class QuadratureConvergenceError(RuntimeError):
    """Node doubling exhausted without meeting the convergence target."""

    def __init__(self, message, estimates):
        super().__init__(message)
        # (previous, last) ratio estimates at the final two node counts;
        # empty when the Gauss-Legendre rule itself could not be built
        self.estimates = tuple(estimates)


class SolverError(RuntimeError):
    """Nonlinear solve failure; carries the residual max-norm history."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


class NonConvergenceError(SolverError):
    """Newton iteration exceeded its iteration budget."""


class StagnationError(SolverError):
    """Armijo line search could not reduce the residual."""
