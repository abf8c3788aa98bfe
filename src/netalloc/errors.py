"""Exception types shared across the package."""


class NetallocError(Exception):
    """Base class for all package-specific failures."""


class ProjectionError(NetallocError):
    """Polyhedral projection failed its membership certificate (or Dykstra its sweep cap)."""

    def __init__(self, message, membership_violation=None, sweep_change=None):
        super().__init__(message)
        self.membership_violation = membership_violation
        self.sweep_change = sweep_change


class ConvergenceError(NetallocError):
    """Iterative solver hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class DivergenceError(NetallocError):
    """State norm blew past the divergence guard."""

    def __init__(self, iteration, norm):
        super().__init__(iteration, norm)
        self.iteration = iteration
        self.norm = norm

    def __str__(self):
        return f"state norm {self.norm:.3e} exceeded divergence guard at iteration {self.iteration}"


class GenerationError(NetallocError):
    """Random instance generation failed after the retry budget."""


class InconsistencyError(NetallocError):
    """Equilibrium construction detected an inconsistent oracle solution."""


class ConfigError(NetallocError):
    """Malformed or contradictory configuration document."""
