"""Exception types shared across the package."""


class QubitFlowError(Exception):
    """Base class for package-specific failures."""


class PoleEvaluationError(QubitFlowError):
    """Raised when a field is evaluated exactly at a pole, or where a pole factor overflows."""

    def __init__(self, pole: complex, message: str | None = None):
        self.pole = pole
        super().__init__(message or f"field evaluated at pole z = {pole}")


class ConditioningError(QubitFlowError):
    """Raised when no evaluation point gives an acceptably conditioned basis matrix.

    ``rank``, a pair (r, N), marks a basis whose N fields span only r dimensions.
    """

    def __init__(self, best_alpha: complex, best_condition: float, rank: tuple[int, int] | None = None):
        self.best_alpha = best_alpha
        self.best_condition = best_condition
        dependent = "" if rank is None else f"; the basis fields are dependent (rank {rank[0]} of {rank[1]})"
        super().__init__(
            f"no evaluation point with condition <= threshold; best candidate "
            f"alpha = {best_alpha} (condition {best_condition:.3e}){dependent}"
        )


class RootFindingError(QubitFlowError):
    """Raised when the simultaneous root iteration fails to converge."""
