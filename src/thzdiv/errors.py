"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(RuntimeError):
    """A numerical evaluation could not be carried out (e.g. no valid contour)."""


class AccuracyError(EvaluationError):
    """A computation converged, but not to the requested tolerance.

    Carries the tolerance actually achieved in ``achieved``.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved
