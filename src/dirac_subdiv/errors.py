"""Exception types shared across the package."""


class GenerationError(RuntimeError):
    """A generator could not meet its postcondition: the one host sample
    missed its degree bound, or the random-regular sampler's switchings ran
    out of their proposal budget, which no tested (n, d) reaches."""


class PartitionError(RuntimeError):
    """A randomized partition stage exhausted its budget.

    Carries the attempt count and the worst violated constraint seen, so
    callers can surface diagnostics instead of a bare failure.
    """

    def __init__(self, message: str, attempts: int = 0, level: int | None = None,
                 violation: tuple | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.level = level
        self.violation = violation
