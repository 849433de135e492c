"""Exception types shared across the package, and the count check that raises one."""


class NoiseWalkError(Exception):
    """Base class for all package errors."""


class InputError(NoiseWalkError, ValueError):
    """Malformed input: bad letters, weights, ranks, or parameter ranges."""


class ValidationError(NoiseWalkError, ValueError):
    """Structurally valid input that violates a contract (e.g. measure kind mismatch)."""


class TruncationError(NoiseWalkError, RuntimeError):
    """Exact computation would exceed the support cap in strict mode.

    Carries the level at which the cap was hit and the mass that would
    have been dropped so far.
    """

    def __init__(self, message: str, level: int, lost_mass: float):
        super().__init__(message)
        self.level = level
        self.lost_mass = lost_mass


class BudgetError(NoiseWalkError, RuntimeError):
    """Requested computation exceeds a hard size or time budget."""


class UnsupportedRegimeError(NoiseWalkError, ValueError):
    """Operation is only defined for a different group/semigroup regime."""


def check_count(name: str, count) -> None:
    """Refuse a ``count`` that is not a positive int (a bool is not a count)."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InputError(f"{name} must be a positive integer, got {count!r}")
