"""Shared exception types.

Validation errors signal bad inputs or configs; numerical errors signal a
run that started fine but left its certified envelope (positivity loss,
conservation breach, CFL violation). The CLI maps them to distinct exit
codes, so library code should pick the right one.
"""


class WeakInvError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(WeakInvError, ValueError):
    """Input or configuration violates a documented precondition."""


class SamplingError(ValidationError):
    """A sampled column fails a guard; `at` is the earliest bad row."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


class NumericalError(WeakInvError, RuntimeError):
    """A computation left its certified numerical envelope mid-run."""
