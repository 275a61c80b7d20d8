"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A size cap or an iteration budget was exceeded: `value` went past `limit`."""

    def __init__(self, name: str, value: int, limit: int) -> None:
        super().__init__(name, value, limit)
        self.name, self.value, self.limit = name, value, limit

    def __str__(self) -> str:
        return f"{self.name} budget exceeded: {self.value} > {self.limit}"


class UndefinedRatioError(ValueError):
    """The losing/winning payoff ratio is undefined (a winning coalition has payoff 0)."""


class CertificateError(AssertionError):
    """An exact certificate check failed: a solver or oracle returned a wrong answer.

    It is raised explicitly, so `python -O` cannot strip the check, and it
    subclasses AssertionError, so callers catching that still catch it."""
