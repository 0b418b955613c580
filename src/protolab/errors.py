"""Semantic exception hierarchy shared by the whole package."""

import operator
from collections.abc import Callable


class ProtoLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ProtoLabError):
    """Bad user-supplied configuration, file, or CLI argument."""


def format_count(n: int) -> str:
    """A count in decimal while it has at most 20 digits, else by its
    binary magnitude: decimal conversion of a huge int is slow, and Python
    refuses it beyond 4300 digits."""
    if n.bit_length() <= 64:
        return str(n)
    if n & (n - 1) == 0:
        return f"2^{n.bit_length() - 1}"
    return f"more than 2^{n.bit_length() - 1}"


class BudgetExceededError(ProtoLabError):
    """Some work would exceed the configured budget: ``required`` counts it
    in ``unit`` (executions of an exhaustive enumeration by default), or is
    None and ``count`` prints a count too large to build."""

    def __init__(self, required: int | None, budget: int,
                 work: str = "enumeration", unit: str = "executions",
                 count: str | None = None):
        super().__init__(f"{work} needs {count or format_count(required)} "
                         f"{unit}, budget is {format_count(budget)}")
        self.required = required
        self.budget = budget
        self.unit = unit


def budgeted_count(budget: int | None, exponent: int,
                   factor: Callable[[], int] | None = None) -> int:
    """An enumeration's executions, 2^exponent times ``factor()`` (a
    positive int, 1 when absent), checked against ``budget`` (2^64 if None:
    no enumeration runs longer).  A count that 2^exponent >= 2^64 alone puts
    over the budget is named by that power, never built: ``1 << 10**20``
    and ``math.perm`` at such sizes hang."""
    exponent = operator.index(exponent)
    budget = 1 << 64 if budget is None else budget
    if exponent >= max(budget.bit_length(), 64):
        count = f"2^{exponent}" if factor is None else f"at least 2^{exponent}"
        raise BudgetExceededError(None, budget, count=count)
    required = 1 << exponent
    if factor is not None:
        required *= factor()
    if required > budget:
        raise BudgetExceededError(required, budget)
    return required


class ModelViolationError(ProtoLabError):
    """A protocol broke the rules of the communication model."""


class DeadlockError(ModelViolationError):
    """Execution stalled with missing outputs or unread messages."""


class NonTerminationError(ModelViolationError):
    """A player exceeded its declared maximum number of local rounds."""


class SelfDelimitingError(ModelViolationError):
    """Messages at one link position are not prefix-free across executions."""


class NotObliviousError(ProtoLabError):
    """An operation requiring a fixed communication pattern got a protocol
    whose wait- or send-sets depend on inputs or randomness."""


class InvariantError(ProtoLabError, RuntimeError):
    """An internal consistency check failed.  This is a bug in protolab,
    not in the protocol or the input."""
