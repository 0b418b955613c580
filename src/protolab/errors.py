"""Semantic exception hierarchy shared by the whole package."""


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
    in ``unit`` (executions of an exhaustive enumeration by default)."""

    def __init__(self, required: int, budget: int, work: str = "enumeration",
                 unit: str = "executions"):
        super().__init__(f"{work} needs {format_count(required)} {unit}, "
                         f"budget is {format_count(budget)}")
        self.required = required
        self.budget = budget
        self.unit = unit


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
