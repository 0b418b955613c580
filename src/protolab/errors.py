"""Semantic exception hierarchy shared by the whole package."""


class ProtoLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ProtoLabError):
    """Bad user-supplied configuration, file, or CLI argument."""


class BudgetExceededError(ProtoLabError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} executions, budget is {budget}"
        )
        self.required = required
        self.budget = budget


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
