"""Semantic exception hierarchy shared by the whole package."""


class ProtoLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ProtoLabError):
    """Bad user-supplied configuration, file, or CLI argument."""


class BudgetExceededError(ProtoLabError):
    """Some work would exceed the configured budget: ``required`` counts it
    in ``unit`` (executions of an exhaustive enumeration by default)."""

    def __init__(self, required: int, budget: int, work: str = "enumeration",
                 unit: str = "executions"):
        super().__init__(f"{work} needs {required} {unit}, budget is {budget}")
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
