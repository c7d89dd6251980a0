"""Exception hierarchy shared across the package."""

__all__ = ["PromptSearchError", "ConfigurationError", "TaskSpecError", "DataError",
           "UsageError", "ModelFault", "NumericalFault"]


class PromptSearchError(Exception):
    """Base class for all promptsearch errors."""


class ConfigurationError(PromptSearchError):
    """Invalid configuration: dimension mismatches, bad weights, empty allowed sets."""


class TaskSpecError(PromptSearchError):
    """A task definition violates its contract (e.g. multi-token label word)."""


class DataError(PromptSearchError):
    """Malformed or inconsistent dataset content."""


class UsageError(PromptSearchError):
    """An operation was called with arguments outside its domain."""


class ModelFault(PromptSearchError):
    """The underlying language model produced non-finite output."""


class NumericalFault(PromptSearchError):
    """Non-finite values encountered during optimization."""
