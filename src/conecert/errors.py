"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration violates an ordering invariant or is malformed."""
