"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration violates an ordering invariant or is malformed."""


class ParseError(Exception):
    """Malformed expression text."""

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"at position {offset}: {message}{hint}")


class EvalError(Exception):
    """Evaluation failure, attributed to a node's source offset.

    A failure that depends on the arguments carries its cause, with its
    message: numpy's FloatingPointError for a float operation that
    overflows, divides by zero or is invalid, or a DomainError for an
    interval one (a divisor enclosure containing 0, say).  A failure of the
    expression itself (a non-constant exponent in interval mode) carries
    none."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message
        super().__init__(f"at position {offset}: {message}")
