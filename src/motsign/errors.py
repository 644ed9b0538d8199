"""Exception types shared across the package."""

__all__ = [
    "MotsignError",
    "ParseError",
    "DuplicateKeyError",
    "ModeMismatchError",
    "InhomogeneousError",
    "RewriteLimitError",
]


class MotsignError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MotsignError):
    """Malformed textual input; carries a location when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)


class DuplicateKeyError(MotsignError):
    """Two table rows share the same (stem, weight, name) key."""


class ModeMismatchError(MotsignError):
    """An operation requires both conventions to use the same coefficient mode."""


class InhomogeneousError(MotsignError):
    """A sum or a relation mixes terms of different bidegrees."""


class RewriteLimitError(MotsignError):
    """Relation rewriting did not reach a fixed point within the pass cap."""
