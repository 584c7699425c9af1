"""Exception hierarchy shared across the package."""


class SatMdpError(Exception):
    """Base class for all package errors."""


class ParseError(SatMdpError):
    """Malformed DIMACS input. An error about a token or a clause starts with
    "line N:"; whole-file errors (no header, a clause count that differs from
    the header's, an unterminated last clause) name no line."""


class FormulaError(SatMdpError):
    """A formula violates a structural requirement (clause arity, index range);
    `clause` is the index of the offending clause, when one is to blame."""

    def __init__(self, message: str, clause: int | None = None):
        super().__init__(message)
        self.clause = clause


class ParameterError(SatMdpError):
    """Caller passed arguments outside an operation's documented domain."""


class ResourceLimitError(SatMdpError):
    """An exhaustive computation would exceed its configured budget."""


class InvariantViolation(SatMdpError):
    """An internal guarantee failed; indicates a bug, raised loudly."""
