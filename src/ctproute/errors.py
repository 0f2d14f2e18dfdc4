"""Error taxonomy shared by every module.

All errors raised on bad input derive from CtprouteError so callers can
catch one base class at a process boundary (the CLI maps them to exit
code 2, except TooManyUncertainEdges which maps to 3).
"""


class CtprouteError(Exception):
    """Base class for all package errors."""


class ParseError(CtprouteError):
    """Input document or file is not syntactically valid."""


class ValidationError(CtprouteError):
    """Input is well formed but violates a semantic constraint."""


class UnknownNode(ValidationError):
    """A node id does not exist in the network."""


class UnknownEdge(ValidationError):
    """An edge id does not exist in the network or model."""


class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent."""


class TooManyUncertainEdges(ValidationError):
    """Exact computation refused: it reached its belief budget or
    Python's recursion limit."""


class BadRoute(ValidationError):
    """A fixed route is not a usable node sequence in the network."""


class RankDeficient(ValidationError):
    """Design matrix has linearly dependent columns."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class NotPSD(ValidationError):
    """Covariance matrix fails positive semidefiniteness beyond tolerance."""


class DomainError(ValidationError):
    """Numeric argument outside its mathematical domain."""


class IncompatibleOptions(ValidationError):
    """Two requested options cannot be combined."""
