"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError and DomainError become 1,
ResourceLimitError becomes 2, ParseError becomes 3.
"""


class TraceRangeError(Exception):
    """Base class for every error raised deliberately by this package."""


class ValidationError(TraceRangeError):
    """A value or structure violates a constructor invariant."""


class UnsupportedSpecError(ValidationError):
    """Structurally sound input that falls outside what the library can represent."""


class DomainError(TraceRangeError):
    """An operation was invoked outside its stated precondition."""


class OutOfSupportError(DomainError):
    """An index points past the last term of a finite sequence.

    Distinct from a zero term on purpose: finite models have no terms past
    their support, and pretending the value is 0 would silently corrupt
    tail sums and expansions.
    """

    def __init__(self, index, support):
        super().__init__(f"index {index} is past the support (length {support})")
        self.index = index
        self.support = support


class ResourceLimitError(TraceRangeError):
    """An enumeration or an emitted value would exceed a size bound."""


class ParseError(TraceRangeError):
    """Input text does not conform to the spec DSL or the document grammar."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
