"""Exception hierarchy shared across the package.

Each class carries what the CLI answers it with: ``exit_code`` is the
process exit code and ``kind`` the envelope's ``error.kind``, and a subclass
inherits its parent's pair. ValidationError is 1 ``"validation"``,
DomainError 1 ``"domain"``, ResourceLimitError 2 ``"resource"`` and
ParseError 3 ``"parse"``. The package never raises a bare TraceRangeError;
one ends as 1 ``"internal"``, as any unexpected exception does.
"""


class TraceRangeError(Exception):
    """Base class for every error raised deliberately by this package."""

    exit_code, kind = 1, "internal"


class ValidationError(TraceRangeError):
    """A value or structure violates a constructor invariant."""

    exit_code, kind = 1, "validation"


class UnsupportedSpecError(ValidationError):
    """Structurally sound input that falls outside what the library can represent."""


class DomainError(TraceRangeError):
    """An operation was invoked outside its stated precondition."""

    exit_code, kind = 1, "domain"


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

    exit_code, kind = 2, "resource"


class ParseError(TraceRangeError):
    """Input text does not conform to the spec DSL or the document grammar."""

    exit_code, kind = 3, "parse"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
