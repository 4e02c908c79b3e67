"""Exact arithmetic for trace ranges of atomic algebras.

The package models positive non-increasing sequences with closed-form tails,
decides whether every value up to the total is a subset sum (the
completeness condition), expands targets greedily into bit patterns,
approximates achievable sets as exact interval unions, and decodes the
extreme sequences of the unit-anchored body into their radix words. All
arithmetic uses ``fractions.Fraction``; nothing is ever rounded except the
SVG renderer's coordinates.
"""

__version__ = "0.1.0"

from .core import (
    Interval,
    IntervalUnion,
    format_rational,
    parse_rational,
)
from .errors import (
    DomainError,
    OutOfSupportError,
    ParseError,
    ResourceLimitError,
    TraceRangeError,
    UnsupportedSpecError,
    ValidationError,
)
from .sequences import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    ZeroTail,
    from_algebra,
    make_model,
    same_sequence,
    split_leading,
)
from .representability import (
    BitExpansion,
    ConditionVerdict,
    gap_certificate,
    greedy_expand,
    kakeya_check,
    list_violations,
    verify_expansion,
)
from .range_geometry import (
    ConvexityVerdict,
    RangeApproximation,
    SubsetSumOracle,
    achievable_outer,
    convexity_verdict,
    subset_sums,
)
from .extreme_points import (
    ExtremalityReport,
    admissibility_check,
    bits_to_digits,
    digits_to_bits,
    face_embed,
    face_extract,
    face_membership,
    mixed_radix_digits,
    radix_to_sequence,
    sequence_to_radix,
)
from .dsl import parse_algebra, parse_spec, parse_word
from .cli import CommandResult, main, run_command

__all__ = [
    "AlgebraSpec",
    "BitExpansion",
    "CommandResult",
    "ConditionVerdict",
    "ConvexityVerdict",
    "DomainError",
    "ExtremalityReport",
    "GeometricTail",
    "Interval",
    "IntervalUnion",
    "MatrixFactor",
    "MixedRadixTail",
    "OutOfSupportError",
    "ParseError",
    "RadixWord",
    "RangeApproximation",
    "ResourceLimitError",
    "SequenceModel",
    "SubsetSumOracle",
    "TraceRangeError",
    "UnsupportedSpecError",
    "ValidationError",
    "ZeroTail",
    "achievable_outer",
    "admissibility_check",
    "bits_to_digits",
    "convexity_verdict",
    "digits_to_bits",
    "emit_svg",
    "face_embed",
    "face_extract",
    "face_membership",
    "format_rational",
    "from_algebra",
    "gap_certificate",
    "greedy_expand",
    "kakeya_check",
    "list_violations",
    "main",
    "make_model",
    "mixed_radix_digits",
    "parse_algebra",
    "parse_rational",
    "parse_spec",
    "parse_word",
    "radix_to_sequence",
    "run_command",
    "same_sequence",
    "sequence_to_radix",
    "split_leading",
    "subset_sums",
    "verify_expansion",
    "__version__",
]


def __getattr__(name):  # the svg renderer is imported on first use, so a launch does not load it
    if name != "emit_svg":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .svg import emit_svg
    return emit_svg
