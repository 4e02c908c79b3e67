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

# each module, with the public names it defines: a name's module is imported
# when the name is first read, so importing the package loads no module
_MODULES = {
    "core": ("Interval", "format_rational", "parse_rational"),
    "errors": (
        "DomainError", "OutOfSupportError", "ParseError", "ResourceLimitError", "TraceRangeError",
        "UnsupportedSpecError", "ValidationError",
    ),
    "sequences": (
        "GeometricTail", "MixedRadixTail", "RadixWord", "SequenceModel", "ZeroTail", "make_model", "same_sequence",
        "split_leading",
    ),
    "representability": (
        "BitExpansion", "ConditionVerdict", "gap_certificate", "greedy_expand", "kakeya_check", "list_violations",
        "verify_expansion",
    ),
    "range_geometry": (
        "AlgebraSpec", "ConvexityVerdict", "IntervalUnion", "MatrixFactor", "RangeApproximation", "SubsetSumOracle",
        "achievable_outer", "convexity_verdict", "from_algebra", "subset_sums",
    ),
    "extreme_points": (
        "ExtremalityReport", "admissibility_check", "bits_to_digits", "digits_to_bits", "face_embed",
        "face_extract", "face_membership", "mixed_radix_digits", "radix_to_sequence", "sequence_to_radix",
    ),
    "serialize": (),
    "writers": (),
    "readers": (),
    "dsl": ("parse_algebra", "parse_spec", "parse_word"),
    "cli": ("CommandResult", "main", "run_command"),
    "argparser": (),
    "svg": ("emit_svg",),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    """Import the module that defines ``name``, or the submodule ``name``, on
    its first read, and keep the value here so later reads skip this hook."""
    home = _HOME.get(name)
    if home is None and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{home or name}")
    value = globals()[name] = getattr(module, name) if home else module
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
