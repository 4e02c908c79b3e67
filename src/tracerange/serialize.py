"""JSON document forms of the package's values.

Exact rationals travel as "p/q" strings so nothing is ever rounded; plain
integers are accepted on input, floats never are. Field names are camelCase.
Structural problems (wrong type, unknown or missing field, unknown kind)
raise ParseError; value problems (zero denominators, negative terms, bad
radices) surface as the constructors' usual ValidationError. One check,
``_check_keys``, names a document's unknown fields and then the required
ones it lacks (``"<where> needs 'a' and 'b'"``), and a radix tail's word
is read by ``word_from_doc``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .core import _quoted, format_rational, parse_rational
from .errors import ParseError
from .extreme_points import ExtremalityReport
from .range_geometry import ConvexityVerdict, RangeApproximation
from .representability import BitExpansion, ConditionVerdict
from .sequences import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    TailModel,
    ZeroTail,
    _spelled,
)


def _expect_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    return obj


def _check_keys(obj: dict, allowed: set[str], where: str, required: tuple[str, ...] = ()) -> None:
    """No field of ``obj`` outside ``allowed``, then every one of ``required``."""
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{where} has unknown fields: {_quoted(', '.join(sorted(unknown)), str)}")
    if not all(map(obj.__contains__, required)):
        raise ParseError(f"{where} needs {' and '.join(map(repr, required))}")


def _doc_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where} must be a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ParseError(f"{where} is a float; write it as a 'p/q' string instead")
    raise ParseError(f"{where} must be an integer or a 'p/q' string")


def _doc_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer")
    return value


def _doc_int_list(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list of integers")
    return tuple(_doc_int(x, f"{where}[{i}]") for i, x in enumerate(value))


def word_to_doc(word: RadixWord) -> dict:
    return {"pre": list(word.pre), "period": list(word.period)}


def word_from_doc(obj: Any) -> RadixWord:
    doc = _expect_mapping(obj, "radix word")
    _check_keys(doc, {"pre", "period"}, "radix word")
    pre = _doc_int_list(doc.get("pre", []), "pre")
    period = _doc_int_list(doc.get("period", []), "period")
    return RadixWord(pre, period)


def tail_to_doc(tail: TailModel) -> dict:
    if isinstance(tail, ZeroTail):
        return {"kind": "zero"}
    if isinstance(tail, GeometricTail):
        return {
            "kind": "geometric",
            "first": format_rational(tail.first),
            "ratio": format_rational(tail.ratio),
        }
    return {
        "kind": "radix",
        "scale": format_rational(tail.scale),
        "pre": list(tail.radices.pre),
        "period": list(tail.radices.period),
    }


def tail_from_doc(obj: Any) -> TailModel:
    doc = _expect_mapping(obj, "tail")
    kind = doc.get("kind")
    if kind == "zero":
        _check_keys(doc, {"kind"}, "zero tail")
        return ZeroTail()
    if kind == "geometric":
        _check_keys(doc, {"kind", "first", "ratio"}, "geometric tail", ("first", "ratio"))
        return GeometricTail(
            _doc_rational(doc["first"], "first"),
            _doc_rational(doc["ratio"], "ratio"),
        )
    if kind == "radix":
        _check_keys(doc, {"kind", "scale", "pre", "period"}, "radix tail", ("scale",))
        word = word_from_doc({key: doc[key] for key in ("pre", "period") if key in doc})
        return MixedRadixTail(_doc_rational(doc["scale"], "scale"), word)
    raise ParseError(f"unknown tail kind {_quoted(kind) if isinstance(kind, str) else _quoted(repr(kind), str)}")


def model_to_doc(model: SequenceModel) -> dict:
    return {
        "prefix": list(_spelled((format_rational(x), count) for x, count in model._runs)),
        "tail": tail_to_doc(model.tail),
    }


def model_from_doc(obj: Any) -> SequenceModel:
    doc = _expect_mapping(obj, "sequence spec")
    _check_keys(doc, {"prefix", "tail"}, "sequence spec")
    raw_prefix = doc.get("prefix", [])
    if not isinstance(raw_prefix, list):
        raise ParseError("prefix must be a list")
    prefix = tuple(
        _doc_rational(x, f"prefix[{i}]") for i, x in enumerate(raw_prefix)
    )
    tail = tail_from_doc(doc["tail"]) if "tail" in doc else ZeroTail()
    return SequenceModel(prefix, tail)


def algebra_to_doc(spec: AlgebraSpec) -> dict:
    factors = [{"dim": f.dim, "weight": format_rational(f.weight)} for f in spec.factors]
    tail = tail_to_doc(spec.abelian_tail) if spec.abelian_tail is not None else None
    return {"factors": factors, "abelianTail": tail}


def algebra_from_doc(obj: Any) -> AlgebraSpec:
    doc = _expect_mapping(obj, "algebra spec")
    _check_keys(doc, {"factors", "abelianTail"}, "algebra spec")
    raw_factors = doc.get("factors", [])
    if not isinstance(raw_factors, list):
        raise ParseError("factors must be a list")
    factors = []
    for i, item in enumerate(raw_factors):
        entry = _expect_mapping(item, f"factors[{i}]")
        _check_keys(entry, {"dim", "weight"}, f"factors[{i}]", ("dim", "weight"))
        factors.append(
            MatrixFactor(
                _doc_int(entry["dim"], f"factors[{i}].dim"),
                _doc_rational(entry["weight"], f"factors[{i}].weight"),
            )
        )
    raw_tail = doc.get("abelianTail")
    tail = tail_from_doc(raw_tail) if raw_tail is not None else None
    return AlgebraSpec(tuple(factors), tail)


def verdict_to_doc(verdict: ConditionVerdict) -> dict:
    gap = None if verdict.gap is None else [format_rational(x) for x in verdict.gap]
    return {"holds": verdict.holds, "firstViolation": verdict.first_violation, "gap": gap}


def expansion_to_doc(expansion: BitExpansion) -> dict:
    return {
        "bits": list(expansion.bits),
        "achieved": format_rational(expansion.achieved),
        "residual": format_rational(expansion.residual),
        "residualBound": format_rational(expansion.residual_bound),
    }


def approximation_to_doc(approx: RangeApproximation) -> dict:
    return {
        "depth": approx.depth,
        "exact": approx.exact,
        "intervals": approx.union._written_parts(),
        "totalLength": format_rational(approx.union.total_length()),
    }


def report_to_doc(report: ExtremalityReport) -> dict:
    return {
        "status": report.status,
        "word": word_to_doc(report.word) if report.word is not None else None,
        "witnessIndex": report.witness_index,
        "depth": report.depth,
    }


def convexity_to_doc(verdict: ConvexityVerdict) -> dict:
    return {
        "convex": verdict.convex,
        "certificate": verdict_to_doc(verdict.certificate),
    }
