"""The value of each JSON document, as ``serialize`` describes them, and
the JSON text reader: ``dsl`` loads this module only for input that starts
with '{' (an algebra spec always does), so no other launch compiles it.

Structural problems (a repeated, unknown or missing field, wrong type,
unknown kind) raise ParseError; one check, ``_check_keys``, names a
document's unknown fields and then the required ones it lacks
(``"<where> needs 'a' and 'b'"``). Value problems surface as the
constructors' ValidationError, and a radix tail's word is read by
``word_from_doc``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .core import _quoted, _read_int, parse_rational
from .errors import ParseError
from .sequences import GeometricTail, MixedRadixTail, RadixWord, SequenceModel, TailModel, ZeroTail

if TYPE_CHECKING:  # read only in an annotation
    from .range_geometry import AlgebraSpec

# the package: the algebra records are read through it (``_engines.range_geometry``)
# when an algebra document is read, so reading any other loads no engine
_engines = sys.modules[__package__]


def _fields(pairs: list) -> dict:
    """A JSON object's fields, or a ParseError naming the first field that
    it repeats, which ``json`` would otherwise let the last one overwrite."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise ParseError(f"invalid JSON: repeated field {_quoted(name)}")
            seen.add(name)
    return fields


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_fields, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        if exc.msg.startswith("Illegal trailing comma"):  # 3.13's, at the comma; told as earlier versions do
            exc.pos = json.decoder.WHITESPACE.match(text, exc.pos + 1).end()
            exc.msg = "Expecting " + ("value" if exc.msg[-5:] == "array" else "property name enclosed in double quotes")
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested past the interpreter's recursion limit") from None


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


def word_from_doc(obj: Any) -> RadixWord:
    doc = _expect_mapping(obj, "radix word")
    _check_keys(doc, {"pre", "period"}, "radix word")
    pre = _doc_int_list(doc.get("pre", []), "pre")
    period = _doc_int_list(doc.get("period", []), "period")
    return RadixWord(pre, period)


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


def algebra_from_doc(obj: Any) -> AlgebraSpec:
    doc = _expect_mapping(obj, "algebra spec")
    _check_keys(doc, {"factors", "abelianTail"}, "algebra spec")
    raw_factors = doc.get("factors", [])
    if not isinstance(raw_factors, list):
        raise ParseError("factors must be a list")
    algebras, factors = _engines.range_geometry, []
    for i, item in enumerate(raw_factors):
        entry = _expect_mapping(item, f"factors[{i}]")
        _check_keys(entry, {"dim", "weight"}, f"factors[{i}]", ("dim", "weight"))
        factors.append(
            algebras.MatrixFactor(
                _doc_int(entry["dim"], f"factors[{i}].dim"),
                _doc_rational(entry["weight"], f"factors[{i}].weight"),
            )
        )
    raw_tail = doc.get("abelianTail")
    tail = tail_from_doc(raw_tail) if raw_tail is not None else None
    return algebras.AlgebraSpec(tuple(factors), tail)
