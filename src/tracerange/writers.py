"""The JSON document of each value an answer holds, as ``serialize``
describes them; every command's answer is written through this module,
which reads no document, so a launch loads no reader of JSON input."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import _check_ceiling, format_rational
from .sequences import GeometricTail, RadixWord, SequenceModel, TailModel, ZeroTail, _spelled

if TYPE_CHECKING:  # the records are read only in annotations, so the engines are not loaded
    from .extreme_points import ExtremalityReport
    from .range_geometry import AlgebraSpec, ConvexityVerdict, RangeApproximation
    from .representability import BitExpansion, ConditionVerdict


def word_to_doc(word: RadixWord) -> dict:
    return {"pre": list(word.pre), "period": list(word.period)}


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


def model_to_doc(model: SequenceModel) -> dict:
    _check_ceiling("entries", model._length)  # one entry per prefix term, as ``prefix`` spells them
    return {
        "prefix": list(_spelled((format_rational(x), count) for x, count in model._runs)),
        "tail": tail_to_doc(model.tail),
    }


def algebra_to_doc(spec: AlgebraSpec) -> dict:
    factors = [{"dim": f.dim, "weight": format_rational(f.weight)} for f in spec.factors]
    tail = tail_to_doc(spec.abelian_tail) if spec.abelian_tail is not None else None
    return {"factors": factors, "abelianTail": tail}


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
