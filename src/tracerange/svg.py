"""Static SVG pictures of range approximations.

One horizontal band per approximation, stacked top to bottom in increasing
depth, each drawing its interval union against a shared axis from 0 to the
largest endpoint. This is the only place in the package where rationals are
converted to floats; coordinates are rounded to six decimals so output is
reproducible byte for byte. The axis labels, "0" and the span as num/den,
hold no markup; a span too large to write is refused before any drawing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import _check_writable, _reduced
from .errors import ValidationError
from .range_geometry import IntervalUnion, RangeApproximation

_WIDTH = 800
_MARGIN_X = 48
_USABLE = _WIDTH - 2 * _MARGIN_X
_MARGIN_Y = 44
_BAND_HEIGHT = 26
_BAND_GAP = 18
_EXACT_FILL = "#2f6f4f"
_OUTER_FILL = "#b0693d"
_AXIS_COLOR = "#444444"
_TITLE = "achievable values"


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _grid_xs(union: IntervalUnion, span: Fraction) -> list[float]:
    """The x of each endpoint of ``union`` (lo, hi, lo, hi, ...), each from
    one int true division on the union's grid; it is correctly rounded, as
    ``float(endpoint / span)`` is, so the two floats are equal."""
    num, den = span.denominator, union._den * span.numerator
    return [_MARGIN_X + end * num / den * _USABLE for end in union._ends]


def emit_svg(approximations: Sequence[RangeApproximation]) -> str:
    """Render bands for the given approximations, ordered by depth."""
    approxes = list(approximations)
    if not approxes:
        raise ValidationError("need at least one approximation to draw")
    for earlier, later in zip(approxes, approxes[1:]):
        if earlier.depth >= later.depth:
            raise ValidationError("approximations must come in increasing depth order")
    # the largest endpoint of a union is its last, compared on integers
    num, den = 1, 1
    for approx in approxes:
        if approx.union and approx.union._ends[-1] * den > num * approx.union._den:
            num, den = approx.union._ends[-1], approx.union._den
    span = _check_writable(_reduced(num, den))
    height = 2 * _MARGIN_Y + len(approxes) * _BAND_HEIGHT + (len(approxes) - 1) * _BAND_GAP

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f"  <title>{_TITLE}</title>",
        f'  <rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    axis_y = height - _MARGIN_Y // 2
    lines.append(
        f'  <line x1="{_fmt(_MARGIN_X)}" y1="{axis_y}" '
        f'x2="{_fmt(_MARGIN_X + _USABLE)}" y2="{axis_y}" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    for x, label in ((_MARGIN_X, "0"), (_MARGIN_X + _USABLE, str(span))):
        lines.append(
            f'  <line x1="{_fmt(x)}" y1="{axis_y - 4}" x2="{_fmt(x)}" y2="{axis_y + 4}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        lines.append(
            f'  <text x="{_fmt(x)}" y="{axis_y + 16}" font-size="11" '
            f'font-family="monospace" fill="{_AXIS_COLOR}" '
            f'text-anchor="middle">{label}</text>'
        )
    for row, approx in enumerate(approxes):
        top = _MARGIN_Y + row * (_BAND_HEIGHT + _BAND_GAP)
        fill = _EXACT_FILL if approx.exact else _OUTER_FILL
        tag = "exact" if approx.exact else "outer"
        lines.append(
            f'  <text x="{_MARGIN_X}" y="{top - 5}" font-size="11" '
            f'font-family="monospace" fill="{_AXIS_COLOR}">'
            f"depth {approx.depth} ({tag})</text>"
        )
        xs = iter(_grid_xs(approx.union, span))
        for left, right in zip(xs, xs):
            width = max(right - left, 0.75)
            lines.append(
                f'  <rect x="{_fmt(left)}" y="{top}" width="{_fmt(width)}" '
                f'height="{_BAND_HEIGHT}" fill="{fill}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines)
