"""Exact scalars and interval-set arithmetic.

Every quantity is a Python ``Fraction`` (arbitrary precision, lowest terms,
positive denominator). Nothing in this module, or anywhere else in the
library, rounds; the single lossy surface of the package is coordinate
formatting in the SVG renderer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ParseError, ResourceLimitError, ValidationError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def make_rational(num: int, den: int) -> Fraction:
    """Build num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ValidationError("denominator must be nonzero")
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p". Surrounding whitespace is fine."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    body = text.strip()
    if not body:
        raise ParseError("empty rational")
    num_text, sep, den_text = body.partition("/")
    try:
        num = int(num_text.strip())
    except ValueError:
        raise ParseError(f"malformed rational {text!r}") from None
    if not sep:
        return Fraction(num)
    try:
        den = int(den_text.strip())
    except ValueError:
        raise ParseError(f"malformed rational {text!r}") from None
    if den == 0:
        raise ValidationError("denominator must be nonzero")
    return Fraction(num, den)


def format_rational(value) -> str:
    """Canonical "p/q" form; integers are written "p/1" so output is uniform.

    A rational too large for the interpreter's int-to-text digit limit is
    refused with ``ResourceLimitError`` naming its bit size.
    """
    q = Fraction(value)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise ResourceLimitError(
            f"output rational too large to write: {bits} bits"
        ) from None


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValidationError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    def contains(self, point) -> bool:
        return self.lo <= point <= self.hi

    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of closed intervals, sorted, disjoint, maximally coalesced.

    The parts never touch: consecutive parts satisfy previous.hi < next.lo
    strictly, so any value representable as a union has exactly one
    representation. All operations are pure and return new unions.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        for prev, nxt in zip(parts, parts[1:]):
            if prev.hi >= nxt.lo:
                raise ValidationError(
                    f"union parts must be sorted and strictly separated: "
                    f"[{prev.lo}, {prev.hi}] then [{nxt.lo}, {nxt.hi}]"
                )
        object.__setattr__(self, "parts", parts)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalUnion":
        """Coalesce arbitrary intervals into canonical form.

        Overlapping and abutting intervals merge; [0, 1/4] followed by
        [1/4, 1/2] becomes [0, 1/2].
        """
        items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[list[Fraction]] = []
        for iv in items:
            if merged and iv.lo <= merged[-1][1]:
                if iv.hi > merged[-1][1]:
                    merged[-1][1] = iv.hi
            else:
                merged.append([iv.lo, iv.hi])
        return cls(tuple(Interval(lo, hi) for lo, hi in merged))

    def insert(self, interval: Interval) -> "IntervalUnion":
        """Union with one more interval, re-coalescing as needed."""
        return IntervalUnion.from_intervals(self.parts + (interval,))

    def complement(self, within: Interval) -> "IntervalUnion":
        """Closure of ``within`` minus this union.

        Every part must lie inside ``within``. Note the closure semantics:
        removing an isolated point leaves a union that coalesces back across
        it, so degenerate parts do not survive a complement round trip.

        One pass: the gaps come out sorted and can only touch across a
        degenerate part, where they are joined on the spot.
        """
        gaps: list[list[Fraction]] = []
        cursor = within.lo
        for part in self.parts + (Interval(within.hi, within.hi),):
            if part.lo < within.lo or part.hi > within.hi:
                raise ValidationError(
                    f"union part [{part.lo}, {part.hi}] is not inside "
                    f"[{within.lo}, {within.hi}]"
                )
            if cursor < part.lo:
                if gaps and gaps[-1][1] == cursor:
                    gaps[-1][1] = part.lo
                else:
                    gaps.append([cursor, part.lo])
            cursor = part.hi
        return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in gaps))

    def contains(self, point) -> bool:
        idx = bisect_right(self._los, point) - 1
        return idx >= 0 and self.parts[idx].hi >= point

    @cached_property
    def _los(self) -> list:
        return [part.lo for part in self.parts]

    def covers(self, other: "IntervalUnion") -> bool:
        """True when every part of ``other`` sits inside some part of self."""
        i = 0
        for part in other.parts:
            while i < len(self.parts) and self.parts[i].hi < part.lo:
                i += 1
            if i == len(self.parts):
                return False
            mine = self.parts[i]
            if not (mine.lo <= part.lo and part.hi <= mine.hi):
                return False
        return True

    def total_length(self) -> Fraction:
        return sum((part.length() for part in self.parts), ZERO)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)
