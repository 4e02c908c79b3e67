"""Exact scalars and interval-set arithmetic.

Scalars are Python ``Fraction``s (arbitrary precision, lowest terms,
positive denominator). An ``IntervalUnion`` holds its endpoints as integers
over one common denominator and works on those integers. It checks their
whole order once, on that grid, when it is built, and reduces each endpoint
to lowest terms at most once, one gcd each: the JSON writer, the ``Interval``
parts (``Fraction`` endpoints, built only when read, without checking each
part again) and the complement, which inherits the pairs it shares, all read
that one pass. Nothing in this module, or anywhere else in the library,
rounds; the single lossy surface of the package is coordinate formatting in
the SVG renderer.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import chain, compress, repeat
from typing import Iterable, Iterator

from .errors import ParseError, ResourceLimitError, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)
_setattr = object.__setattr__  # sets a field past the records' frozen ``__setattr__``


def _digit_limit() -> int:
    """The interpreter's int/text digit limit; 0 means none, as on
    interpreters that predate the limit."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter is not None else 0


# an error message quotes at most this many characters of the input it names
QUOTE_WINDOW = 100


def _quoted(text: str, show=repr) -> str:
    """``show(text)``; a text longer than ``QUOTE_WINDOW`` characters is shown
    by its first ``QUOTE_WINDOW`` and then a marker of its length."""
    if len(text) <= QUOTE_WINDOW:
        return show(text)
    return f"{show(text[:QUOTE_WINDOW])}... ({len(text)} characters)"


# the decimal integer text that ``int`` reads
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _read_int(text: str, malformed=None, position=None) -> int:
    """``int(text)``, or else a ``ParseError``: a well-formed integer past
    the interpreter's digit limit is named by both counts rather than echoed,
    and anything else gets ``malformed``, by default a message quoting
    ``text`` (``_quoted``), so ``json.loads`` takes this as its ``parse_int``."""
    try:
        return int(text)
    except ValueError:
        pass
    digits, limit = sum(map(str.isdigit, text)), _digit_limit()
    if limit and digits > limit and _INT_TEXT.fullmatch(text):
        malformed = f"integer of {digits} digits is past the limit of {limit} digits"
    raise ParseError(malformed or f"malformed integer {_quoted(text)}", position)


def _read_rational(num_text: str, den_text, malformed: str, position=None) -> Fraction:
    """Each text read by ``_read_int``, no denominator when it is None; a zero one is a ValidationError."""
    num = _read_int(num_text, malformed, position)
    if den_text is None:
        return Fraction(num)
    den = _read_int(den_text, malformed, position)
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
    den_text = den_text.strip() if sep else None
    return _read_rational(num_text.strip(), den_text, f"malformed rational {_quoted(text)}")


def _too_large(num: int, den: int) -> ResourceLimitError:
    """The refusal of num/den as too large to write, naming its bit size."""
    bits = max(num.bit_length(), den.bit_length())
    return ResourceLimitError(f"output rational too large to write: {bits} bits")


@cache
def _ten_to(limit: int) -> int:
    return 10**limit


def _check_writable(q: Fraction) -> Fraction:
    """``q``, once it is known that ``format_rational`` can write it; else the
    same ``ResourceLimitError`` that writing it would raise.

    An integer fails to write when it has more than ``limit`` digits, that
    is when its magnitude reaches 10**limit. One of at most 3 * limit bits
    is below 8**limit and always fits, so only larger ones are compared.
    """
    limit = _digit_limit()
    num, den = q.numerator, q.denominator
    if limit and max(num.bit_length(), den.bit_length()) > 3 * limit:
        ceiling = _ten_to(limit)
        if abs(num) >= ceiling or den >= ceiling:
            raise _too_large(num, den)
    return q


def _write_ratio(num: int, den: int) -> str:
    """"num/den" for a ratio already in lowest terms, refusing one too large
    for the interpreter's int-to-text digit limit with ``ResourceLimitError``
    naming its bit size."""
    try:
        return f"{num}/{den}"
    except ValueError:
        raise _too_large(num, den) from None


def format_rational(value) -> str:
    """Canonical "p/q" form; integers are written "p/1" so output is uniform.

    A rational too large for the interpreter's int-to-text digit limit is
    refused with ``ResourceLimitError`` naming its bit size.
    """
    q = value if type(value) is Fraction else Fraction(value)
    return _write_ratio(q.numerator, q.denominator)


class _Record:
    """The base of the package's frozen records, which generate no code.

    Each record names its fields in ``_fields`` and sets them in its own
    ``__init__``; ``Interval``, held in bulk, keeps them in slots, and the
    others in a ``__dict__``. ``==`` (same class only), ``hash`` and
    ``repr`` read the fields as a frozen dataclass's do; assigning or deleting
    one raises ``dataclasses.FrozenInstanceError``, imported on that path only.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self, names: tuple[str, ...] = ()) -> str:
        """``Name(field=value!r, ...)`` over ``names`` or else the fields. A
        value holding a rational past the digit limit, itself or in a tuple,
        is refused as ``format_rational`` refuses it: ``ResourceLimitError``
        naming its bit size."""
        names = names or self._fields
        values = [getattr(self, name) for name in names]
        try:
            return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, values))})"
        except ValueError:
            for value in values:
                for x in value if isinstance(value, tuple) else (value,):
                    if isinstance(x, (int, Fraction)):
                        _check_writable(Fraction(x))
            raise

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class Interval(_Record):
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValidationError(f"interval endpoints out of order: {lo} > {hi}")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)

    def __reduce__(self):  # copy and pickle call the constructor, not the frozen ``__setattr__``
        return Interval, (self.lo, self.hi)

    def contains(self, point) -> bool:
        return self.lo <= point <= self.hi

    def length(self) -> Fraction:
        return self.hi - self.lo


def _trusted_intervals(los: list[Fraction], his: list[Fraction]) -> tuple[Interval, ...]:
    """``Interval``s from endpoints known to satisfy lo <= hi pairwise, with
    neither the coercion nor the order check of ``Interval.__init__`` and no
    Python-level call per part: each slot descriptor's ``__set__`` fills
    its field (it returns None, so ``any`` runs each pass out)."""
    parts = tuple(map(object.__new__, repeat(Interval, len(los))))
    any(map(Interval.lo.__set__, parts, los))
    any(map(Interval.hi.__set__, parts, his))
    return parts


def _trusted_fraction(num: int, den: int) -> Fraction:
    """A ``Fraction`` from ``int``s already in lowest terms with den > 0,
    built without the gcd and type checks of ``Fraction.__new__``. It sets
    the two slots ``Fraction`` keeps its value in; a test pins that layout
    against ``Fraction(num, den)``."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _over(den: int, x: Fraction) -> int:
    """The numerator of ``x`` over ``den``, which its denominator divides."""
    return x.numerator * (den // x.denominator)


def _coalesce(pairs: list[tuple[int, int]]) -> list[int]:
    """Merge sorted integer ``(lo, hi)`` pairs that overlap or touch, into
    the flat endpoint list lo, hi, lo, hi, ... that a grid holds."""
    merged: list[int] = []
    cur_lo, cur_hi = pairs[0]
    for lo, hi in pairs:
        if lo <= cur_hi:
            if hi > cur_hi:
                cur_hi = hi
        else:
            merged += (cur_lo, cur_hi)
            cur_lo, cur_hi = lo, hi
    merged += (cur_lo, cur_hi)
    return merged


class IntervalUnion(_Record):
    """Finite union of closed intervals, sorted, disjoint, maximally coalesced.

    The parts never touch: consecutive parts satisfy previous.hi < next.lo
    strictly, so any value representable as a union has exactly one
    representation. All operations are pure and return new unions.

    A union is held on one integer grid: ``_ends`` lists the endpoints
    lo_1, hi_1, lo_2, hi_2, ... as integer multiples of ``1 / _den``, with
    ``_den`` as small as those endpoints allow, so equal unions hold equal
    grids. Every operation but ``insert`` and ``covers`` (which coalesce the
    parts they read) works on those integers. The writer and the ``Interval``
    parts, built only when read and checked by no ``Fraction`` or ``Interval``
    constructor, share one lowest-terms pass, which ``complement`` hands on;
    it is kept beside the ``parts`` memo, not as a field (``_fields``).
    """

    _fields = ("_den", "_ends")
    _pairs = None  # ``_lowest_terms``' memo, set on the union by ``_setattr``
    _parts = None  # ``parts``' memo, set the same way

    def __init__(self, parts: Iterable[Interval] = ()):
        parts = tuple(parts)
        ends = [x for part in parts for x in (part.lo, part.hi)]
        den = math.lcm(*(x.denominator for x in ends))
        self._place(den, [_over(den, x) for x in ends])
        _setattr(self, "_parts", parts)  # already canonical, as just checked

    @classmethod
    def _on_grid(cls, den: int, ends: list[int]) -> "IntervalUnion":
        """The union with endpoints ``ends`` (lo, hi, lo, hi, ...) over ``den``."""
        union = object.__new__(cls)
        union._place(den, ends)
        return union

    def _place(self, den: int, ends: list[int]) -> None:
        """Validate the order of every endpoint and store the reduced grid."""
        los, his = ends[0::2], ends[1::2]
        if not all(map(operator.le, los, his)):
            lo, hi = next((lo, hi) for lo, hi in zip(los, his) if lo > hi)
            raise ValidationError(
                f"interval endpoints out of order: {Fraction(lo, den)} > {Fraction(hi, den)}"
            )
        if not all(map(operator.lt, his, los[1:])):
            i = next(i for i, (hi, lo) in enumerate(zip(his, los[1:])) if hi >= lo)
            a, b, c, d = (Fraction(x, den) for x in ends[2 * i : 2 * i + 4])
            raise ValidationError(
                f"union parts must be sorted and strictly separated: "
                f"[{a}, {b}] then [{c}, {d}]"
            )
        g = math.gcd(den, *ends)
        if g > 1:
            den //= g
            ends = [x // g for x in ends]
        _setattr(self, "_den", den)
        _setattr(self, "_ends", tuple(ends))

    def _lowest_terms(self) -> tuple[list[int], list[int]]:
        """The endpoints' lowest-terms numerators and denominators, one gcd
        each on the first read (a plain loop: a small union pays no set-up)."""
        pairs = self._pairs
        if pairs is None:
            den, gcd, nums, dens = self._den, math.gcd, [], []
            for x in self._ends:
                g = gcd(x, den)
                nums.append(x // g)
                dens.append(den // g)
            _setattr(self, "_pairs", pairs := (nums, dens))
        return pairs

    @property
    def parts(self) -> tuple[Interval, ...]:
        parts = self._parts
        if parts is None:  # ``_place`` has checked the order of every endpoint
            ends = list(map(_trusted_fraction, *self._lowest_terms()))
            _setattr(self, "_parts", parts := _trusted_intervals(ends[0::2], ends[1::2]))
        return parts

    def _written_parts(self) -> list[list[str]]:
        """Each part's endpoints written "p/q", as ``format_rational`` writes
        them, one ``[lo, hi]`` list per part as the JSON document holds it."""
        nums, dens = map(iter, pairs := self._lowest_terms())  # zipped twice: a part's lo, then its hi
        try:
            return [[f"{p}/{q}", f"{r}/{s}"] for p, q, r, s in zip(nums, dens, nums, dens)]
        except ValueError:  # every text is truthy, so ``all`` runs to the first refusal
            all(map(_write_ratio, *pairs))
            raise

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalUnion":
        """Coalesce arbitrary intervals into canonical form.

        Overlapping and abutting intervals merge; [0, 1/4] followed by
        [1/4, 1/2] becomes [0, 1/2].
        """
        items = [(iv.lo, iv.hi) for iv in intervals]
        if not items:
            return cls(())
        den = math.lcm(*(x.denominator for pair in items for x in pair))
        pairs = sorted((_over(den, lo), _over(den, hi)) for lo, hi in items)
        return cls._on_grid(den, _coalesce(pairs))

    def insert(self, interval: Interval) -> "IntervalUnion":
        """Union with one more interval: ``from_intervals`` over the parts
        and ``interval``, which re-coalesces as needed."""
        return IntervalUnion.from_intervals((*self.parts, interval))

    def complement(self, within: Interval) -> "IntervalUnion":
        """Closure of ``within`` minus this union.

        Every part must lie inside ``within``. Note the closure semantics:
        removing an isolated point leaves a union that coalesces back across
        it, so degenerate parts do not survive a complement round trip.

        The gaps are the pairs (lo, lo_1), (hi_1, lo_2), ..., (hi_n, hi)
        of ``within``'s bounds and the parts' endpoints, so the endpoint list
        framed by the bounds is already the gaps' list. Inner gaps are never
        empty, and two gaps touch only across a degenerate part, so those
        parts are dropped first and only the two end gaps can be empty.
        """
        a, b = within.lo, within.hi
        den = math.lcm(self._den, a.denominator, b.denominator)
        lo, hi = _over(den, a), _over(den, b)
        scale = den // self._den
        ends = self._ends if scale == 1 else [x * scale for x in self._ends]
        if ends and (ends[0] < lo or ends[-1] > hi):
            # parts are sorted, so the first one out of bounds is the first
            # part, or else the first part reaching past ``hi``
            i = 0 if ends[0] < lo else bisect_right(ends, hi) // 2
            raise ValidationError(
                f"union part [{Fraction(ends[2 * i], den)}, {Fraction(ends[2 * i + 1], den)}] "
                f"is not inside [{a}, {b}]"
            )
        los, his, kept = ends[0::2], ends[1::2], None
        if not all(map(operator.lt, los, his)):  # a flag per endpoint: points go, both ends
            kept = list(map(operator.lt, los, his))
            kept = list(chain.from_iterable(zip(kept, kept)))
            ends = list(compress(ends, kept))
        gaps = [lo, *ends, hi]
        cut = slice(2 if gaps[0] == gaps[1] else 0, -2 if gaps[-2] == gaps[-1] else None)
        union = IntervalUnion._on_grid(den, gaps[cut])
        if union._ends:  # lowest terms do not depend on the grid: frame and trim the pairs alike
            nums, dens = self._lowest_terms()
            if kept:
                nums, dens = compress(nums, kept), compress(dens, kept)
            framed = [a.numerator, *nums, b.numerator], [a.denominator, *dens, b.denominator]
            _setattr(union, "_pairs", (framed[0][cut], framed[1][cut]))
        return union

    def contains(self, point) -> bool:
        q = point if type(point) is Fraction else Fraction(point)
        floor, rest = divmod(q.numerator * self._den, q.denominator)
        ends = self._ends
        i = bisect_right(ends, floor)
        # odd i: the point lies in [lo, hi) of a part; even i: it is inside
        # only when it equals the hi endpoint just left of it
        return i % 2 == 1 or (i > 0 and rest == 0 and ends[i - 1] == floor)

    def covers(self, other: "IntervalUnion") -> bool:
        """True when every part of ``other`` sits inside some part of self.

        The parts of a union are strictly separated, so that holds exactly
        when ``other`` adds nothing: ``from_intervals`` over the parts of
        both is self again."""
        return IntervalUnion.from_intervals((*self.parts, *other.parts)) == self

    def total_length(self) -> Fraction:
        ends = self._ends
        return Fraction(sum(ends[1::2]) - sum(ends[0::2]), self._den)

    def __iter__(self) -> Iterator[Interval]:
        # an empty union, such as every one-piece cover's complement, sets no memo
        return iter(self.parts if self._ends else ())

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __repr__(self) -> str:
        return super().__repr__(("parts",))
