"""Exact scalars, closed intervals, size bounds and writing.

Scalars are Python ``Fraction``s (arbitrary precision, lowest terms,
positive denominator), and an ``Interval`` is a closed interval of two of
them. Unions of intervals, held on one integer grid, live with the cover
fold that builds them, in ``range_geometry``; they read ``Interval``,
``_trusted_fraction`` and the writer from here. Nothing in this module, or
anywhere else in the library, rounds; the single lossy surface of the
package is coordinate formatting in the SVG renderer.

Every size refusal of the package is made here, before the work it bounds:
``_check_ceiling`` refuses a count past its row of ``_CEILINGS`` (subset-sum
terms, cover pieces, mixed-radix digits, merged atoms, the entries of an
answer that lists one per unit of a count, and the option strings of a
command line that argparse reads), and
``_check_writable`` refuses a rational past the interpreter's int-to-text
digit limit before any text of it is built. ``format_rational`` writes one
rational, and ``_written`` several: it checks each as it reads it and
builds the text only once every one has passed.

Sums, closed forms and order tests on a request's path are made on integer
numerators and denominators, not through ``Fraction``'s operators, and each
answer value is built once, in lowest terms, by ``_trusted_fraction``:
``_reduced`` reduces a quotient with one gcd, ``_plus`` adds a rational to a
quotient of integers and ``_product`` multiplies one by a quotient in
lowest terms, each with gcds of its operands' sizes and none of the
answer's, and an order test is one integer cross product.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Iterable

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
        return _trusted_fraction(num, 1)
    den = _read_int(den_text, malformed, position)
    if den == 0:
        raise ValidationError("denominator must be nonzero")
    return _reduced(num, den) if den > 0 else _reduced(-num, -den)


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


# one row per size ceiling: the largest count allowed, and its refusal's text
_CEILINGS = {
    "terms": (24, "{count} terms exceed the subset-sum bound of {ceiling}"),
    "pieces": (2**16, "the cover fold reaches {count} pieces, past the bound of {ceiling}"),
    "digits": (100_000, "{count} digits exceed the bound of {ceiling}"),
    "atoms": (100_000, "the merged prefix reaches {count} atoms, past the bound of {ceiling}"),
    # an answer that lists one entry per unit of a count: expansion bits,
    # listed terms and the rationals ``_written`` writes
    "entries": (1_000_000, "{count} listed entries exceed the bound of {ceiling}"),
    # argparse searches for the next option string once per option, so its
    # parse is quadratic in their count (5,000 take about 0.7 s on a 2-CPU x86-64 VM)
    "options": (5_000, "{count} arguments starting with '-' exceed the bound of {ceiling}"),
}


def _check_ceiling(row: str, count: int, doublings: bool = False) -> int:
    """Refuse ``count`` past the ceiling of row ``row`` with its text as a
    ``ResourceLimitError``, else return the room left below the ceiling
    (read for a plain count only). With ``doublings`` the count is 2**count,
    never built: it passes the ceiling just when count reaches its bit length."""
    ceiling, text = _CEILINGS[row]
    if count >= ceiling.bit_length() if doublings else count > ceiling:
        raise ResourceLimitError(text.format(count=f"2^{count}" if doublings else count, ceiling=ceiling))
    return ceiling - count


@cache
def _ten_to(limit: int) -> int:
    return 10**limit


def _check_writable(q: Fraction) -> Fraction:
    """``q`` (a ``Fraction`` or an ``int``), once it is known that
    ``format_rational`` can write it; else a ``ResourceLimitError`` naming its
    bit size. This is the package's one test of a rational too large for
    the interpreter's int-to-text digit limit, asked before any text of it
    is built.

    An integer fails to write when it has more than ``limit`` digits, that
    is when its magnitude reaches 10**limit. One of at most 3 * limit bits
    is below 8**limit and always fits, so only larger ones are compared.
    """
    limit, num, den = _digit_limit(), q.numerator, q.denominator
    bits = max(num.bit_length(), den.bit_length())
    if limit and bits > 3 * limit and (abs(num) >= _ten_to(limit) or den >= _ten_to(limit)):
        raise ResourceLimitError(f"output rational too large to write: {bits} bits")
    return q


def format_rational(value) -> str:
    """Canonical "p/q" form; integers are written "p/1" so output is uniform.

    A rational too large for the interpreter's int-to-text digit limit is
    refused with ``ResourceLimitError`` naming its bit size (``_check_writable``).
    """
    q = _check_writable(value if type(value) is Fraction else Fraction(value))
    return f"{q.numerator}/{q.denominator}"


def _written(values: Iterable) -> list[str]:
    """Each rational of ``values`` written "p/q" as ``format_rational`` does;
    each is checked as it is read, so the first too large stops the reading,
    and no text is built until every value has passed. One value past the
    entries ceiling is the last read, and refuses them all by the count read."""
    read = list(map(_check_writable, islice(values, _CEILINGS["entries"][0] + 1)))
    _check_ceiling("entries", len(read))
    return [f"{q.numerator}/{q.denominator}" for q in read]


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
        value holding a rational past the digit limit, itself or in a tuple
        or a tuple's tuple (a model's runs of value and count), is refused by
        ``_check_writable`` before any text is built, as ``format_rational``
        refuses it."""
        names = names or self._fields
        values = [getattr(self, name) for name in names]
        for value in values:
            for x in value if isinstance(value, tuple) else (value,):
                for y in x if isinstance(x, tuple) else (x,):
                    if isinstance(y, (int, Fraction)):
                        _check_writable(y)
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, values))})"

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
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValidationError(f"interval endpoints out of order: {lo} > {hi}")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)

    def __reduce__(self):  # copy and pickle call the constructor, not the frozen ``__setattr__``
        return Interval, (self.lo, self.hi)

    def contains(self, point) -> bool:
        return self.lo <= point <= self.hi

    def length(self) -> Fraction:
        return self.hi - self.lo


def _trusted_fraction(num: int, den: int) -> Fraction:
    """A ``Fraction`` from ``int``s already in lowest terms with den > 0,
    built without the gcd and type checks of ``Fraction.__new__``. It sets
    the two slots ``Fraction`` keeps its value in; a test pins that layout
    against ``Fraction(num, den)``."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _reduced(num: int, den: int) -> Fraction:
    """num/den, for den > 0, in lowest terms with one gcd."""
    g = math.gcd(num, den)
    return _trusted_fraction(num // g, den // g)


def _plus(num: int, den: int, q: Fraction) -> Fraction:
    """num/den + q, for den > 0, in lowest terms; q itself when num is 0.

    num/den is reduced first. With both in lowest terms and g the gcd of
    their denominators, the sum over the lcm can cancel only factors of g
    (Knuth, TAOCP vol. 2, 4.5.1), so no gcd is taken of the sum's own size:
    a huge q beside a small num/den costs no more than a pass over q.
    """
    if not num:
        return q
    g = math.gcd(num, den)
    num, den = num // g, den // g
    n, d = q.numerator, q.denominator
    g = math.gcd(den, d)
    if g == 1:
        return _trusted_fraction(num * d + n * den, den * d)
    s = den // g
    t = num * (d // g) + n * s
    h = math.gcd(t, g)
    return _trusted_fraction(t // h, s * (d // h))


def _product(x: Fraction, num: int, den: int) -> Fraction:
    """x * num/den, for num/den in lowest terms with den > 0: only the cross
    gcds, of x's numerator with den and of num with x's denominator, can
    cancel, so the product is built reduced without a gcd of its own size."""
    a, b = x.numerator, x.denominator
    g, h = math.gcd(a, den), math.gcd(num, b)
    return _trusted_fraction(a // g * (num // h), b // h * (den // g))
