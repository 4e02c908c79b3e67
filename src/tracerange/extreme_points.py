"""Extreme sequences of the unit-anchored body and their radix words.

The admissible body consists of the non-increasing sequences that never
overshoot: each term must fit under what remains of 1 after the running
total, which is the completeness condition with slack 1 - total (settled
by the condition engine in ``representability``). Its extreme points are
exactly the unit-scale mixed-radix patterns, one per infinite radix word,
so extremality questions reduce to decoding: does this sequence equal the
pattern of some word?

Decoding peels runs. The leading term forces everything: if the rescaled
value is 1/k, the word must start with radix k and the value must repeat
exactly k - 1 times. Any deviation pins a concrete witness index where no
pattern can match. Once the cursor leaves the explicit prefix the remaining
tail is a closed form, so the decoder recognizes the pattern's own tail
outright, and every sequence is decided after at most one peel per run of
the prefix plus two.

The face embedding sends the whole body into itself: prepend radix - 1
copies of 1/radix and shrink everything by that factor. Extraction inverts
it and doubles as a shape test for membership in the face.

Mixed-radix digits are the greedy expansion's radix block step on a
scale-1 tail, one digit per block: one integer numerator over the target's
own denominator, which never exceeds radix times that denominator, so each
digit costs the same at every place value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import ONE, ZERO
from .errors import DomainError, ResourceLimitError, UnsupportedSpecError, ValidationError
from .representability import ConditionVerdict, _first_excess
from .sequences import (
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    _block_digits,
    _block_sums,
    _check_index,
    _checked_bits,
    _digit_bits,
    _radices,
    _rest,
    _term_or_none,
)

__all__ = [
    "ExtremalityReport",
    "RadixWord",
    "admissibility_check",
    "bits_to_digits",
    "digits_to_bits",
    "face_embed",
    "face_extract",
    "face_membership",
    "mixed_radix_digits",
    "radix_to_sequence",
    "sequence_to_radix",
]

MAX_DIGITS = 100_000


@dataclass(frozen=True)
class ExtremalityReport:
    """Outcome of decoding a sequence against the mixed-radix patterns.

    ``status`` is ``"extreme"`` (with the recovered word) or
    ``"non_extreme"`` (with the first index where every candidate pattern
    breaks). ``depth`` is always None: the decoder always decides, so no
    report stops at a peel budget, and the field stays so that readers of
    it keep working and report documents keep their ``"depth": null`` key.
    """

    status: str
    word: Optional[RadixWord] = None
    witness_index: Optional[int] = None
    depth: None = None

    def __post_init__(self):
        expected = {"extreme": (True, False), "non_extreme": (False, True)}
        if self.status not in expected:
            raise ValidationError(f"unknown extremality status {self.status!r}")
        has = (self.word is not None, self.witness_index is not None)
        if has != expected[self.status] or self.depth is not None:
            raise ValidationError(f"fields do not match status {self.status!r}")

    @classmethod
    def extreme(cls, word: RadixWord) -> "ExtremalityReport":
        return cls("extreme", word=word)

    @classmethod
    def non_extreme(cls, witness_index: int) -> "ExtremalityReport":
        return cls("non_extreme", witness_index=witness_index)


def admissibility_check(model: SequenceModel) -> ConditionVerdict:
    """Membership test for the unit-anchored body.

    Every term must satisfy term(n) <= 1 - partial_sum(n). A violation is
    reported at its first index with the gap (1 - partial_sum(n), term(n)).
    Tails settle in closed form, so sequences whose total exceeds 1 still
    get a finite witness.
    """
    return _first_excess(model, ONE - model.total)


def radix_to_sequence(word: RadixWord, scale=1) -> SequenceModel:
    """The mixed-radix pattern of ``word``: k_j - 1 copies of
    scale / (k_1 * ... * k_j) for each j."""
    if not isinstance(word, RadixWord):
        raise ValidationError("expected a RadixWord")
    if word.finite:
        raise UnsupportedSpecError(
            "a finite radix word does not define an infinite sequence"
        )
    return SequenceModel((), MixedRadixTail(Fraction(scale), word))


def _first_deviation(
    model: SequenceModel, start: int, count: int, value: Fraction
) -> Optional[int]:
    """Least index in [start, start + count) whose term differs from
    ``value``, or None when all of them match.

    Indices past a finite support count as deviations. Tail stretches are
    resolved without stepping term by term: the first run of
    ``_rest(model, n - 1)`` holds index n, and it either matches from n to
    its end or pins the break at n.
    """
    end = start + count
    n = start
    length = len(model.prefix)
    while n < end and n <= length:
        if model.prefix[n - 1] != value:
            return n
        n += 1
    if n >= end:
        return None
    run = next(_rest(model, n - 1).tail.runs(), None)
    if run is None or run[0] != value:
        return n
    following = n + run[1]
    return following if following < end else None


def sequence_to_radix(model: SequenceModel) -> ExtremalityReport:
    """Decode a sequence against the unit-scale mixed-radix patterns.

    Maintains the product of radices peeled so far; at each cursor position
    the rescaled term must be a unit fraction 1/k repeated exactly k - 1
    times, or no pattern matches and the position is a witness. Once the
    cursor sits in the closed-form tail, a remainder worth exactly 1 after
    rescaling closes the word.

    The loop always ends. A peel takes exactly k - 1 copies of the value at
    the cursor, and if the run is longer the next peel reads a rescaled
    value of 1 and stops, so each peel inside the prefix ends on a run
    boundary. Past the prefix at most two more peels follow. A radix
    remainder that does not close breaks within them. A geometric
    remainder's terms all differ, so each peel there is radix 2, and a
    second one needs ratio 1/2, which reads as a radix; so it breaks
    within two peels too. An empty remainder stops at once.
    """
    emitted: list[int] = []
    mult = Fraction(1)
    position = 1
    while True:
        if position > len(model.prefix):
            signature = _rest(model, position - 1).tail.as_radix()
            if signature is not None and mult * signature.scale == 1:
                word = signature.radices
                closed = RadixWord(tuple(emitted) + word.pre, word.period)
                return ExtremalityReport.extreme(closed)
        a = _term_or_none(model, position)
        if a is None:
            # every pattern needs a positive term here; the sequence ended
            return ExtremalityReport.non_extreme(position)
        v = mult * a
        if v.numerator != 1 or v.denominator < 2:
            return ExtremalityReport.non_extreme(position)
        k = v.denominator
        deviation = _first_deviation(model, position, k - 1, a)
        if deviation is not None:
            return ExtremalityReport.non_extreme(deviation)
        emitted.append(k)
        mult *= k
        position += k - 1


def face_embed(model: SequenceModel, radix: int) -> SequenceModel:
    """Send a sequence into the face of the given radix: prepend radix - 1
    copies of 1/radix, then shrink everything by that factor."""
    _check_index(radix, 2, "radix")
    lead = _term_or_none(model, 1)
    if lead is not None and lead > 1:
        raise DomainError(f"cannot embed: leading term {lead} exceeds 1")
    unit = Fraction(1, radix)
    prefix = (unit,) * (radix - 1) + tuple(x * unit for x in model.prefix)
    return SequenceModel(prefix, model.tail.scaled(unit))


def face_extract(model: SequenceModel, radix: Optional[int] = None) -> SequenceModel:
    """Invert the face embedding.

    The sequence must open with a run of exactly radix - 1 copies of
    1/radix and then drop below it; those are removed and the remainder is
    scaled back up. With ``radix`` omitted it is read off the leading term.
    Raises DomainError when the shape does not match.
    """
    first = _term_or_none(model, 1)
    if first is None:
        raise DomainError("cannot extract from an empty sequence")
    if radix is None:
        if first.numerator != 1 or first.denominator < 2:
            raise DomainError(f"leading term {first} is not a unit fraction below 1")
        radix = first.denominator
    else:
        _check_index(radix, 2, "radix")
        if first != Fraction(1, radix):
            raise DomainError(f"leading term {first} is not 1/{radix}")
    deviation = _first_deviation(model, 1, radix - 1, first)
    if deviation is not None:
        raise DomainError(
            f"leading run stops at index {deviation}, expected {radix - 1} copies of {first}"
        )
    past = _term_or_none(model, radix)
    if past == first:
        raise DomainError(f"leading run of {first} extends past {radix - 1} copies")
    rest = _rest(model, radix - 1)
    return SequenceModel(tuple(x * radix for x in rest.prefix), rest.tail.scaled(radix))


def face_membership(model: SequenceModel, radix: Optional[int] = None) -> bool:
    """Whether the sequence is the face image of an admissible sequence."""
    try:
        inner = face_extract(model, radix)
    except DomainError:
        return False
    return admissibility_check(inner).holds


def mixed_radix_digits(word: RadixWord, target, count: int) -> tuple[int, ...]:
    """First ``count`` digits of ``target`` in the mixed-radix system of
    ``word``: digit n has place value 1 / (k_1 * ... * k_n).

    Digits are chosen greedily (largest digit that still fits), which matches
    the bit expansion of the word's pattern grouped block by block. Exact
    place-value boundaries round toward the terminating expansion, and 1
    itself comes out as all k - 1 digits. A ``count`` above ``MAX_DIGITS``
    is refused before any digit is computed.
    """
    _check_index(count, 0, "count")
    if count > MAX_DIGITS:
        raise ResourceLimitError(f"{count} digits exceed the bound of {MAX_DIGITS}")
    if not isinstance(word, RadixWord):
        raise ValidationError("expected a RadixWord")
    residual = Fraction(target)
    if not ZERO <= residual <= ONE:
        raise DomainError(f"target {residual} outside [0, 1]")
    # the greedy's block step on a scale-1 tail, one digit per block; a
    # radix pattern meets the completeness condition, so the check holds
    digits, _ = _block_digits(residual.numerator, residual.denominator, word.entries(count), True)
    return tuple(digits)


def bits_to_digits(bits, word: RadixWord) -> tuple[int, ...]:
    """Group a bit expansion of the word's pattern into digits.

    Block n of the pattern holds k_n - 1 equal terms, so the digit is simply
    how many of them the bits take. A trailing partial block still yields a
    digit.
    """
    return tuple(_block_sums(_checked_bits(bits), _radices(word)))


def digits_to_bits(digits, word: RadixWord) -> tuple[int, ...]:
    """Expand digits back into pattern bits, ones first inside each block,
    matching what the greedy expansion produces."""
    digits = tuple(digits)
    for d, k in zip(digits, _radices(word)):
        if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d <= k - 1:
            raise ValidationError(f"digit {d!r} out of range for radix {k}")
    return tuple(_digit_bits(digits, word.iter_entries()))
