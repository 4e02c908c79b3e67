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
the prefix plus two. A peel reads one run of the whole model
(``_term_runs``, which reads a prefix run that goes on into the tail as
one), not its terms, so it costs the same however many copies it holds.

The face embedding sends the whole body into itself: prepend radix - 1
copies of 1/radix and shrink everything by that factor. Both it and the
extraction that inverts it work on the model's runs, one run prepended or
removed and one multiply per run; extraction reads the leading run's
length off the same stream and doubles as a shape test for membership in
the face.

Mixed-radix digits are the greedy expansion's radix block step on a
scale-1 tail, one digit per block: one integer numerator over the target's
own denominator, which never exceeds radix times that denominator, so each
digit costs the same at every place value.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .core import ONE, _Record, _check_ceiling, _trusted_fraction
from .errors import DomainError, UnsupportedSpecError, ValidationError
from .sequences import (
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    _block_digits,
    _block_ones,
    _check_index,
    _checked_bits,
    _digit_bits,
    _from_runs,
    _radices,
    _rest,
    _scaled_runs,
    _term_runs,
)

if TYPE_CHECKING:  # read only in an annotation, so the condition engine is not loaded
    from .representability import ConditionVerdict

# the package: the condition engine is read through it (``_engines.representability``)
# by the membership test when it runs, so ``digits`` and ``extreme encode`` never load it
_engines = sys.modules[__package__]


class ExtremalityReport(_Record):
    """Outcome of decoding a sequence against the mixed-radix patterns.

    ``status`` is ``"extreme"`` (with the recovered word) or
    ``"non_extreme"`` (with the first index where every candidate pattern
    breaks). ``depth`` is always None: the decoder always decides, so no
    report stops at a peel budget, and the field stays so that readers of
    it keep working and report documents keep their ``"depth": null`` key.
    """

    _fields = ("status", "word", "witness_index", "depth")

    def __init__(
        self, status: str, word: Optional[RadixWord] = None, witness_index: Optional[int] = None, depth: None = None
    ):
        expected = {"extreme": (True, False), "non_extreme": (False, True)}
        if status not in expected:
            raise ValidationError(f"unknown extremality status {status!r}")
        if (word is not None, witness_index is not None) != expected[status] or depth is not None:
            raise ValidationError(f"fields do not match status {status!r}")
        self.__dict__.update(status=status, word=word, witness_index=witness_index, depth=depth)

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
    return _engines.representability._least_violation(model, ONE - model.total)


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


def sequence_to_radix(model: SequenceModel) -> ExtremalityReport:
    """Decode a sequence against the unit-scale mixed-radix patterns.

    Maintains the product of radices peeled so far and makes one peel per
    run of the model (``_term_runs``): rescaled, the run's value must be a
    unit fraction 1/k held exactly k - 1 times, or no pattern matches. The
    witness is the run's start for a wrong value, the first index past k - 1
    copies or past the run for a wrong count, and the end of a stream that
    ends. Once the cursor sits in the closed-form tail, a remainder worth
    exactly 1 after rescaling closes the word.

    The loop always ends, after one run per run of the prefix plus two (its
    last run may go on into the tail). Past the prefix, a radix remainder
    that does not close breaks on its first run, whose whole block would
    close it. A geometric remainder's runs are single terms, so each peel
    there is radix 2, and a second one needs ratio 1/2, which reads as a
    radix; so it breaks on its second run. An empty remainder stops at once.
    """
    emitted: list[int] = []
    mult = 1
    position = 1
    runs = _term_runs(model)
    while True:
        if position > model._length:
            cut = position - 1 - model._length  # tail terms peeled so far
            signature = model.tail.rest(cut).as_radix()
            # the remainder, rescaled by mult, is worth exactly 1
            if signature is not None and (signature.scale.numerator, signature.scale.denominator) == (1, mult):
                word = signature.radices
                closed = RadixWord(tuple(emitted) + word.pre, word.period)
                return ExtremalityReport.extreme(closed)
        run = next(runs, None)
        if run is None:
            # every pattern needs a positive term here; the sequence ended
            return ExtremalityReport.non_extreme(position)
        a, count = run
        # a in lowest terms rescales to 1/k exactly when a = 1/(mult * k)
        k, off = divmod(a.denominator, mult)
        if a.numerator != 1 or off or k < 2:
            return ExtremalityReport.non_extreme(position)
        if count != k - 1:
            return ExtremalityReport.non_extreme(position + min(count, k - 1))
        emitted.append(k)
        mult *= k
        position += count


def face_embed(model: SequenceModel, radix: int) -> SequenceModel:
    """Send a sequence into the face of the given radix: prepend radix - 1
    copies of 1/radix, then shrink everything by that factor."""
    _check_index(radix, 2, "radix")
    lead = next(_term_runs(model), None)
    if lead is not None and lead[0].numerator > lead[0].denominator:
        raise DomainError(f"cannot embed: leading term {lead[0]} exceeds 1")
    unit = _trusted_fraction(1, radix)
    return _from_runs([(unit, radix - 1)] + _scaled_runs(model._runs, unit), model.tail.scaled(unit))


def face_extract(model: SequenceModel, radix: Optional[int] = None) -> SequenceModel:
    """Invert the face embedding.

    The sequence must open with a run of exactly radix - 1 copies of
    1/radix and then drop below it; those are removed and the remainder is
    scaled back up. With ``radix`` omitted it is read off the leading term.
    Raises DomainError when the shape does not match.
    """
    lead = next(_term_runs(model), None)
    if lead is None:
        raise DomainError("cannot extract from an empty sequence")
    first, count = lead
    if radix is None:
        if first.numerator != 1 or first.denominator < 2:
            raise DomainError(f"leading term {first} is not a unit fraction below 1")
        radix = first.denominator
    else:
        _check_index(radix, 2, "radix")
        if first != Fraction(1, radix):
            raise DomainError(f"leading term {first} is not 1/{radix}")
    if count < radix - 1:
        raise DomainError(
            f"leading run stops at index {count + 1}, expected {radix - 1} copies of {first}"
        )
    if count > radix - 1:
        raise DomainError(f"leading run of {first} extends past {radix - 1} copies")
    rest = _rest(model, radix - 1)
    return _from_runs(_scaled_runs(rest._runs, Fraction(radix)), rest.tail.scaled(radix))


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
    itself comes out as all k - 1 digits. A ``count`` past the digits
    ceiling of ``core._CEILINGS`` (100,000) is refused before any digit is
    computed.
    """
    _check_index(count, 0, "count")
    _check_ceiling("digits", count)
    if not isinstance(word, RadixWord):
        raise ValidationError("expected a RadixWord")
    residual = target if type(target) is Fraction else Fraction(target)
    if not 0 <= residual.numerator <= residual.denominator:
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
    return tuple(_block_ones(_checked_bits(bits), map((-1).__add__, _radices(word))))


def digits_to_bits(digits, word: RadixWord) -> tuple[int, ...]:
    """Expand digits back into pattern bits, ones first inside each block,
    matching what the greedy expansion produces."""
    digits = tuple(digits)
    for d, k in zip(digits, _radices(word)):
        if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d <= k - 1:
            raise ValidationError(f"digit {d!r} out of range for radix {k}")
    return tuple(_digit_bits(digits, word.iter_entries()))
