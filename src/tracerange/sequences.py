"""Positive non-increasing sequences with exactly computable tails.

A :class:`SequenceModel` is a finite explicit prefix followed by a closed-form
tail. Three tail families cover everything the package works with:

* ``ZeroTail``: nothing after the prefix (finite sequences);
* ``GeometricTail(first, ratio)``: first, first*ratio, first*ratio^2, ...;
* ``MixedRadixTail(scale, radices)``: for a word (k_1, k_2, ...) of integer
  radices (each at least 2), block j consists of k_j - 1 copies of
  scale / (k_1 * ... * k_j). Partial sums telescope: after block j the tail
  still holds exactly scale / (k_1 * ... * k_j).

These closed forms make every term, partial sum, and tail sum an exact
rational, so downstream decisions (condition checks, expansions, range
approximations) are never numeric estimates.

Deep radix indices are found by one integer walk that skips whole periods
(``_walk``), and loops over many terms read them as integer numerators over
one common denominator (``_integer_terms``), building ``Fraction``s once.
The term stream (``iter_terms``, ``first_terms``) steps reduced
``(num, den)`` pairs and builds each term once, through
``core._trusted_fraction``: a geometric step cancels only gcd(num, q) and
gcd(p, den) for ratio p/q, which stay 1 after the first few terms, and a
radix block cancels only gcd(num, k) for its radix k.
The terms after an index are one closed form, ``_rest(model, count)``,
which builds none of the terms before it; splits, suffix comparison, faces
and the algebra merge all read it.

The module also models a finite atomic von Neumann algebra with a faithful
normal tracial state as an :class:`AlgebraSpec`: matrix factors contribute
equal atoms weight/dim, an optional abelian tail contributes one atom per
term, and :func:`from_algebra` merges everything into a single non-increasing
sequence model.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .core import ZERO, _trusted_fraction
from .errors import (
    DomainError,
    OutOfSupportError,
    UnsupportedSpecError,
    ValidationError,
)

# from_algebra walks tail terms until they drop below the smallest finite
# atom; the geometric and radix families always get there, this just bounds
# the walk against absurd inputs.
_REANCHOR_LIMIT = 1_000_000


def _check_index(n, minimum: int, label: str = "index") -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{label} must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"{label} must be at least {minimum}, got {n}")
    return n


def _primitive_period(period: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word whose repetition reproduces ``period``."""
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class RadixWord:
    """An eventually periodic word of integer radices, all at least 2.

    ``pre`` is the aperiodic head, ``period`` repeats forever afterwards.
    An empty period means the word is finite. Construction canonicalizes:
    the period is reduced to its primitive root, and any pre suffix that
    merely restates the period is absorbed into a rotation, so two words
    denoting the same radix stream compare equal.
    """

    pre: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        pre = tuple(self.pre)
        period = tuple(self.period)
        for k in pre + period:
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValidationError(f"radix entries must be integers, got {k!r}")
            if k < 2:
                raise ValidationError(f"radix entries must be at least 2, got {k}")
        if period:
            period = _primitive_period(period)
            while pre and pre[-1] == period[-1]:
                pre = pre[:-1]
                period = (period[-1],) + period[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    @property
    def finite(self) -> bool:
        return not self.period

    def entries(self, count: int) -> tuple[int, ...]:
        _check_index(count, 0, "count")
        return tuple(itertools.islice(_radices(self), count))

    def iter_entries(self) -> Iterator[int]:
        yield from self.pre
        if self.period:
            while True:
                yield from self.period

    def shift(self, count: int) -> "RadixWord":
        """Drop the first ``count`` entries."""
        _check_index(count, 0, "count")
        if count <= len(self.pre):
            return RadixWord(self.pre[count:], self.period)
        if self.finite:
            raise OutOfSupportError(count, len(self.pre))
        offset = (count - len(self.pre)) % len(self.period)
        return RadixWord((), self.period[offset:] + self.period[:offset])


def _radices(word: RadixWord) -> Iterator[int]:
    """The entries of ``word`` in order; reading past the end of a finite
    word raises OutOfSupportError."""
    yield from word.iter_entries()
    raise OutOfSupportError(len(word.pre) + 1, len(word.pre))


@dataclass(frozen=True)
class ZeroTail:
    """No terms after the prefix."""

    @property
    def total(self) -> Fraction:
        return ZERO


@dataclass(frozen=True)
class GeometricTail:
    first: Fraction
    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "first", Fraction(self.first))
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.first <= 0:
            raise ValidationError(f"geometric first term must be positive, got {self.first}")
        if not (0 < self.ratio < 1):
            raise ValidationError(f"geometric ratio outside (0, 1): {self.ratio}")

    @cached_property
    def total(self) -> Fraction:
        return self.first / (1 - self.ratio)

    def term(self, j: int) -> Fraction:
        return self.first * self.ratio ** (j - 1)

    def shifted(self, count: int) -> "GeometricTail":
        return GeometricTail(self.first * self.ratio**count, self.ratio)


@dataclass(frozen=True)
class MixedRadixTail:
    scale: Fraction
    radices: RadixWord

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise ValidationError(f"radix tail scale must be positive, got {self.scale}")
        if not isinstance(self.radices, RadixWord):
            raise ValidationError("radices must be a RadixWord")
        if self.radices.finite:
            raise ValidationError("a radix tail needs an infinite word (nonempty period)")

    @property
    def total(self) -> Fraction:
        return self.scale

    def blocks(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (value, multiplicity) per block, forever.

        Each block divides the reduced value by its radix k, so only
        gcd(num, k) can cancel; the value stays in lowest terms without a
        gcd against the growing denominator."""
        num, den = self.scale.numerator, self.scale.denominator
        for k in self.radices.iter_entries():
            g = math.gcd(num, k)
            num //= g
            den *= k // g
            yield _trusted_fraction(num, den), k - 1

    def term(self, j: int) -> Fraction:
        return self.scale / _walk(self, j)[2]


def _walk(tail: MixedRadixTail, j: int) -> tuple[int, int, int, int]:
    """Where local slot j of a radix tail sits: (blocks before its block,
    its offset in that block counted from 1, the product of the radices
    through that block, its radix).

    All whole periods but the last are skipped with one power of the
    period's product, so the walk visits at most |pre| + |period| blocks.
    """
    word = tail.radices
    span = sum(k - 1 for k in word.period)
    reps = max(0, (j - sum(k - 1 for k in word.pre) - 1) // span)
    j -= reps * span
    blocks, prod = reps * len(word.period), math.prod(word.period) ** reps
    for k in word.iter_entries():
        if j < k:
            return blocks, j, prod * k, k
        j -= k - 1
        blocks += 1
        prod *= k


TailModel = Union[ZeroTail, GeometricTail, MixedRadixTail]


def _geometric_runs(tail: GeometricTail) -> Iterator[Iterator[Fraction]]:
    """The terms first * ratio^k on reduced (num, den) pairs, as runs.

    With first = a/b and ratio = p/q in lowest terms, the next term
    a*p / b*q cancels only gcd(a, q) * gcd(p, b). Once both gcds are 1 they
    stay 1, so the cancelling steps come one term at a time, at most about
    as many as the bits of a*b, and the rest is one run of two integer
    products with no gcd at all.
    """
    a, b = tail.first.numerator, tail.first.denominator
    p, q = tail.ratio.numerator, tail.ratio.denominator
    while True:
        g, h = math.gcd(a, q), math.gcd(p, b)
        if g == h == 1:
            nums = itertools.accumulate(itertools.repeat(p), operator.mul, initial=a)
            dens = itertools.accumulate(itertools.repeat(q), operator.mul, initial=b)
            yield map(_trusted_fraction, nums, dens)
            return
        yield (_trusted_fraction(a, b),)
        a, b = a // g * (p // h), b // h * (q // g)


def _iter_tail_terms(tail: TailModel) -> Iterator[Fraction]:
    """The tail's terms in order, each built once from a reduced pair."""
    if isinstance(tail, ZeroTail):
        return iter(())
    if isinstance(tail, GeometricTail):
        return itertools.chain.from_iterable(_geometric_runs(tail))
    return itertools.chain.from_iterable(itertools.starmap(itertools.repeat, tail.blocks()))


def _scale_tail(tail: TailModel, factor: Fraction) -> TailModel:
    if isinstance(tail, ZeroTail):
        return tail
    if isinstance(tail, GeometricTail):
        return GeometricTail(tail.first * factor, tail.ratio)
    return MixedRadixTail(tail.scale * factor, tail.radices)


@dataclass(frozen=True)
class SequenceModel:
    """Explicit prefix plus closed-form tail, validated on construction."""

    prefix: tuple[Fraction, ...] = ()
    tail: TailModel = ZeroTail()

    def __post_init__(self):
        prefix = tuple(Fraction(x) for x in self.prefix)
        for x in prefix:
            if x <= 0:
                raise ValidationError(f"sequence entries must be positive, got {x}")
        for a, b in zip(prefix, prefix[1:]):
            if a < b:
                raise ValidationError(f"prefix is not non-increasing: {a} before {b}")
        if not isinstance(self.tail, (ZeroTail, GeometricTail, MixedRadixTail)):
            raise ValidationError("tail must be a ZeroTail, GeometricTail, or MixedRadixTail")
        if prefix and not isinstance(self.tail, ZeroTail) and prefix[-1] < self.tail.term(1):
            raise ValidationError(
                f"junction violation: last prefix entry {prefix[-1]} is below "
                f"the first tail term {self.tail.term(1)}"
            )
        object.__setattr__(self, "prefix", prefix)

    @cached_property
    def total(self) -> Fraction:
        return sum(self.prefix, ZERO) + self.tail.total

    @property
    def finite(self) -> bool:
        return isinstance(self.tail, ZeroTail)

    @property
    def support(self) -> Optional[int]:
        """Number of terms, or None when the sequence is infinite."""
        return len(self.prefix) if self.finite else None

    @cached_property
    def _prefix_suffix_sums(self) -> tuple[Fraction, ...]:
        sums = [ZERO]
        for x in reversed(self.prefix):
            sums.append(sums[-1] + x)
        return tuple(reversed(sums))

    def term(self, n: int) -> Fraction:
        """1-based term access; finite models raise past their support."""
        _check_index(n, 1)
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.finite:
            raise OutOfSupportError(n, len(self.prefix))
        return self.tail.term(n - len(self.prefix))

    def iter_terms(self) -> Iterator[Fraction]:
        return itertools.chain(self.prefix, _iter_tail_terms(self.tail))

    def first_terms(self, count: int) -> tuple[Fraction, ...]:
        _check_index(count, 0, "count")
        terms = tuple(itertools.islice(self.iter_terms(), count))
        if len(terms) < count:
            raise OutOfSupportError(count, len(self.prefix))
        return terms

    def tail_sum(self, n: int) -> Fraction:
        """Exact sum of all terms with index strictly greater than n."""
        _check_index(n, 0)
        if n <= len(self.prefix):
            return self._prefix_suffix_sums[n] + self.tail.total
        if self.finite:
            return ZERO
        j, tail = n - len(self.prefix), self.tail
        if isinstance(tail, GeometricTail):
            return tail.total * tail.ratio**j
        # slot ``offset`` of a block worth scale / prod each leaves k - offset
        _, offset, prod, k = _walk(tail, j)
        return tail.scale * Fraction(k - offset, prod)

    def partial_sum(self, n: int) -> Fraction:
        """Exact sum of the first n terms."""
        return self.total - self.tail_sum(n)


def make_model(prefix: Sequence, tail: Optional[TailModel] = None) -> SequenceModel:
    """Validated constructor; ``tail`` defaults to a ZeroTail."""
    return SequenceModel(tuple(prefix), tail if tail is not None else ZeroTail())


def _integer_terms(model: SequenceModel, count: int, other_den: int) -> tuple[int, int, Iterator[int]]:
    """``(den, total_num, numerators)``: the first ``count`` terms (fewer
    past a finite support), ``model.total`` and ``1 / other_den`` over one
    denominator. The numerators come lazily, since each is about as long as
    ``den`` and a list of them would take memory quadratic in ``count``.
    """
    prefix = model.prefix[:count]
    extra = count - len(prefix)
    tail, total = model.tail, model.total
    dens = [x.denominator for x in prefix]
    if extra and isinstance(tail, GeometricTail):
        dens.append(tail.first.denominator * tail.ratio.denominator ** (extra - 1))
    elif extra and isinstance(tail, MixedRadixTail):
        dens.append(tail.scale.denominator * _walk(tail, extra)[2])
    den = math.lcm(other_den, total.denominator, *dens)

    def numerators() -> Iterator[int]:
        for x in prefix:
            yield x.numerator * (den // x.denominator)
        if isinstance(tail, GeometricTail):
            a = tail.first.numerator * (den // tail.first.denominator)
            p, q = tail.ratio.numerator, tail.ratio.denominator
            while True:
                yield a
                a = a // q * p
        elif isinstance(tail, MixedRadixTail):
            v = tail.scale.numerator * (den // tail.scale.denominator)
            for k in tail.radices.iter_entries():
                v //= k
                yield from itertools.repeat(v, k - 1)

    return den, total.numerator * (den // total.denominator), itertools.islice(numerators(), count)


def _rest(model: SequenceModel, count: int) -> SequenceModel:
    """The terms after the first ``count``, as a closed form that builds
    none of those ``count`` terms.

    A cut inside the prefix keeps the rest of it; a geometric tail is
    shifted; a radix tail cut inside a block folds the block's ``left``
    unused slots into one leading block of radix ``left + 1``, so the
    remainder of a cut tail never has a prefix. A cut past a finite support
    raises OutOfSupportError.
    """
    prefix, tail = model.prefix, model.tail
    if count <= len(prefix):
        return SequenceModel(prefix[count:], tail)
    if isinstance(tail, ZeroTail):
        raise OutOfSupportError(count, len(prefix))
    j = count - len(prefix)
    if isinstance(tail, GeometricTail):
        return SequenceModel((), tail.shifted(j))
    blocks, offset, prod, k = _walk(tail, j)
    left = k - 1 - offset
    word = tail.radices.shift(blocks + 1)
    if left:
        word = RadixWord((left + 1,) + word.pre, word.period)
    return SequenceModel((), MixedRadixTail((left + 1) * tail.scale / prod, word))


def split_leading(model: SequenceModel, count: int) -> tuple[tuple[Fraction, ...], SequenceModel]:
    """First ``count`` terms plus ``_rest(model, count)``, the model of
    everything after them.

    A radix block cut by the split comes back folded into the leading block
    of the remainder's word rather than as explicit terms. Concatenating the
    two pieces reproduces the original sequence term for term.
    """
    return model.first_terms(count), _rest(model, count)


def _term_or_none(model: SequenceModel, n: int) -> Optional[Fraction]:
    try:
        return model.term(n)
    except OutOfSupportError:
        return None


def _suffix_signature(model: SequenceModel, start: int) -> TailModel:
    """Canonical tail of the terms past position ``start``.

    Only meaningful for start >= len(prefix). It is the tail of
    ``_rest(model, start)``, with a geometric tail of ratio 1/2 read as the
    all-2 word, so two models with the same term stream get equal
    signatures.
    """
    if model.finite:
        return model.tail
    tail = _rest(model, start).tail
    if isinstance(tail, GeometricTail) and tail.ratio == Fraction(1, 2):
        return MixedRadixTail(2 * tail.first, RadixWord((), (2,)))
    return tail


def same_sequence(a: SequenceModel, b: SequenceModel) -> bool:
    """Exact equality of the term streams, regardless of representation.

    Decidable because tails are closed forms: compare terms through both
    explicit prefixes, then compare canonical signatures of the suffixes.
    """
    head = max(len(a.prefix), len(b.prefix))
    for n in range(1, head + 1):
        if _term_or_none(a, n) != _term_or_none(b, n):
            return False
    return _suffix_signature(a, head) == _suffix_signature(b, head)


@dataclass(frozen=True)
class MatrixFactor:
    """A dim x dim matrix block carrying ``weight`` of the trace."""

    dim: int
    weight: Fraction

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValidationError(f"factor dimension must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight <= 0:
            raise ValidationError(f"factor weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class AlgebraSpec:
    """Finite atomic tracial algebra: matrix factors plus an optional abelian tail.

    The trace is a state, so factor weights and the tail total must sum to 1
    exactly.
    """

    factors: tuple[MatrixFactor, ...] = ()
    abelian_tail: Optional[TailModel] = None

    def __post_init__(self):
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, MatrixFactor):
                raise ValidationError("factors must be MatrixFactor instances")
        tail_total = self.abelian_tail.total if self.abelian_tail is not None else ZERO
        total = sum((f.weight for f in factors), ZERO) + tail_total
        if total != 1:
            raise ValidationError(f"factor weights and tail must sum to 1, got {total}")
        object.__setattr__(self, "factors", factors)


def from_algebra(spec: AlgebraSpec) -> SequenceModel:
    """Atom traces of the algebra, merged into one non-increasing model.

    Each factor (dim, weight) contributes dim atoms of weight/dim; the
    abelian tail contributes one atom per term. Tail terms at least as large
    as the smallest finite atom move into the explicit prefix so the merged
    sequence stays monotone, and the tail is re-anchored after them.
    """
    atoms: list[Fraction] = []
    for f in spec.factors:
        atoms.extend([f.weight / f.dim] * f.dim)
    tail = spec.abelian_tail if spec.abelian_tail is not None else ZeroTail()
    if not atoms:
        return SequenceModel((), tail)
    if isinstance(tail, ZeroTail):
        return SequenceModel(tuple(sorted(atoms, reverse=True)), ZeroTail())
    a_min = min(atoms)
    moved = 0
    # (value, multiplicity) runs: radix blocks, or geometric terms one by one
    if isinstance(tail, MixedRadixTail):
        runs = tail.blocks()
    else:
        runs = zip(_iter_tail_terms(tail), itertools.repeat(1))
    for value, size in runs:
        if value < a_min:
            break
        moved += size
        if moved > _REANCHOR_LIMIT:
            raise UnsupportedSpecError(
                "cannot re-anchor: tail terms stay above the smallest atom too long"
            )
    lead = SequenceModel((), tail)
    merged = tuple(sorted(atoms + list(lead.first_terms(moved)), reverse=True))
    return SequenceModel(merged, _rest(lead, moved).tail)
