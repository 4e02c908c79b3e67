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
approximations) are never numeric estimates. Each family owns its closed
forms as one method set, so no caller tests a tail's type: ``terms()``,
``runs()`` of (value, multiplicity), ``sum_after(j)``, ``rest(j)`` (the
terms after local index j), ``scaled(f)``, ``excesses(sigma)`` (the
condition engine's tail indices) with ``first_excess(sigma)`` (the first of
them, index only), ``as_radix()`` (None unless the terms form a
radix pattern), and ``numeral(bits)`` (the sum a 0/1 vector selects); the
two endless families add ``greedy(num, den, count, certified)``, the greedy
rule's run of steps.
``terms()`` builds each term once from a reduced ``(num, den)`` pair: a
geometric step cancels only gcd(num, q) and gcd(p, den) for ratio p/q, and
a radix block only gcd(num, k) for its radix k. ``greedy`` steps the
residual in units of the current term, so its integers grow with the
ratio's numerator, not with the common denominator of the terms.

Private helpers: ``_walk`` finds a deep radix slot by skipping whole
periods; ``_block_digits`` is the greedy's step over whole radix blocks and
``_digit_bits`` spells its digits out as bits, which ``_block_sums`` groups
back into ones per block; ``_checked_bits`` is the one check of a 0/1
vector; ``_rest(model, count)`` is the closed form of the terms after an
index; ``_checked_tail`` is the one check that a value is a tail.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .core import ZERO, _trusted_fraction
from .errors import (
    DomainError,
    OutOfSupportError,
    ResourceLimitError,
    ValidationError,
)

# from_algebra's merged prefix holds the factor atoms and the tail terms
# re-anchored among them; the re-anchor walk stops once they pass this many,
# and the merge is then refused before any atom is built.
MAX_ATOMS = 100_000


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
        return itertools.chain(self.pre, itertools.cycle(self.period))

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
    """No terms after the prefix: each method answers for the empty stream."""

    @property
    def total(self) -> Fraction:
        return ZERO

    def terms(self) -> Iterator[Fraction]:
        return iter(())

    def runs(self) -> Iterator[tuple[Fraction, int]]:
        return iter(())

    def sum_after(self, j: int) -> Fraction:
        return ZERO

    def rest(self, j: int) -> "ZeroTail":
        return self

    def scaled(self, factor: Fraction) -> "ZeroTail":
        return self

    def excesses(self, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
        return iter(())

    def first_excess(self, sigma) -> Optional[int]:
        return None

    def as_radix(self) -> Optional["MixedRadixTail"]:
        return None

    def numeral(self, bits: tuple[int, ...]) -> Fraction:
        # a checked vector holds no set bit past the support
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

    def _chunks(self) -> Iterator[Iterator[Fraction]]:
        """The terms first * ratio^k on reduced (num, den) pairs, in chunks.

        With first = a/b and ratio = p/q in lowest terms, the next term
        a*p / b*q cancels only gcd(a, q) * gcd(p, b). Once both gcds are 1
        they stay 1, so the cancelling steps come one term at a time, at most
        about as many as the bits of a*b, and the rest is one chunk of two
        integer products with no gcd at all.
        """
        a, b = self.first.numerator, self.first.denominator
        p, q = self.ratio.numerator, self.ratio.denominator
        while True:
            g, h = math.gcd(a, q), math.gcd(p, b)
            if g == h == 1:
                nums = itertools.accumulate(itertools.repeat(p), operator.mul, initial=a)
                dens = itertools.accumulate(itertools.repeat(q), operator.mul, initial=b)
                yield map(_trusted_fraction, nums, dens)
                return
            yield (_trusted_fraction(a, b),)
            a, b = a // g * (p // h), b // h * (q // g)

    def terms(self) -> Iterator[Fraction]:
        return itertools.chain.from_iterable(self._chunks())

    def runs(self) -> Iterator[tuple[Fraction, int]]:
        return zip(self.terms(), itertools.repeat(1))

    def sum_after(self, j: int) -> Fraction:
        return self.total * self.ratio**j

    def rest(self, j: int) -> "GeometricTail":
        return GeometricTail(self.first * self.ratio**j, self.ratio)

    def scaled(self, factor: Fraction) -> "GeometricTail":
        return GeometricTail(self.first * factor, self.ratio)

    def first_excess(self, sigma) -> Optional[int]:
        """The least j with f*r^(j-1) > sigma + sum_after(j), or None,
        found on integers without building a term or a gap.

        The excess reads d * r^(j-1) > sigma with d = f*(1-2r)/(1-r),
        monotone in j; with f = a/b, r = p/q and sigma = s/t it runs on
        integers as a*(q-2p)*t * p^(j-1) > s*b*(q-p) * q^(j-1). If j = 1
        fails with sigma >= 0, no j passes; otherwise d <= sigma < 0 and
        d * r^(j-1) rises toward 0, so the first j is found by doubling, then
        bisecting. From there the violations run on forever unless
        sigma > 0, when they stop once d * r^(j-1) falls to sigma.
        """
        p, q = self.ratio.numerator, self.ratio.denominator
        lhs = self.first.numerator * (q - 2 * p) * sigma.denominator
        rhs = sigma.numerator * self.first.denominator * (q - p)

        def excess(j: int) -> bool:
            return lhs * p ** (j - 1) > rhs * q ** (j - 1)

        if not excess(1) and sigma >= 0:
            return None
        hi = 1
        while not excess(hi):
            hi *= 2
        return bisect_left(range(hi // 2 + 1, hi), True, key=excess) + hi // 2 + 1

    def excesses(self, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
        """The violations form one run from ``first_excess``, stepped by
        scaling term and rest by the ratio."""
        j = self.first_excess(sigma)
        if j is None:
            return
        term, rest = self.term(j), self.sum_after(j)
        # from its first index the run is endless unless sigma > 0
        while sigma <= 0 or term > sigma + rest:
            yield j, (sigma + rest if sigma else rest, term)
            j += 1
            term *= self.ratio
            rest *= self.ratio

    def greedy(self, num: int, den: int, count: int, certified: bool) -> tuple[list[int], Fraction]:
        """The greedy rule over the first ``count`` >= 1 terms against the
        residual num/den that the prefix left: the bits, and the residual
        left after them.

        The residual is stepped in units of the current term, as
        rho = N/D: the term is taken when N >= D, which subtracts D, and
        moving to the next term, smaller by the ratio p/q, turns N/D into
        N*q / D*p (Renyi's beta-transformation with beta = q/p). D grows by
        p a step, and while the residual fits in the tail N stays below
        q/(q - p) times D, so the integers grow with p, not with the terms'
        common denominator, and not at all when p = 1.

        The tail from a term on holds q/(q - p) of it, so the certified
        check that the residual fits in the tail reads 0 <= N and
        N*(q - p) <= D*q at entry, and N*(q - p) <= D after a step, made
        before N takes its factor q, which cancels. A taken step subtracts
        D <= N, so N stays nonnegative. When q - p <= p, an untaken step
        keeps N < D and so N*(q - p) < D*p, and only taken steps are
        checked; below ratio 1/2 every step is. With first a/b, D ends as
        den * a * p^count, so the residual is N over den * b * q^count.
        """
        a, b = self.first.numerator, self.first.denominator
        p, q = self.ratio.numerator, self.ratio.denominator
        n, d, c = num * b, den * a, q - p
        assert not certified or 0 <= n and n * c <= d * q, "greedy residual exceeds the tail it enters"
        every = certified and c > p
        bits: list[int] = []
        take = bits.append
        for j in range(1, count + 1):
            if n >= d:
                n -= d
                take(1)
                checked = certified
            else:
                take(0)
                checked = every
            d *= p
            assert not checked or n * c <= d, f"greedy residual escaped [0, tail] at tail step {j}"
            n *= q
        return bits, Fraction(n, den * b * q**count)

    def as_radix(self) -> Optional["MixedRadixTail"]:
        if self.ratio != Fraction(1, 2):
            return None
        return MixedRadixTail(2 * self.first, RadixWord((), (2,)))

    def numeral(self, bits: tuple[int, ...]) -> Fraction:
        """The sum the checked 0/1 ``bits`` select, as a base-q/p numeral for
        first a/b and ratio p/q: a*S / (b*q^(n-1)) with Horner's rule
        S <- S*q + b_j*P, P <- P*p building S = sum of b_j p^(j-1) q^(n-j)."""
        p, q = self.ratio.numerator, self.ratio.denominator
        s, power = 0, 1
        for bit in bits:
            s = s * q + power if bit else s * q
            power *= p
        return Fraction(self.first.numerator * s, self.first.denominator * q ** max(len(bits) - 1, 0))


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

    def term(self, j: int) -> Fraction:
        return self.scale / _walk(self, j)[2]

    def terms(self) -> Iterator[Fraction]:
        return itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.runs()))

    def runs(self) -> Iterator[tuple[Fraction, int]]:
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

    def sum_after(self, j: int) -> Fraction:
        # slot ``offset`` of a block worth scale / prod each leaves k - offset
        _, offset, prod, k = _walk(self, j)
        return self.scale * Fraction(k - offset, prod)

    def rest(self, j: int) -> "MixedRadixTail":
        """The terms after local slot j; a block cut inside folds its
        ``left`` unused slots into one leading block of radix ``left + 1``."""
        blocks, offset, prod, k = _walk(self, j)
        left = k - 1 - offset
        word = self.radices.shift(blocks + 1)
        if left:
            word = RadixWord((left + 1,) + word.pre, word.period)
        return MixedRadixTail((left + 1) * self.scale / prod, word)

    def scaled(self, factor: Fraction) -> "MixedRadixTail":
        return MixedRadixTail(self.scale * factor, self.radices)

    def excesses(self, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
        """Slot i of a block of k - 1 slots of value v leaves (k - i) * v
        after it, so it violates exactly when (k - i - 1) * v < -sigma:
        never for sigma >= 0, and otherwise on a suffix of every block."""
        if sigma >= 0:
            return
        offset = 0
        for value, size in self.runs():
            k = size + 1
            for i in range(max(1, k + math.floor(sigma / value)), k):
                yield offset + i, (sigma + (k - i) * value, value)
            offset += size

    def first_excess(self, sigma) -> Optional[int]:
        """The first index ``excesses`` yields: none for sigma >= 0, and
        otherwise there is one, since every block's last slot violates."""
        return None if sigma >= 0 else next(self.excesses(sigma))[0]

    def greedy(self, num: int, den: int, count: int, certified: bool) -> tuple[list[int], Fraction]:
        """The greedy rule over the first ``count`` >= 1 slots against the
        residual num/den that the prefix left: the bits, and the residual
        left after them.

        ``_block_digits`` steps the residual over whole blocks in units of
        scale / (product of the radices so far), starting from scale. The
        block holding slot ``count`` is stepped whole too; the greedy takes
        a block's ones first, so cutting it after ``offset`` slots keeps at
        most ``offset`` of them and hands the rest back to the residual. Its
        kept slots spell out like a block of radix ``offset + 1``.
        """
        blocks, offset, prod, k = _walk(self, count)
        sn, sd = self.scale.numerator, self.scale.denominator
        unit = den * sn
        radices = itertools.islice(self.radices.iter_entries(), blocks + 1)
        digits, n = _block_digits(num * sd, unit, radices, certified)
        back = max(digits[-1] - offset, 0)
        digits[-1] -= back
        n += back * unit
        # after the cut block's last kept slot, k - offset of its slots are left
        assert not certified or 0 <= n <= (k - offset) * unit, (
            f"greedy residual escaped [0, tail] at tail step {count}"
        )
        kept = itertools.chain(itertools.islice(self.radices.iter_entries(), blocks), (offset + 1,))
        return _digit_bits(digits, kept), Fraction(n, den * sd * prod)

    def as_radix(self) -> "MixedRadixTail":
        return self

    def numeral(self, bits: tuple[int, ...]) -> Fraction:
        """The sum the checked 0/1 ``bits`` select, as a mixed-radix numeral:
        a block's ones d are its digit, so it is scale*S / (product of the
        radices) with S <- S*k + d over the blocks, a cut one at its full k."""
        s, prod = 0, 1
        radices = self.radices.iter_entries
        for d, k in zip(_block_sums(bits, radices()), radices()):
            s = s * k + d
            prod *= k
        return Fraction(self.scale.numerator * s, self.scale.denominator * prod)


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


def _block_digits(num: int, den: int, radices, certified: bool) -> tuple[list[int], int]:
    """The greedy rule over whole radix blocks against rho = num/den, in
    units of the value just before the first block: each block's digit
    (how many of its slots it takes) and the last numerator, over ``den``
    in units of the last block's value.

    Entering a block of radix k turns the unit k times smaller, so rho
    becomes num*k / den; the block's k - 1 equal slots take
    d = min(num*k // den, k - 1) ones, which subtracts d * den. The
    denominator never changes, and while rho <= 1 neither does num's size.

    A block is worth 1/k of the unit before it and the tail after block j
    holds exactly one unit of block j, so the certified check reads
    0 <= num <= den at block entry and exit. That is the check after each
    slot: if the residual R entering a block of slots worth v is at most
    k*v, it is R - i*v <= (k - i)*v after a taken slot i, and after an
    untaken slot it is below v, or R - (k - 1)*v <= v when the block takes
    all its slots. Past the last slot the room is v, which is the exit check.
    """
    assert not certified or 0 <= num <= den, "greedy residual exceeds the tail it enters"
    digits: list[int] = []
    for k in radices:
        num *= k
        d = min(num // den, k - 1)
        num -= d * den
        digits.append(d)
        assert not certified or 0 <= num <= den, (
            f"greedy residual escaped [0, tail] after block {len(digits)}"
        )
    return digits, num


def _digit_bits(digits, radices) -> list[int]:
    """Pattern bits of block digits: d ones, then k - 1 - d zeros, per block."""
    bits: list[int] = []
    for d, k in zip(digits, radices):
        bits += (1,) * d + (0,) * (k - 1 - d)
    return bits


def _block_sums(bits, radices) -> list[int]:
    """The ones of ``bits`` per radix block, a cut last block counting its
    part, reading no radix past it: the inverse of ``_digit_bits``."""
    sums: list[int] = []
    index = 0
    radices = iter(radices)
    while index < len(bits):
        end = index + next(radices) - 1
        sums.append(sum(bits[index:end]))
        index = end
    return sums


def _checked_bits(bits, support: Optional[int] = None) -> tuple[int, ...]:
    """``bits`` as a tuple of 0/1 ints; the first entry that is not 0 or 1
    (ValidationError) or is set past ``support`` (OutOfSupportError) decides
    the error. Clear bits past the support are allowed."""
    bits = tuple(bits)
    end = len(bits) if support is None else support
    # one pass over the types first, so the set only ever hashes ints
    if {int}.issuperset(map(type, bits)) and {0, 1}.issuperset(bits):
        if 1 in bits[end:]:
            raise OutOfSupportError(bits.index(1, end) + 1, support)
        return bits
    for i, bit in enumerate(bits, start=1):
        if bit not in (0, 1):
            raise ValidationError(f"bit {i} must be 0 or 1, got {bit!r}")
        if bit and i > end:
            raise OutOfSupportError(i, support)
    return tuple(map(int, bits))


TailModel = Union[ZeroTail, GeometricTail, MixedRadixTail]


def _checked_tail(tail, label: str = "tail") -> TailModel:
    """``tail`` itself, once it is one of the three tail families."""
    if not isinstance(tail, (ZeroTail, GeometricTail, MixedRadixTail)):
        raise ValidationError(f"{label} must be a ZeroTail, GeometricTail, or MixedRadixTail")
    return tail


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
        _checked_tail(self.tail)
        if prefix and not self.finite and prefix[-1] < self.tail.term(1):
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
        return itertools.chain(self.prefix, self.tail.terms())

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
        return self.tail.sum_after(n - len(self.prefix))

    def partial_sum(self, n: int) -> Fraction:
        """Exact sum of the first n terms."""
        return self.total - self.tail_sum(n)


def make_model(prefix: Sequence, tail: Optional[TailModel] = None) -> SequenceModel:
    """Validated constructor; ``tail`` defaults to a ZeroTail."""
    return SequenceModel(tuple(prefix), tail if tail is not None else ZeroTail())


def _rest(model: SequenceModel, count: int) -> SequenceModel:
    """The terms after the first ``count``, as a closed form that builds
    none of those ``count`` terms: the rest of the prefix, or ``tail.rest``
    past it. A cut past a finite support raises OutOfSupportError.
    """
    prefix, tail = model.prefix, model.tail
    if count <= len(prefix):
        return SequenceModel(prefix[count:], tail)
    if model.finite:
        raise OutOfSupportError(count, len(prefix))
    return SequenceModel((), tail.rest(count - len(prefix)))


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

    Only meaningful for start >= len(prefix), and start equal to it on a
    finite model. It is the tail of ``_rest(model, start)``, read as a radix
    tail where it is one (a geometric tail of ratio 1/2 is the all-2 word),
    so two models with the same term stream get equal signatures.
    """
    tail = _rest(model, start).tail
    return tail.as_radix() or tail


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
        tail = ZeroTail() if self.abelian_tail is None else self.abelian_tail
        total = sum((f.weight for f in factors), ZERO) + _checked_tail(tail, "abelian tail").total
        if total != 1:
            raise ValidationError(f"factor weights and tail must sum to 1, got {total}")
        object.__setattr__(self, "factors", factors)


def from_algebra(spec: AlgebraSpec) -> SequenceModel:
    """Atom traces of the algebra, merged into one non-increasing model.

    Each factor (dim, weight) contributes dim atoms of weight/dim; the
    abelian tail contributes one atom per term. Tail terms at least as large
    as the smallest finite atom move into the explicit prefix so the merged
    sequence stays monotone, and the tail is re-anchored after them. A merged
    prefix of more than ``MAX_ATOMS`` terms raises ResourceLimitError.
    """
    tail = spec.abelian_tail if spec.abelian_tail is not None else ZeroTail()
    if not spec.factors:
        return SequenceModel((), tail)
    a_min = min(f.weight / f.dim for f in spec.factors)
    dims = sum(f.dim for f in spec.factors)
    moved = 0
    for value, size in tail.runs():
        if value < a_min or dims + moved > MAX_ATOMS:
            break
        moved += size
    if dims + moved > MAX_ATOMS:
        raise ResourceLimitError(f"the merged prefix reaches {dims + moved} atoms, past the bound of {MAX_ATOMS}")
    atoms = list(itertools.chain.from_iterable([f.weight / f.dim] * f.dim for f in spec.factors))
    merged = tuple(sorted(atoms + list(itertools.islice(tail.terms(), moved)), reverse=True))
    return SequenceModel(merged, tail.rest(moved))
