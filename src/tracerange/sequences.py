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
condition engine's tail indices, in order), ``as_radix()`` (None unless the
terms form a radix pattern), and ``numeral(bits)`` (the sum a 0/1 vector
selects); the two endless families add ``greedy(num, den, count,
certified)``, the greedy rule's run of steps.
``terms()`` builds each term once from a reduced ``(num, den)`` pair: a
geometric step cancels only gcd(num, q) and gcd(p, den) for ratio p/q, and
a radix block only gcd(num, k) for its radix k. ``greedy`` steps the
residual in units of the current term, so its integers grow with the
ratio's numerator, not with the common denominator of the terms.

A model holds its prefix only as canonical runs of (value, multiplicity),
compares and hashes on them, and spells the ``prefix`` tuple out when it is
read (``_spelled``, the one home of the rule that a lazy reading spells a
run past ``sys.maxsize`` terms without an end). Every check, sum, read and
derived model pays per run: ``_from_runs(runs, tail)`` builds a model from
runs, checking each run once (``_checked_runs``), ``_scaled_runs`` scales
every run's value, and ``_run_excesses`` is the condition engine's run
rule, which its forward pass over the prefix runs and the radix tail's
blocks both read.

Private helpers: ``_walk`` finds a deep radix slot by skipping whole
periods; ``_block_digits`` is the greedy's step over whole radix blocks and
``_digit_bits`` spells its digits out as bits, which ``_block_ones`` counts
back per block, as it counts the ones of each prefix run; ``_checked_bits``
is the one check of a 0/1 vector; ``_rest(model, count)`` is the closed
form of the terms after an index; ``_term_runs(model)`` is the one stream
of a model's canonical runs, prefix and tail, that the decoder, the face
maps and ``same_sequence`` read, and ``_leading_runs`` its first terms,
which the cover fold steps over a run at a time; ``_checked_tail`` is the
one check that a value is a tail.

The module also models a finite atomic von Neumann algebra with a faithful
normal tracial state as an :class:`AlgebraSpec`: matrix factors contribute
equal atoms weight/dim, an optional abelian tail contributes one atom per
term, and :func:`from_algebra` merges the factors' runs with the tail's into
a single non-increasing sequence model.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .core import ZERO, _Record, _check_ceiling, _setattr, _trusted_fraction
from .errors import DomainError, OutOfSupportError, ValidationError


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


class RadixWord(_Record):
    """An eventually periodic word of integer radices, all at least 2.

    ``pre`` is the aperiodic head, ``period`` repeats forever afterwards.
    An empty period means the word is finite. Construction canonicalizes:
    the period is reduced to its primitive root, and any pre suffix that
    merely restates the period is absorbed into a rotation, so two words
    denoting the same radix stream compare equal.
    """

    _fields = ("pre", "period")

    def __init__(self, pre: tuple[int, ...] = (), period: tuple[int, ...] = ()):
        pre, period = tuple(pre), tuple(period)
        for k in pre + period:
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValidationError(f"radix entries must be integers, got {k!r}")
            if k < 2:
                raise ValidationError(f"radix entries must be at least 2, got {k}")
        if period:
            period = _primitive_period(period)
            # the pre suffix that restates the period, read backwards, moves
            # into a period rotated right by its length
            n, size = len(period), 0
            while size < len(pre) and pre[-1 - size] == period[-1 - size % n]:
                size += 1
            if size:
                pre, turn = pre[:-size], size % n
                period = period[n - turn :] + period[: n - turn]
        _setattr(self, "pre", pre)
        _setattr(self, "period", period)

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


class ZeroTail(_Record):
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

    def as_radix(self) -> Optional["MixedRadixTail"]:
        return None

    def numeral(self, bits: tuple[int, ...]) -> Fraction:
        # a checked vector holds no set bit past the support
        return ZERO


class GeometricTail(_Record):
    _fields = ("first", "ratio")

    def __init__(self, first: Fraction, ratio: Fraction):
        # a Fraction is kept as it is, as ``Interval`` keeps it, and its
        # denominator is positive, so signs and bounds read its numerator
        if type(first) is not Fraction:
            first = Fraction(first)
        if type(ratio) is not Fraction:
            ratio = Fraction(ratio)
        if first.numerator <= 0:
            raise ValidationError(f"geometric first term must be positive, got {first}")
        if not 0 < ratio.numerator < ratio.denominator:
            raise ValidationError(f"geometric ratio outside (0, 1): {ratio}")
        _setattr(self, "first", first)
        _setattr(self, "ratio", ratio)

    @cached_property
    def total(self) -> Fraction:
        return self.first / (1 - self.ratio)

    def term(self, j: int) -> Fraction:
        # the first term, which the excess run starts from, takes no power
        return self.first * self.ratio ** (j - 1) if j > 1 else self.first

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
        if not j:
            return self
        return GeometricTail(self.first * self.ratio**j, self.ratio)

    def scaled(self, factor: Fraction) -> "GeometricTail":
        return GeometricTail(self.first * factor, self.ratio)

    def excesses(self, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
        """The violations form one run from the least j with
        f*r^(j-1) > sigma + sum_after(j), found on integers without building
        a term or a gap, and stepped from there by scaling term and rest by
        the ratio.

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
            return
        hi = 1
        while not excess(hi):
            hi *= 2
        j = bisect_left(range(hi // 2 + 1, hi), True, key=excess) + hi // 2 + 1
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


class MixedRadixTail(_Record):
    _fields = ("scale", "radices")

    def __init__(self, scale: Fraction, radices: RadixWord):
        if type(scale) is not Fraction:  # as in ``GeometricTail``
            scale = Fraction(scale)
        if scale.numerator <= 0:
            raise ValidationError(f"radix tail scale must be positive, got {scale}")
        if not isinstance(radices, RadixWord):
            raise ValidationError("radices must be a RadixWord")
        if radices.finite:
            raise ValidationError("a radix tail needs an infinite word (nonempty period)")
        _setattr(self, "scale", scale)
        _setattr(self, "radices", radices)

    @property
    def total(self) -> Fraction:
        return self.scale

    def term(self, j: int) -> Fraction:
        return self.scale / _walk(self, j)[2]

    def terms(self) -> Iterator[Fraction]:
        return _spelled(self.runs(), max(self.radices.pre + self.radices.period) - 1)

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
        """The terms after local slot j: the tail itself at j = 0, and else a
        block cut inside folds its ``left`` unused slots into one leading
        block of radix ``left + 1``."""
        if not j:
            return self
        blocks, offset, prod, k = _walk(self, j)
        left = k - 1 - offset
        word = self.radices.shift(blocks + 1)
        if left:
            word = RadixWord((left + 1,) + word.pre, word.period)
        return MixedRadixTail((left + 1) * self.scale / prod, word)

    def scaled(self, factor: Fraction) -> "MixedRadixTail":
        return MixedRadixTail(self.scale * factor, self.radices)

    def excesses(self, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
        """A block of k - 1 slots of value v leaves exactly v after it, so
        by the run rule (``_run_excesses``) with room sigma + v its
        violations are a suffix of the block: never for sigma >= 0, and
        otherwise a nonempty one in every block."""
        if sigma >= 0:
            return iter(())
        return _run_excesses((run, sigma + run[0]) for run in self.runs())

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
        for d, k in zip(_block_ones(bits, map((-1).__add__, radices())), radices()):
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


def _block_ones(bits, sizes) -> list[int]:
    """The ones of the 0/1 ``bits`` per block of ``sizes``, a cut last block
    counting its part: radix digits (sizes k - 1, the inverse of
    ``_digit_bits``) or the ones of each prefix run. Each is one
    ``bytes.count`` between the block's ends, the running sums of the sizes,
    read lazily up to the block that reaches the end of the bits."""
    data = bytes(bits)
    count, end, start, ones = data.count, len(data), 0, []
    for stop in itertools.accumulate(sizes) if end else ():
        ones.append(count(1, start, stop))
        if stop >= end:
            break
        start = stop
    return ones


def _run_excesses(pairs) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """The run rule: over ``pairs`` of a run and its room, each violating
    slot, counted from 1 across the runs, with its gap (room after it, value).

    In a run of ``count`` copies of ``value`` followed by terms that leave
    ``room`` (the slack plus their sum), slot i has (count - i) * value +
    room after it, so it violates exactly when
    i > count - 1 + room / value: the violations are the run's suffix from
    count + floor(room / value) on, found with one integer floor division,
    and a run whose last slot holds is passed over with one comparison.
    """
    offset = 0
    for (value, count), room in pairs:
        if value > room:
            floor = room.numerator * value.denominator // (room.denominator * value.numerator)
            for i in range(max(1, count + floor), count + 1):
                yield offset + i, (room + _run_sum((value, count - i)) if i < count else room, value)
        offset += count


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


def _checked_runs(runs, tail) -> tuple[tuple[Fraction, int], ...]:
    """Prefix runs of (value, multiplicity), in order, checked against
    ``tail`` and made canonical: adjacent equal values merge.

    Each check is made once per run. Runs follow the prefix's order and a
    run's value is its entries' value, so the first offending entry decides
    the message, as a check per entry would find it: positivity first, then
    order, then the junction with the tail. Order and equality come from one
    integer cross product per pair of neighbouring runs, and none for a run
    holding the object before it; equal values share a sign, so positivity
    is read off the merged runs.
    """
    merged: list[list] = []  # [value, count] per merged run
    rise = None  # the first neighbouring pair whose values rise
    for value, count in runs:
        if merged and value is merged[-1][0]:
            merged[-1][1] += count
            continue
        num, den = value.numerator, value.denominator
        if merged:
            drop = last_num * den - num * last_den
            if not drop:
                merged[-1][1] += count
                continue
            if drop < 0 and rise is None:
                rise = merged[-1][0], value
        merged.append([value, count])
        last_num, last_den = num, den
    for value, _ in merged:
        if value.numerator <= 0:
            raise ValidationError(f"sequence entries must be positive, got {value}")
    if rise is not None:
        raise ValidationError(f"prefix is not non-increasing: {rise[0]} before {rise[1]}")
    _checked_tail(tail)
    first = next(tail.runs(), None) if merged else None
    if first is not None and merged[-1][0] < first[0]:
        raise ValidationError(
            f"junction violation: last prefix entry {merged[-1][0]} is below "
            f"the first tail term {first[0]}"
        )
    return tuple(map(tuple, merged))


_count = operator.itemgetter(1)


def _run_sum(run: tuple[Fraction, int]) -> Fraction:
    value, count = run
    return value * count if count > 1 else value  # one term needs no multiply


def _spelled(runs, longest: int = 0) -> Iterator:
    """Each run's value, repeated its multiplicity, at C level. A lazy
    reading passes ``longest``, a bound on its runs; past ``sys.maxsize``, a
    run longer than ``repeat`` counts has no end, as no reader takes that many."""
    if longest > sys.maxsize:
        runs = ((value, count) if count <= sys.maxsize else (value,) for value, count in runs)
    return itertools.chain.from_iterable(itertools.starmap(itertools.repeat, runs))


def _ends_of(runs) -> tuple[int, ...]:
    """The index of each run's last term."""
    return tuple(itertools.accumulate(map(_count, runs)))


def _scaled_runs(runs, factor: Fraction) -> list[tuple[Fraction, int]]:
    """Each run's value times ``factor``; with both in lowest terms only
    the two cross gcds can cancel, so each value is built reduced."""
    a, b = factor.numerator, factor.denominator
    scaled = []
    for value, count in runs:
        p, q = value.numerator, value.denominator
        g, h = math.gcd(p, b), math.gcd(a, q)
        scaled.append((_trusted_fraction(p // g * (a // h), q // h * (b // g)), count))
    return scaled


class SequenceModel(_Record):
    """Explicit prefix plus closed-form tail, validated on construction.

    The prefix is held only as ``_runs``, its canonical (value,
    multiplicity) runs, so ``==`` and ``hash`` read ``("_runs", "tail")``,
    the same relation as the terms; ``prefix`` spells them out on first
    read, for ``repr``. The constructor checks its entries per run and keeps
    its tuple; ``_from_runs`` builds derived models from runs.
    """

    _fields = ("_runs", "tail")

    def __init__(self, prefix: tuple[Fraction, ...] = (), tail: TailModel = ZeroTail()):
        prefix = tuple(x if type(x) is Fraction else Fraction(x) for x in prefix)
        runs = _checked_runs(zip(prefix, itertools.repeat(1)), tail)
        self.__dict__.update(prefix=prefix, tail=tail, _runs=runs, _run_ends=_ends_of(runs))

    def __repr__(self) -> str:
        return super().__repr__(("prefix", "tail"))

    @cached_property
    def prefix(self) -> tuple[Fraction, ...]:
        return tuple(_spelled(self._runs))

    _length = property(lambda self: self._run_ends[-1] if self._run_ends else 0)  # the number of prefix terms

    @cached_property
    def _run_sums(self) -> tuple[Fraction, ...]:
        """The sum of the prefix from each run on, then a last 0."""
        return tuple(itertools.accumulate(map(_run_sum, reversed(self._runs)), initial=ZERO))[::-1]

    def _runs_after(self, n: int) -> tuple[tuple[Fraction, int], ...]:
        """The prefix runs past index n <= len(prefix), the first one cut."""
        r = bisect_right(self._run_ends, n)
        if r == len(self._runs):
            return ()
        return ((self._runs[r][0], self._run_ends[r] - n),) + self._runs[r + 1 :]

    @cached_property
    def total(self) -> Fraction:
        # the condition scan reads the run sums as well, so they are shared
        return self._run_sums[0] + self.tail.total

    @property
    def finite(self) -> bool:
        return isinstance(self.tail, ZeroTail)

    @property
    def support(self) -> Optional[int]:
        """Number of terms, or None when the sequence is infinite."""
        return self._length if self.finite else None

    def term(self, n: int) -> Fraction:
        """1-based term access; finite models raise past their support."""
        _check_index(n, 1)
        if n <= self._length:
            return self._runs[bisect_left(self._run_ends, n)][0]
        if self.finite:
            raise OutOfSupportError(n, self._length)
        return self.tail.term(n - self._length)

    def iter_terms(self) -> Iterator[Fraction]:
        # the tail's terms, not its runs, so a geometric term is not wrapped
        return itertools.chain(_spelled(self._runs, self._length), self.tail.terms())

    def first_terms(self, count: int) -> tuple[Fraction, ...]:
        _check_index(count, 0, "count")
        terms = tuple(itertools.islice(self.iter_terms(), count))
        if len(terms) < count:
            raise OutOfSupportError(count, self._length)
        return terms

    def tail_sum(self, n: int) -> Fraction:
        """Exact sum of all terms with index strictly greater than n."""
        _check_index(n, 0)
        if n <= self._length:
            # run r holds index n + 1, and ``left`` is its part after n
            r = bisect_right(self._run_ends, n)
            if r == len(self._runs):
                return self.tail.total
            left = (self._runs[r][0], self._run_ends[r] - n)
            return self._run_sums[r + 1] + _run_sum(left) + self.tail.total
        return self.tail.sum_after(n - self._length)

    def partial_sum(self, n: int) -> Fraction:
        """Exact sum of the first n terms."""
        return self.total - self.tail_sum(n)


def _from_runs(runs, tail: TailModel) -> SequenceModel:
    """The model of the prefix runs ``runs``, (value, multiplicity) pairs of
    a ``Fraction`` and a positive count, in order, followed by ``tail``.

    The runs are checked and merged once per run by ``_checked_runs``, with
    the constructor's messages. No term is spelled out: ``prefix`` waits
    for its first read.
    """
    runs = _checked_runs(runs, tail)
    model = object.__new__(SequenceModel)
    model.__dict__.update(tail=tail, _runs=runs, _run_ends=_ends_of(runs))
    return model


def make_model(prefix: Sequence, tail: Optional[TailModel] = None) -> SequenceModel:
    """Validated constructor; ``tail`` defaults to a ZeroTail."""
    return SequenceModel(tuple(prefix), tail if tail is not None else ZeroTail())


def _rest(model: SequenceModel, count: int) -> SequenceModel:
    """The terms after the first ``count``, as a closed form that builds
    none of those ``count`` terms: the rest of the prefix, or ``tail.rest``
    past it. A cut past a finite support raises OutOfSupportError.
    """
    length = model._length
    if count <= length:
        return _from_runs(model._runs_after(count), model.tail)
    if model.finite:
        raise OutOfSupportError(count, length)
    return _from_runs((), model.tail.rest(count - length))


def split_leading(model: SequenceModel, count: int) -> tuple[tuple[Fraction, ...], SequenceModel]:
    """First ``count`` terms plus ``_rest(model, count)``, the model of
    everything after them.

    A radix block cut by the split comes back folded into the leading block
    of the remainder's word rather than as explicit terms. Concatenating the
    two pieces reproduces the original sequence term for term.
    """
    return model.first_terms(count), _rest(model, count)


def _term_runs(model: SequenceModel) -> Iterator[tuple[Fraction, int]]:
    """The model's terms as canonical (value, multiplicity) runs, neighbours
    differing: the prefix runs, then the tail's, the last prefix run merged
    into an equal first tail run, which is read only once that run is due."""
    runs, tail = model._runs, model.tail.runs()
    yield from runs[:-1]
    first = next(tail, None)
    if runs and first is not None and runs[-1][0] == first[0]:
        yield first[0], runs[-1][1] + first[1]
    else:
        yield from runs[-1:]
        if first is not None:
            yield first
    yield from tail


def _leading_runs(model: SequenceModel, count: int) -> tuple[tuple[Fraction, int], ...]:
    """The first ``count`` terms, or all of a finite model with fewer, as
    canonical runs (``_term_runs``, or the prefix runs alone for a cut inside
    the prefix), so two models give equal runs exactly when those terms agree."""
    runs = []
    source = model._runs if count <= model._length else _term_runs(model)
    for value, size in source if count else ():
        runs.append((value, min(size, count)))
        count -= size
        if count <= 0:
            break
    return tuple(runs)


def same_sequence(a: SequenceModel, b: SequenceModel) -> bool:
    """Exact equality of the term streams, regardless of representation.

    Decidable because tails are closed forms: compare both models run by
    run through the longer explicit prefix, then the tails of what follows
    it (``_rest``), each read as a radix tail where it is one (a geometric
    tail of ratio 1/2 is the all-2 word), so equal streams give equal tails.
    """
    head = max(a._length, b._length)
    if _leading_runs(a, head) != _leading_runs(b, head):
        return False
    x, y = (_rest(model, head).tail for model in (a, b))
    return (x.as_radix() or x) == (y.as_radix() or y)


class MatrixFactor(_Record):
    """A dim x dim matrix block carrying ``weight`` of the trace."""

    _fields = ("dim", "weight")

    def __init__(self, dim: int, weight: Fraction):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValidationError(f"factor dimension must be an integer >= 1, got {dim!r}")
        weight = Fraction(weight)
        if weight <= 0:
            raise ValidationError(f"factor weight must be positive, got {weight}")
        self.__dict__.update(dim=dim, weight=weight)


class AlgebraSpec(_Record):
    """Finite atomic tracial algebra: matrix factors plus an optional abelian tail.

    The trace is a state, so factor weights and the tail total must sum to 1
    exactly.
    """

    _fields = ("factors", "abelian_tail")

    def __init__(self, factors: tuple[MatrixFactor, ...] = (), abelian_tail: Optional[TailModel] = None):
        factors = tuple(factors)
        for f in factors:
            if not isinstance(f, MatrixFactor):
                raise ValidationError("factors must be MatrixFactor instances")
        tail = ZeroTail() if abelian_tail is None else abelian_tail
        total = sum((f.weight for f in factors), ZERO) + _checked_tail(tail, "abelian tail").total
        if total != 1:
            raise ValidationError(f"factor weights and tail must sum to 1, got {total}")
        self.__dict__.update(factors=factors, abelian_tail=abelian_tail)


def from_algebra(spec: AlgebraSpec) -> SequenceModel:
    """Atom traces of the algebra, merged into one non-increasing model.

    Each factor (dim, weight) contributes a run of dim atoms of weight/dim;
    the abelian tail contributes one atom per term. Tail runs at least as
    large as the smallest finite atom move into the explicit prefix so the
    merged sequence stays monotone, and the tail is re-anchored after them.
    The runs are merged by value, so a factor costs one run whatever its
    dimension. A merged prefix past the atoms ceiling of ``core._CEILINGS``
    (100,000 terms) raises ResourceLimitError before the walk: the factors'
    atoms are counted first, and then, since at most ``total / a_min`` tail
    terms reach ``a_min``, a tail that may pass the room left is read at
    terms 1, 2, 4, ... below the room; only if none falls below ``a_min``
    is the run after the room read, and refused with the count of the walk
    that would reach it.
    """
    tail = spec.abelian_tail if spec.abelian_tail is not None else ZeroTail()
    if not spec.factors:
        return _from_runs((), tail)
    runs = [(f.weight / f.dim, f.dim) for f in spec.factors]
    a_min = min(value for value, _ in runs)
    dims = sum(f.dim for f in spec.factors)
    room = _check_ceiling("atoms", dims)
    if tail.total > room * a_min:
        # the tail does not rise, so doubling j reads no term past twice the
        # one where it falls below a_min before reaching the room left
        j = 1
        while j < room and next(tail.rest(j).runs())[0] >= a_min:
            j *= 2
        if j >= room:
            value, size = next(tail.rest(room).runs())
            if value >= a_min:
                _check_ceiling("atoms", dims + room + size)
    moved = 0
    for value, size in tail.runs():
        if value < a_min:
            break
        moved += size
        runs.append((value, size))
    runs.sort(key=operator.itemgetter(0), reverse=True)
    return _from_runs(runs, tail.rest(moved))
