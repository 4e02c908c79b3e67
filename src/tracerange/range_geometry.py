"""Achievable subset-sum ranges as exact interval unions.

Truncating an infinite sequence after N terms brackets its achievable set:
every reachable value lies within tail_N of some subset sum of the first N
terms, so the union of [s, s + tail_N] over those sums is an outer
approximation. It is exact precisely when the sequence remaining after the
cut satisfies the completeness condition on its own, because then each
bracket is filled entirely; as the condition at n reads only a_n and the
terms after it, that means no violation past the cut.

That union is the Minkowski sum {0, a_1} + ... + {0, a_N} + [0, tail_N], and
``achievable_outer`` folds it from the right: start from [0, tail_N] and, for
k = N down to 1, merge the union with a copy shifted by a_k, coalescing as it
goes. A step with a_k at most tail_k, the sum of everything after it, turns
[0, tail_k] into [0, tail_(k-1)], so the fold starts at L, the last violating
index up to the cut, from [0, tail_L], and reads only the first L terms, as
runs of (value v, multiplicity m). A run's m steps are the Minkowski sum
with {0, v, ..., mv}, which is {0, cv} + {0, v, ..., (m - c)v} for
c = ceil(m/2), so the fold takes it in about log2 m shift-and-merge steps,
and a run of one is a single step. The union's top end before a step is
the sum of the terms after it, so a step whose shift passes it lies wholly
above the union and is appended without a merge. The cost follows the
number of pieces and runs, not 2^N, the depth or the length of a run. The
endpoints are one flat integer list lo, hi, lo, hi, ... over one common
denominator, which an appending step extends by its shifted copy, a merge
step coalesces and the union takes whole. The fold holds at most the pieces
ceiling of ``core._CEILINGS`` (2^16): a tail whose steps would double past it
is refused before any term is built, and any other fold once a step takes it
past the ceiling.

``subset_sums`` (an iterated sorted merge that deduplicates as it goes) and
``SubsetSumOracle`` (two hash tables with witnesses, one per half of the
terms, met in the middle) enumerate the sums themselves, of at most 24
terms (the terms ceiling). Their enumerations share no code with the fold,
with each other or with the greedy expansion, so the routes can referee one
another. The oracle builds what a query reads and no more: no table for a
target off the lattice of its terms' lcm; on the first target on it, the
right table whole; and the left sums only up to each query's first
witness. The left table is kept once a query that finds no witness has
built it whole.

An ``IntervalUnion`` holds its endpoints as integers over one common
denominator and works on those integers. It checks their whole order once,
on that grid, when it is built, and reduces each endpoint to lowest terms
at most once, one gcd each: the JSON writer (on a grid that can hold no
endpoint too large to write), the ``Interval`` parts (``Fraction``
endpoints, built only when read, without checking each part again) and the
complement, which inherits the pairs it shares, all read that one pass.
``Interval`` itself, the writer and the size bounds stay in ``core``.

A finite atomic von Neumann algebra with a faithful normal tracial state
is modelled as an ``AlgebraSpec``: matrix factors contribute equal atoms
weight/dim, an optional abelian tail contributes one atom per term, and
``from_algebra`` merges the factors' runs with the tail's into a single
non-increasing sequence model, whose completeness decides
``convexity_verdict``. Of the commands, only ``range`` and ``vna`` load
this module, so no other launch compiles it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    ZERO, Interval, _Record, _check_ceiling, _digit_limit, _product, _reduced, _setattr, _trusted_fraction,
    _written,
)
from .errors import ValidationError
from .representability import ConditionVerdict, _excesses, kakeya_check
from .sequences import SequenceModel, TailModel, ZeroTail, _check_index, _checked_tail, _from_runs, _leading_runs


def _trusted_intervals(los: list[Fraction], his: list[Fraction]) -> tuple[Interval, ...]:
    """``Interval``s from endpoints known to satisfy lo <= hi pairwise, with
    neither the coercion nor the order check of ``Interval.__init__`` and no
    Python-level call per part: each slot descriptor's ``__set__`` fills
    its field (it returns None, so ``any`` runs each pass out)."""
    parts = tuple(map(object.__new__, repeat(Interval, len(los))))
    any(map(Interval.lo.__set__, parts, los))
    any(map(Interval.hi.__set__, parts, his))
    return parts


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
    parts they read) works on those integers. The writer (unless an endpoint
    may be too large to write) and the ``Interval`` parts, built only when
    read and checked by no ``Fraction`` or ``Interval`` constructor, share one
    lowest-terms pass, which ``complement`` hands on; it is kept beside the
    ``parts`` memo, not as a field (``_fields``).
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

    def _fits(self) -> bool:
        """Whether no endpoint in lowest terms can be too large to write
        (``_check_writable``): the ends are sorted, so ``_den`` and the
        outermost ends bound them all, each by at most 3 * limit bits."""
        den, ends, limit = self._den, self._ends, _digit_limit()
        return not (limit and ends) or max(den.bit_length(), ends[0].bit_length(), ends[-1].bit_length()) <= 3 * limit

    def _written_parts(self) -> list[list[str]]:
        """Each part's endpoints written "p/q", as ``format_rational`` writes
        them, one ``[lo, hi]`` list per part as the JSON document holds it.

        On a grid that ``_fits``, the shared lowest-terms pass is read whole.
        Otherwise ``_written`` reads each endpoint as it is reduced, in
        order, so the first too large stops the rest."""
        if not self._fits():
            den = self._den
            texts = _written(_trusted_fraction(x // (g := math.gcd(x, den)), den // g) for x in self._ends)
            return [texts[i : i + 2] for i in range(0, len(texts), 2)]
        nums, dens = map(iter, self._lowest_terms())  # zipped twice: a part's lo, then its hi
        return [[f"{p}/{q}", f"{r}/{s}"] for p, q, r, s in zip(nums, dens, nums, dens)]

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
        los, his = ends[0::2], ends[1::2]
        points = not all(map(operator.lt, los, his))
        if points:  # points go, both ends
            ends = [x for part in zip(los, his) if part[0] < part[1] for x in part]
        gaps = [lo, *ends, hi]
        cut = slice(2 if gaps[0] == gaps[1] else 0, -2 if gaps[-2] == gaps[-1] else None)
        union = IntervalUnion._on_grid(den, gaps[cut])
        # lowest terms do not depend on the grid: the pairs, framed and trimmed
        # alike, are handed on when held or when the writer would take them,
        # and no point was dropped: a cover holds points only when it holds
        # nothing else (a finite cover), so its complement is ``within``
        # alone, whose two endpoints reduce themselves if read
        if union._ends and not points and (self._pairs is not None or self._fits()):
            nums, dens = self._lowest_terms()
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
        return _reduced(sum(ends[1::2]) - sum(ends[0::2]), self._den)

    def __iter__(self) -> Iterator[Interval]:
        # an empty union, such as every one-piece cover's complement, sets no memo
        return iter(self.parts if self._ends else ())

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __repr__(self) -> str:
        return super().__repr__(("parts",))


def subset_sums(terms: Sequence) -> list[Fraction]:
    """All distinct subset sums, ascending, by iterated sorted merge."""
    values = [t if type(t) is Fraction else Fraction(t) for t in terms]
    _check_ceiling("terms", len(values))
    sums = [ZERO]
    for a in values:
        # the sort merges the two sorted runs, and groupby keeps each sum once
        sums = [s for s, _ in groupby(sorted(sums + [s + a for s in sums]))]
    return sums


class SubsetSumOracle:
    """Hash-based representability table with witnesses.

    A meet-in-the-middle pair of half tables, sum -> chosen indices over
    each half of the term list (Horowitz and Sahni, J. ACM 21(2), 1974),
    at every length. The enumeration route is disjoint from both
    ``subset_sums`` and the greedy expansion, which is the point: it serves
    as the independent referee. Sums are kept as integers over the lcm of
    the term denominators, which the oracle computes itself.

    The constructor coerces the terms, refuses past the terms ceiling and
    computes the lcm, and builds no table: a target off that lattice is
    answered by one modulo test. The first query on the lattice builds the
    right table whole. Each query then enumerates the left sums in the
    order the whole left table would hold them, checking each against the
    right table as it is made, and stops at its first match, so the
    witness is the one a whole left table scanned in order would give. A
    query that finds none has built the whole left table, which the oracle
    keeps for the queries after it. A table is stored only once it is
    whole, so a query cut short leaves nothing half built, and threads
    sharing an oracle at most repeat each other's work.
    """

    def __init__(self, terms: Sequence):
        values = tuple(t if type(t) is Fraction else Fraction(t) for t in terms)
        _check_ceiling("terms", len(values))
        self._den = math.lcm(*(t.denominator for t in values))
        self._terms = tuple(t.numerator * (self._den // t.denominator) for t in values)
        self._half = len(self._terms) // 2
        self._left = self._right = None  # each stored once whole

    @staticmethod
    def _enumerate(table: dict, terms: tuple[int, ...], base: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Write each new sum of ``terms`` into ``table`` (sum -> indices,
        from base on), term by term, each step reading the sums written
        before it in order, and yield the sum with its indices as it is
        written. A table's sums are distinct, so the sums one step adds
        are too."""
        for index, a in enumerate(terms, base):
            for value, chosen in list(table.items()):
                candidate = value + a
                if candidate not in table:
                    table[candidate] = chosen = chosen + (index,)
                    yield candidate, chosen

    def _find(self, target: Fraction) -> Optional[tuple[int, ...]]:
        den = self._den
        if den % target.denominator:
            return None  # every subset sum is a multiple of 1 / den
        target = target.numerator * (den // target.denominator)
        half, right = self._half, self._right
        if right is None:
            right = {0: ()}
            deque(self._enumerate(right, self._terms[half:], half), 0)
            self._right = right
        left = self._left
        if left is not None:
            sums = left.items()
        else:
            left = {0: ()}
            sums = chain(((0, ()),), self._enumerate(left, self._terms[:half], 0))
        for value, chosen in sums:
            match = right.get(target - value)
            if match is not None:
                return chosen + match
        self._left = left  # read to its end, so whole
        return None

    def representable(self, target) -> bool:
        return self._find(target if type(target) is Fraction else Fraction(target)) is not None

    def witness(self, target) -> Optional[tuple[int, ...]]:
        """A bit vector over the term list reaching ``target``, or None."""
        chosen = self._find(target if type(target) is Fraction else Fraction(target))
        if chosen is None:
            return None
        bits = [0] * len(self._terms)
        for index in chosen:
            bits[index] = 1
        return tuple(bits)


class RangeApproximation(_Record):
    """Finite-depth outer approximation of the achievable set.

    ``exact`` records whether the union equals the full achievable set, which
    happens exactly when the sequence remaining past the cut satisfies the
    completeness condition by itself.
    """

    _fields = ("depth", "union", "exact")

    def __init__(self, depth: int, union: IntervalUnion, exact: bool):
        self.__dict__.update(depth=depth, union=union, exact=exact)


def _violations_around(model: SequenceModel, cut: int) -> tuple[int, bool]:
    """(L, exact): L is the last index n <= cut with a_n above the sum after
    it, or 0; exact says no index past the cut has one.

    One forward pass over the violations settles both: the first index past
    the cut ends it. At zero slack the only tail that violates is a
    geometric one with ratio below 1/2, and it violates at every index, so
    its first index at or inside the cut makes L the cut at once, however
    deep the cut is.
    """
    last, offset = 0, model._length
    for n, _ in _excesses(model, 0):
        if n > cut:
            return last, False
        if n > offset:
            return cut, False
        last = n
    return last, True


def achievable_outer(model: SequenceModel, depth: int) -> RangeApproximation:
    """Union of [s, s + tail] over subset sums s of the first ``depth`` terms.

    Finite models clamp the cut to their support (the tail is then 0 and the
    union degenerates to the exact finite set of sums). Abutting brackets
    coalesce, so a condition-satisfying model collapses to a single interval.

    Past L, the last violating index up to the cut, every step fills its
    bracket, so the cover at the cut is the cover at L: the fold starts
    from [0, tail_L] and reads only the first L terms, a run of m equal
    terms in about log2 m steps. A step whose shift passes the union's top
    end appends its shifted copy; any other step merges. A fold that would
    hold more pieces than the pieces ceiling (``core._check_ceiling``) is
    refused with ``ResourceLimitError``, checked after every step, and
    before any term is built when its tail alone doubles past it.
    """
    _check_index(depth, 0, "depth")
    cut = depth
    if model.finite:
        cut = min(depth, model._length)
    last, exact = _violations_around(model, cut)
    # at zero slack a tail that violates does so at every index, and a
    # violating step appends a whole copy, so the fold's first
    # last - len(prefix) steps, the tail's, double the pieces exactly
    _check_ceiling("pieces", last - model._length, doublings=True)
    runs = _leading_runs(model, last)
    slack = model.tail_sum(last)
    den = math.lcm(slack.denominator, *(v.denominator for v, _ in runs))
    top = _over(den, slack)
    ends = [0, top]
    for v, m in reversed(runs):
        value = _over(den, v)
        while m:  # {0, v, ..., mv} = {0, cv} + {0, v, ..., (m - c)v} for c = ceil(m/2)
            shift = (m + 1) // 2 * value
            m //= 2
            # a list, built whole before ``ends`` grows: extending ``ends`` by
            # a lazy map over itself would read what it appends and never stop
            ends += [x + shift for x in ends]
            if shift <= top:
                pairs = iter(ends)  # two sorted runs of pairs, merged by the sort
                ends = _coalesce(sorted(zip(pairs, pairs)))
            _check_ceiling("pieces", len(ends) // 2)
            top += shift
    return RangeApproximation(depth, IntervalUnion._on_grid(den, ends), exact)


def _order(x: Fraction, y: Fraction) -> int:
    """-1, 0 or 1 as x is below, equal to or above y, by one integer cross product."""
    d = x.numerator * y.denominator - y.numerator * x.denominator
    return (d > 0) - (d < 0)


_by_value = cmp_to_key(_order)  # a sort and ``min`` key that orders rationals by ``_order``


class MatrixFactor(_Record):
    """A dim x dim matrix block carrying ``weight`` of the trace."""

    _fields = ("dim", "weight")

    def __init__(self, dim: int, weight: Fraction):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValidationError(f"factor dimension must be an integer >= 1, got {dim!r}")
        weight = Fraction(weight)
        if weight.numerator <= 0:
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
        weights = [f.weight for f in factors]
        weights.append(_checked_tail(tail, "abelian tail").total)
        den = math.lcm(*(w.denominator for w in weights))
        num = sum(_over(den, w) for w in weights)
        if num != den:
            raise ValidationError(f"factor weights and tail must sum to 1, got {_reduced(num, den)}")
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
    runs = [(_reduced(f.weight.numerator, f.weight.denominator * f.dim), f.dim) for f in spec.factors]
    a_min = min((value for value, _ in runs), key=_by_value)
    dims = sum(f.dim for f in spec.factors)
    room = _check_ceiling("atoms", dims)
    if _order(tail.total, _product(a_min, room, 1)) > 0:
        # the tail does not rise, so doubling j reads no term past twice the
        # one where it falls below a_min before reaching the room left
        j = 1
        while j < room and _order(next(tail.rest(j).runs())[0], a_min) >= 0:
            j *= 2
        if j >= room:
            value, size = next(tail.rest(room).runs())
            if _order(value, a_min) >= 0:
                _check_ceiling("atoms", dims + room + size)
    moved = 0
    for value, size in tail.runs():
        if _order(value, a_min) < 0:
            break
        moved += size
        runs.append((value, size))
    # the tail's runs are already in order, so the sort merges them with the factors'
    runs.sort(key=lambda run: _by_value(run[0]), reverse=True)
    return _from_runs(runs, tail.rest(moved))


class ConvexityVerdict(_Record):
    """Whether the trace range of an algebra is convex (a full interval)."""

    _fields = ("convex", "certificate")

    def __init__(self, convex: bool, certificate: ConditionVerdict):
        if convex != certificate.holds:
            raise ValidationError("convexity must match its certificate")
        self.__dict__.update(convex=convex, certificate=certificate)


def convexity_verdict(spec: AlgebraSpec) -> ConvexityVerdict:
    """Convexity of the algebra's trace range.

    The range is the set of subset sums of the atom traces; it fills [0, 1]
    exactly when the merged atom sequence passes the completeness check, and
    any violation certifies a gap. Specs with no infinite tail always fail:
    their last atom has nothing after it.
    """
    certificate = kakeya_check(from_algebra(spec))
    return ConvexityVerdict(certificate.holds, certificate)
