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
another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from .core import IntervalUnion, ZERO, _Record, _check_ceiling, _coalesce, _over
from .errors import ValidationError
from .representability import ConditionVerdict, _excesses, kakeya_check
from .sequences import AlgebraSpec, SequenceModel, _check_index, _leading_runs, from_algebra

def subset_sums(terms: Sequence) -> list[Fraction]:
    """All distinct subset sums, ascending, by iterated sorted merge."""
    values = [Fraction(t) for t in terms]
    _check_ceiling("terms", len(values))
    sums = [ZERO]
    for a in values:
        # the sort merges the two sorted runs, and groupby keeps each sum once
        sums = [s for s, _ in groupby(sorted(sums + [s + a for s in sums]))]
    return sums


class SubsetSumOracle:
    """Hash-based representability table with witnesses.

    Builds a meet-in-the-middle pair of half tables, sum -> chosen indices
    over each half of the term list (Horowitz and Sahni, J. ACM 21(2),
    1974), at every length. The enumeration route is disjoint from both
    ``subset_sums`` and the greedy expansion, which is the point: it serves
    as the independent referee. Sums are kept as integers over the lcm of
    the term denominators, which the oracle computes itself.
    """

    def __init__(self, terms: Sequence):
        values = tuple(Fraction(t) for t in terms)
        _check_ceiling("terms", len(values))
        self._den = math.lcm(*(t.denominator for t in values))
        self._terms = tuple(t.numerator * (self._den // t.denominator) for t in values)
        half = len(self._terms) // 2
        self._left = self._enumerate(self._terms[:half], 0)
        self._right = self._enumerate(self._terms[half:], half)

    @staticmethod
    def _enumerate(terms: tuple[int, ...], base: int) -> dict:
        table: dict[int, tuple[int, ...]] = {0: ()}
        for offset, a in enumerate(terms):
            additions = {}
            for value, chosen in table.items():
                candidate = value + a
                if candidate not in table and candidate not in additions:
                    additions[candidate] = chosen + (base + offset,)
            table.update(additions)
        return table

    def _find(self, target: Fraction) -> Optional[tuple[int, ...]]:
        if self._den % target.denominator:
            return None  # every subset sum is a multiple of 1 / den
        target = target.numerator * (self._den // target.denominator)
        for value, chosen in self._left.items():
            match = self._right.get(target - value)
            if match is not None:
                return chosen + match
        return None

    def representable(self, target) -> bool:
        return self._find(Fraction(target)) is not None

    def witness(self, target) -> Optional[tuple[int, ...]]:
        """A bit vector over the term list reaching ``target``, or None."""
        chosen = self._find(Fraction(target))
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
