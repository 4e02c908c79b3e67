"""Reachability of targets as subset sums of a sequence.

The central test is the completeness condition of Kakeya type: every term
must be at most the sum of all later terms, a_n <= sum_{k>n} a_k. When it
holds, the greedy rule below reaches every target in [0, total] with a
residual certified to stay within the remaining tail at every step; when it
fails at index n, the whole open interval (sum_{k>n} a_k, a_n) is a hole no
subset sum can enter, which :func:`gap_certificate` hands out.

Membership in the unit-anchored body (``extreme_points``) is the same test
with a slack, a_n <= sigma + sum_{k>n} a_k with sigma = 1 - total. One
generator, ``_excesses``, settles it for any sigma, and every condition
check reads it; each tail family holds its closed form once, in its
``excesses`` method. The prefix scan, ``_prefix_excesses``, reads the
prefix per run with the same run rule as a radix tail's blocks, and takes
the indices forwards or backwards, so the cover can look back from its cut
for the last violation.

The greedy rule, run against target r with partial result r_0 = 0:

    take term n exactly when r - r_{n-1} >= a_n

Equality takes the term, which is what makes expansions of exactly
representable targets terminate in zeros instead of trailing maximal runs.

The expansion runs on integers and builds its ``Fraction`` results once
at the end. The prefix steps over its own common denominator a run at a
time, ones while they fit and then zeros, checked at the run's end where
its room is tightest; the tail's ``greedy`` then steps the residual in
units of the current term (for a geometric tail, Renyi's
beta-transformation), so the integers grow with the ratio's numerator
rather than with the terms' common denominator, and over a radix block not
at all, checked by an integer test at every step. ``verify_expansion`` is
the independent referee: it counts each prefix run's ones and reads the
tail's bits as one numeral (``numeral``), sharing no step with the greedy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import takewhile
from typing import Iterator, Optional

from .core import _Record
from .errors import DomainError, ValidationError
from .sequences import SequenceModel, _check_index, _checked_bits, _run_excess_start, _run_sum


class ConditionVerdict(_Record):
    """Outcome of a termwise condition check.

    ``gap`` pairs the violated bound with the violating term, as an open
    interval (bound, term); it exists exactly when a violation does.
    """

    _fields = ("holds", "first_violation", "gap")

    def __init__(
        self, holds: bool, first_violation: Optional[int] = None, gap: Optional[tuple[Fraction, Fraction]] = None
    ):
        if holds != (first_violation is None):
            raise ValidationError("verdict must carry a violation index iff it fails")
        if (gap is None) != (first_violation is None):
            raise ValidationError("gap must be present iff there is a violation")
        if gap is not None:
            lo, hi = gap
            if not lo < hi:
                raise ValidationError(f"gap must be a nonempty open interval, got ({lo}, {hi})")
        self.__dict__.update(holds=holds, first_violation=first_violation, gap=gap)


class BitExpansion(_Record):
    """Result of a greedy expansion: bits taken, their exact sum, and what is
    left of the target together with the tail mass still available."""

    _fields = ("bits", "achieved", "residual", "residual_bound")

    def __init__(self, bits: tuple[int, ...], achieved: Fraction, residual: Fraction, residual_bound: Fraction):
        self.__dict__.update(bits=bits, achieved=achieved, residual=residual, residual_bound=residual_bound)


def _prefix_excesses(model: SequenceModel, sigma, indices: range) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """Each prefix index n of ``indices`` (a range of step 1 or -1), in
    their order, with a_n > sigma + sum_{k>n} a_k, with its gap; a zero
    slack is never added, and an empty range reads nothing of the model.

    The prefix is read per run. By the run rule (``_run_excess_start``) the
    violations of a run are a suffix of it, so a run whose last slot holds
    is passed over with one comparison, and only violating indices are
    visited.
    """
    if not indices:
        return
    runs, ends, sums = model._runs, model._run_ends, model._run_sums
    lift = model.tail.total + sigma if sigma else model.tail.total
    step = indices.step
    for r in range(bisect_left(ends, indices[0]), bisect_left(ends, indices[-1]) + step, step):
        value, count = runs[r]
        room = sums[r + 1] + lift if lift else sums[r + 1]
        if value <= room:
            continue
        end = ends[r]
        lo, hi = (indices[0], indices[-1])[::step]
        found = range(max(end - count + _run_excess_start(value, count, room), lo), min(end, hi) + 1)
        for n in found[::step]:
            yield n, (room + _run_sum((value, end - n)) if n < end else room, value)


def _excesses(model: SequenceModel, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """Each index n with a_n > sigma + sum_{k>n} a_k, in order, with its gap
    (sigma + sum_{k>n} a_k, a_n).

    Completeness is sigma = 0; membership in the unit-anchored body is
    sigma = 1 - total. The prefix is checked per run of equal terms, whose
    violations are a suffix of the run; the tail's ``excesses`` settles the
    rest in closed form, yielding endless runs lazily:

    * geometric: one run from the first violating index;
    * radix: none for sigma >= 0, otherwise a suffix of every block;
    * zero: none, so a finite model's last term violates at sigma = 0.
    """
    sigma = sigma or 0  # a zero slack is never added
    offset = model._length
    yield from _prefix_excesses(model, sigma, range(1, offset + 1))
    for j, gap in model.tail.excesses(sigma):
        yield offset + j, gap


def _first_excess(model: SequenceModel, sigma) -> ConditionVerdict:
    """The least index violating a_n <= sigma + sum_{k>n} a_k, as a verdict."""
    found = next(_excesses(model, sigma), None)
    if found is None:
        return ConditionVerdict(True)
    n, gap = found
    return ConditionVerdict(False, n, gap)


def kakeya_check(model: SequenceModel) -> ConditionVerdict:
    """Check a_n <= sum_{k>n} a_k at every index, reporting the least failure.

    Tails settle in closed form (see ``_excesses``), so the scan is finite.
    """
    return _first_excess(model, 0)


def greedy_expand(model: SequenceModel, target, bit_count: int) -> BitExpansion:
    """Greedily expand ``target`` over the first ``bit_count`` terms.

    Requires 0 <= target <= total. On finite models the expansion stops at
    the support. When the completeness condition holds the residual is
    asserted, at every step, to sit inside [0, tail after that step]; with
    total 1 that bound is exactly 1 minus the partial sum of terms seen.
    """
    target = Fraction(target)
    _check_index(bit_count, 0, "bit count")
    if not (0 <= target <= model.total):
        raise DomainError(f"target {target} outside [0, {model.total}]")
    certified = kakeya_check(model).holds
    steps = min(bit_count, model._length) if model.finite else bit_count
    lead = model._runs[: bisect_left(model._run_ends, steps) + 1]  # the runs the steps reach
    # the prefix steps over its own lcm, with the total so the room is exact
    total = model.total
    den = math.lcm(target.denominator, total.denominator, *(x.denominator for x, _ in lead))
    residual = target.numerator * (den // target.denominator)
    remaining = total.numerator * (den // total.denominator)
    bits: list[int] = []
    for x, count in lead:
        count = min(count, steps - len(bits))
        a = x.numerator * (den // x.denominator)
        took = min(count, residual // a)
        residual -= took * a
        remaining -= count * a
        bits += (1,) * took + (0,) * (count - took)
        if certified:
            assert 0 <= residual <= remaining, (
                f"greedy residual {Fraction(residual, den)} escaped "
                f"[0, {Fraction(remaining, den)}] at step {len(bits)}"
            )
    if steps > len(bits):  # past the whole prefix the tail steps on
        tail_bits, rest = model.tail.greedy(residual, den, steps - len(bits), certified)
        bits += tail_bits
    else:
        rest = Fraction(residual, den)
    return BitExpansion(tuple(bits), target - rest, rest, model.tail_sum(steps))


def verify_expansion(model: SequenceModel, bits, target) -> Fraction:
    """Exact |target - sum of selected terms| for an explicit bit vector.

    Entries must be 0 or 1. A set bit past the support of a finite model is
    an error; clear bits there select nothing and are allowed. The first
    offending entry decides which error is raised.
    """
    target = Fraction(target)
    bits = _checked_bits(bits, model.support)
    # the ones in the slice of the bits of each prefix run they reach, times its value
    ends = model._run_ends[: bisect_left(model._run_ends, len(bits)) + 1]
    lead = [(x, d) for (x, _), start, end in zip(model._runs, (0,) + ends, ends) if (d := bits[start:end].count(1))]
    den = math.lcm(target.denominator, *(x.denominator for x, _ in lead))
    chosen = sum(d * x.numerator * (den // x.denominator) for x, d in lead)
    left = Fraction(target.numerator * (den // target.denominator) - chosen, den)
    return abs(left - model.tail.numeral(bits[model._length:]))


def gap_certificate(model: SequenceModel, n: int) -> tuple[Fraction, Fraction]:
    """The open interval (sum_{k>n} a_k, a_n) of unreachable targets.

    Only defined when index n actually violates the completeness condition;
    every value strictly inside the interval differs from every subset sum.
    """
    _check_index(n, 1)
    term = model.term(n)
    rest = model.tail_sum(n)
    if term <= rest:
        raise DomainError(f"index {n} does not violate the condition: {term} <= {rest}")
    return rest, term


def _violations(model: SequenceModel, depth: int) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """The violating indices up to ``depth`` with their gap certificates,
    lazily, so a reader can stop at the first it cannot use; ``depth`` is
    checked at the call.

    Only a violating geometric tail is stepped term by term; every other
    tail is settled in closed form at the end of the prefix.
    """
    _check_index(depth, 0, "depth")
    return takewhile(lambda found: found[0] <= depth, _excesses(model, 0))


def list_violations(model: SequenceModel, depth: int) -> list[tuple[int, tuple[Fraction, Fraction]]]:
    """All violating indices up to ``depth`` with their gap certificates."""
    return list(_violations(model, depth))
