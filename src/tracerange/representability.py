"""Reachability of targets as subset sums of a sequence.

The central test is the completeness condition of Kakeya type: every term
must be at most the sum of all later terms, a_n <= sum_{k>n} a_k. When it
holds, the greedy rule below reaches every target in [0, total] with a
residual certified to stay within the remaining tail at every step; when it
fails at index n, the whole open interval (sum_{k>n} a_k, a_n) is a hole no
subset sum can enter, which :func:`gap_certificate` hands out.

Membership in the unit-anchored body (``extreme_points``) is the same test
with a slack, a_n <= sigma + sum_{k>n} a_k with sigma = 1 - total. One
forward generator, ``_excesses``, settles it for any sigma, and every
condition check and the cover's cut read it; each tail family holds its
closed form once, in its ``excesses`` method. The prefix runs and a radix
tail's blocks are read by one run rule, ``sequences._run_excesses``.

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
from fractions import Fraction
from itertools import takewhile
from typing import Iterator, Optional

from .core import _plus, _Record, _check_ceiling, _reduced, _trusted_fraction
from .errors import DomainError, ValidationError
from .sequences import SequenceModel, _block_ones, _check_index, _checked_bits, _count, _leading_runs, _run_excesses


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
            if lo.numerator * hi.denominator >= hi.numerator * lo.denominator:
                raise ValidationError(f"gap must be a nonempty open interval, got ({lo}, {hi})")
        self.__dict__.update(holds=holds, first_violation=first_violation, gap=gap)


class BitExpansion(_Record):
    """Result of a greedy expansion: bits taken, their exact sum, and what is
    left of the target together with the tail mass still available."""

    _fields = ("bits", "achieved", "residual", "residual_bound")

    def __init__(self, bits: tuple[int, ...], achieved: Fraction, residual: Fraction, residual_bound: Fraction):
        self.__dict__.update(bits=bits, achieved=achieved, residual=residual, residual_bound=residual_bound)


def _excesses(model: SequenceModel, sigma) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """Each index n with a_n > sigma + sum_{k>n} a_k, in order, with its gap
    (sigma + sum_{k>n} a_k, a_n).

    Completeness is sigma = 0; membership in the unit-anchored body is
    sigma = 1 - total. The prefix is read per run by the run rule
    (``_run_excesses``): the violations of a run are a suffix of it, so
    only violating indices are visited; an empty prefix reads nothing of
    the model. The tail's ``excesses`` settles the rest in closed form,
    yielding endless runs lazily:

    * geometric: one run from the first violating index;
    * radix: none for sigma >= 0, otherwise a suffix of every block;
    * zero: none, so a finite model's last term violates at sigma = 0.
    """
    sigma = sigma or 0  # a zero slack is never added
    if model._runs:
        # the room after each run: the prefix after it, an integer pair,
        # lifted by the tail and the slack
        lift = _plus(sigma.numerator, sigma.denominator, model.tail.total)
        yield from _run_excesses(zip(model._runs, model._run_sums[1:]), lift)
    offset = model._length
    for j, gap in model.tail.excesses(sigma):
        yield offset + j, gap


def _least_violation(model: SequenceModel, sigma) -> ConditionVerdict:
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
    return _least_violation(model, 0)


def greedy_expand(model: SequenceModel, target, bit_count: int) -> BitExpansion:
    """Greedily expand ``target`` over the first ``bit_count`` terms.

    Requires 0 <= target <= total. On finite models the expansion stops at
    the support; more steps than the entries ceiling of ``core._CEILINGS``
    (1,000,000) raise ResourceLimitError before the first, on finite models
    of more terms too. When the
    completeness condition holds the residual is asserted, at every step,
    to sit inside [0, tail after that step]; with total 1 that bound is
    exactly 1 minus the partial sum of terms seen.
    """
    target = target if type(target) is Fraction else Fraction(target)
    _check_index(bit_count, 0, "bit count")
    total = model.total
    t, u = target.numerator, target.denominator
    if not 0 <= t * total.denominator <= total.numerator * u:
        raise DomainError(f"target {target} outside [0, {total}]")
    steps = min(bit_count, model._length) if model.finite else bit_count
    _check_ceiling("entries", steps)
    certified = kakeya_check(model).holds
    lead = _leading_runs(model, min(steps, model._length))  # the prefix runs the steps reach, the last cut
    # the prefix steps over its own lcm, with the total so the room is exact
    den = math.lcm(u, total.denominator, *(x.denominator for x, _ in lead))
    residual = t * (den // u)
    remaining = total.numerator * (den // total.denominator)
    bits: list[int] = []
    for x, count in lead:
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
        rest = _reduced(residual, den)
    # target - rest: the small target first, so no gcd takes the residual's size
    achieved = _plus(t, u, _trusted_fraction(-rest.numerator, rest.denominator))
    return BitExpansion(tuple(bits), achieved, rest, model.tail_sum(steps))


def verify_expansion(model: SequenceModel, bits, target) -> Fraction:
    """Exact |target - sum of selected terms| for an explicit bit vector.

    Entries must be 0 or 1. A set bit past the support of a finite model is
    an error; clear bits there select nothing and are allowed. The first
    offending entry decides which error is raised.
    """
    target = target if type(target) is Fraction else Fraction(target)
    bits = _checked_bits(bits, model.support)
    # each prefix run's value, with the ones of the bits that it holds
    ones = _block_ones(bits[: model._length], map(_count, model._runs))
    lead = [(x, d) for (x, _), d in zip(model._runs, ones) if d]
    den = math.lcm(target.denominator, *(x.denominator for x, _ in lead))
    chosen = sum(d * x.numerator * (den // x.denominator) for x, d in lead)
    selected = model.tail.numeral(bits[model._length:])
    # (target - chosen) / den - selected, the prefix's small part reduced first (``_plus``)
    left = _plus(
        target.numerator * (den // target.denominator) - chosen, den,
        _trusted_fraction(-selected.numerator, selected.denominator),
    )
    return left if left.numerator >= 0 else _trusted_fraction(-left.numerator, left.denominator)


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
    """All violating indices up to ``depth`` with their gap certificates.

    A list that would hold more than the entries ceiling of
    ``core._CEILINGS`` is refused before its first entry past it, so a deep
    scan with few violations still answers. The only tail that violates is
    a geometric one of ratio below 1/2, which does so at every index, so its
    first violation fixes the count up to ``depth`` before its gap is listed.
    """
    found = []
    for n, gap in _violations(model, depth):
        _check_ceiling("entries", len(found) + 1 + (depth - n if n > model._length else 0))
        found.append((n, gap))
    return found
