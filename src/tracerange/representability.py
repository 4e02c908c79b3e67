"""Reachability of targets as subset sums of a sequence.

The central test is the completeness condition of Kakeya type: every term
must be at most the sum of all later terms, a_n <= sum_{k>n} a_k. When it
holds, the greedy rule below reaches every target in [0, total] with a
residual certified to stay within the remaining tail at every step; when it
fails at index n, the whole open interval (sum_{k>n} a_k, a_n) is a hole no
subset sum can enter, which :func:`gap_certificate` hands out.

The greedy rule, run against target r with partial result r_0 = 0:

    take term n exactly when r - r_{n-1} >= a_n

Equality takes the term, which is what makes expansions of exactly
representable targets terminate in zeros instead of trailing maximal runs.

The expansion and its verification run on integers: terms, total and
target share one denominator, each step is an integer compare and subtract,
and the ``Fraction`` results are built once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import DomainError, OutOfSupportError, ValidationError
from .sequences import GeometricTail, SequenceModel, _check_index, _integer_terms

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a termwise condition check.

    ``gap`` pairs the violated bound with the violating term, as an open
    interval (bound, term); it exists exactly when a violation does.
    """

    holds: bool
    first_violation: Optional[int] = None
    gap: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.holds != (self.first_violation is None):
            raise ValidationError("verdict must carry a violation index iff it fails")
        if (self.gap is None) != (self.first_violation is None):
            raise ValidationError("gap must be present iff there is a violation")
        if self.gap is not None:
            lo, hi = self.gap
            if not lo < hi:
                raise ValidationError(f"gap must be a nonempty open interval, got ({lo}, {hi})")


@dataclass(frozen=True)
class BitExpansion:
    """Result of a greedy expansion: bits taken, their exact sum, and what is
    left of the target together with the tail mass still available."""

    bits: tuple[int, ...]
    achieved: Fraction
    residual: Fraction
    residual_bound: Fraction


def _violations(model: SequenceModel, depth: int) -> Iterator[tuple[int, tuple[Fraction, Fraction]]]:
    """Each index n <= depth with a_n > sum_{k>n} a_k, in order, with its gap
    (sum_{k>n} a_k, a_n).

    Prefix indices are checked one by one. Tails settle in closed form: a
    geometric tail violates at every one of its indices exactly when
    ratio < 1/2, and each step scales its term and the tail after it by the
    ratio; a radix-block tail never violates (block ends land exactly on the
    remaining tail); a zero tail has no indices, and the last in-support term
    is then a guaranteed violation since nothing follows it.
    """
    prefix = model.prefix
    for n in range(1, min(depth, len(prefix)) + 1):
        term, rest = prefix[n - 1], model.tail_sum(n)
        if term > rest:
            yield n, (rest, term)
    tail = model.tail
    if isinstance(tail, GeometricTail) and tail.ratio < _HALF:
        term, rest = tail.first, tail.total - tail.first
        for n in range(len(prefix) + 1, depth + 1):
            yield n, (rest, term)
            term *= tail.ratio
            rest *= tail.ratio


def kakeya_check(model: SequenceModel) -> ConditionVerdict:
    """Check a_n <= sum_{k>n} a_k at every index, reporting the least failure.

    Past the prefix the first tail index settles the rest (see
    ``_violations``), so the scan stops there.
    """
    found = next(_violations(model, len(model.prefix) + 1), None)
    if found is None:
        return ConditionVerdict(True)
    n, gap = found
    return ConditionVerdict(False, n, gap)


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
    # every term, the total and the target over one denominator
    den, remaining, numerators = _integer_terms(model, bit_count, target.denominator)
    goal = target.numerator * (den // target.denominator)
    residual = goal
    bits: list[int] = []
    for n, a in enumerate(numerators, start=1):
        remaining -= a
        if residual >= a:
            bits.append(1)
            residual -= a
        else:
            bits.append(0)
        if certified:
            assert 0 <= residual <= remaining, (
                f"greedy residual {Fraction(residual, den)} escaped "
                f"[0, {Fraction(remaining, den)}] at step {n}"
            )
    return BitExpansion(
        tuple(bits),
        Fraction(goal - residual, den),
        Fraction(residual, den),
        Fraction(remaining, den),
    )


def verify_expansion(model: SequenceModel, bits, target) -> Fraction:
    """Exact |target - sum of selected terms| for an explicit bit vector.

    Entries must be 0 or 1. A set bit past the support of a finite model is
    an error; clear bits there select nothing and are allowed. The first
    offending entry decides which error is raised.
    """
    target = Fraction(target)
    bits = tuple(bits)
    den, _, numerators = _integer_terms(model, len(bits), target.denominator)
    achieved = 0
    for i, bit in enumerate(bits, start=1):
        if bit not in (0, 1):
            raise ValidationError(f"bit {i} must be 0 or 1, got {bit!r}")
        a = next(numerators, None)
        if bit == 1:
            if a is None:
                raise OutOfSupportError(i, len(model.prefix))
            achieved += a
    return Fraction(abs(target.numerator * (den // target.denominator) - achieved), den)


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


def list_violations(model: SequenceModel, depth: int) -> list[tuple[int, tuple[Fraction, Fraction]]]:
    """All violating indices up to ``depth`` with their gap certificates.

    Only a violating geometric tail is stepped term by term; every other
    tail is settled in closed form at the end of the prefix.
    """
    _check_index(depth, 0, "depth")
    return list(_violations(model, depth))
