"""Sums, closed forms and order tests made on integers.

The request path adds, multiplies and compares rationals on their integer
numerators and denominators and builds each answer value once, in lowest
terms. A seeded referee holds every such value to plain ``Fraction``
arithmetic, and a counter contract pins that a cover request calls no
``Fraction`` operator from the package at all.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tracerange import GeometricTail, Interval, MixedRadixTail, SequenceModel, achievable_outer, parse_spec
from tracerange.serialize import approximation_to_doc

from support import REFEREE_MODELS, RUN_FORM_MODELS, fraction_terms, run_cuts

F = Fraction


def same(got, want: Fraction) -> bool:
    """The same value, in lowest terms with a positive denominator, as
    plain ``Fraction`` arithmetic keeps it."""
    return type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)


def plain_tail_total(tail) -> Fraction:
    if isinstance(tail, GeometricTail):
        return tail.first / (1 - tail.ratio)
    if isinstance(tail, MixedRadixTail):
        return tail.scale
    return F(0)


class TestIntegerFormsReferee:
    @pytest.mark.parametrize("seed", range(4))
    def test_sums_and_terms_match_plain_fraction_arithmetic(self, seed):
        rng = random.Random(f"integer-forms:{seed}")
        for build in (*REFEREE_MODELS, *RUN_FORM_MODELS) * 5:
            model = build(rng)
            cuts = run_cuts(model, rng)
            terms = fraction_terms(model, max(cuts) + 1)
            total = sum(model.prefix, F(0)) + plain_tail_total(model.tail)
            assert same(model.total, total), model
            for n in cuts:
                head = sum(terms[:n], F(0))
                assert same(model.tail_sum(n), total - head), (model, n)
                assert same(model.partial_sum(n), head), (model, n)
                if 0 < n <= len(terms):
                    assert same(model.term(n), terms[n - 1]), (model, n)

    def test_tail_closed_forms_match_plain_fraction_arithmetic(self):
        rng = random.Random("tail-closed-forms")
        for build in (*REFEREE_MODELS, *RUN_FORM_MODELS) * 20:
            tail = build(rng).tail
            if not isinstance(tail, (GeometricTail, MixedRadixTail)):
                continue
            total = plain_tail_total(tail)
            terms = fraction_terms(SequenceModel((), tail), 40)
            assert same(tail.total, total), tail
            for j in (0, 1, 2, 3, 7, rng.randint(8, 39)):
                after = total - sum(terms[:j], F(0))
                assert same(tail.sum_after(j), after), (tail, j)
                assert same(tail.rest(j).total, after), (tail, j)
                if j:
                    assert same(tail.term(j), terms[j - 1]), (tail, j)
            if isinstance(tail, GeometricTail):
                j = rng.randint(1, 30)
                assert same(tail.sum_after(j), tail.first / (1 - tail.ratio) * tail.ratio**j), (tail, j)
                assert same(tail.rest(j).first, tail.first * tail.ratio**j), (tail, j)


# Fraction's arithmetic and ordering operators, with their reflections
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__pow__", "__rpow__", "__lt__", "__le__", "__gt__", "__ge__",
)


def cover_specs(rng: random.Random) -> list[str]:
    """Cover-shaped specs: dyadic geometric, radix, finite lists of
    multiples of 1/d whose sums collide, Cantor-like geometric, and a
    prefix above a geometric tail."""
    specs = []
    for _ in range(6):
        k = rng.randint(0, 5)
        specs.append(f"geo({rng.randrange(1, 2**k + 1, 2)}/{2**k}, 1/2)")
        period = " ".join(str(rng.randint(2, 6)) for _ in range(rng.randint(1, 3)))
        specs.append(f"radix({rng.randint(1, 9)}/{rng.randint(1, 9)}; {rng.randint(2, 6)} | {period})")
        d = rng.choice((6, 8, 10, 12))
        values = sorted((F(rng.randint(1, d), d) for _ in range(rng.randint(4, 12))), reverse=True)
        specs.append(", ".join(f"{v.numerator}/{v.denominator}" for v in values))
        q = rng.randint(3, 9)
        specs.append(f"geo({rng.randint(1, 9)}/{rng.randint(1, 9)}, {rng.randint(1, (q - 1) // 2)}/{q})")
        specs.append(f"1, 1, 2/3, geo({rng.randint(1, 4)}/{rng.randint(7, 9)}, {rng.randint(1, 3)}/4)")
    return specs


class TestCoverCallsNoFractionOperator:
    """Counts, not times: a cover request, from its spec to its document,
    its point queries and its gaps, makes its sums and comparisons on
    integers, so no ``Fraction`` operator runs from a package frame."""

    def test_cover_requests_call_no_fraction_operator(self, monkeypatch):
        rng = random.Random("cover-counter")
        requests = []
        for spec in cover_specs(rng):
            for depth in range(2, 11):
                points = (F(0), F(rng.randint(0, 60), rng.randint(1, 30)), F(1, 3))
                requests.append((spec, depth, points))
        calls = Counter()

        def counted(name, original):
            def spy(*args):
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("tracerange."):
                    calls[name, caller] += 1
                return original(*args)

            return spy

        # the spy does count: ``Interval.length`` subtracts in a package frame
        monkeypatch.setattr(Fraction, "__sub__", counted("__sub__", Fraction.__sub__))
        assert Interval(1, 3).length() == 2 and calls == {("__sub__", "tracerange.core"): 1}
        monkeypatch.undo()
        calls.clear()

        for name in OPERATORS:
            monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
        for spec, depth, points in requests:
            model = parse_spec(spec)
            approx = achievable_outer(model, depth)
            approximation_to_doc(approx)
            [approx.union.contains(p) for p in points]
            gaps = approx.union.complement(Interval(0, model.total))
            [(part.lo, part.hi) for part in gaps]
        monkeypatch.undo()
        assert not calls, dict(calls)
