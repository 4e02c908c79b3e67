"""Rational parsing and interval union behavior."""

import copy
import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tracerange import (
    GeometricTail,
    Interval,
    IntervalUnion,
    ParseError,
    ResourceLimitError,
    SequenceModel,
    ValidationError,
    achievable_outer,
    format_rational,
    parse_rational,
    subset_sums,
)

from tracerange import core
from tracerange.core import QUOTE_WINDOW, _check_writable, _trusted_fraction

from support import (
    REFEREE_MODELS,
    fraction_coalesce,
    fraction_complement,
    fraction_fold,
    fraction_length,
    fraction_member,
    fractions_nonnegative,
    interval_pairs,
)


def pieces_of(union: IntervalUnion) -> list[tuple[Fraction, Fraction]]:
    return [(part.lo, part.hi) for part in union]


def assert_parts(union: IntervalUnion, expected) -> None:
    """The parts, read off the grid without re-checking, equal validated
    intervals over the expected pairs; every endpoint is a ``Fraction`` in
    lowest terms, and the written parts are ``format_rational`` of each."""
    assert union.parts == tuple(Interval(lo, hi) for lo, hi in expected)
    ends = [x for part in union.parts for x in (part.lo, part.hi)]
    for x in ends:
        assert type(x) is Fraction
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    written = [format_rational(x) for x in ends]
    assert union._written_parts() == [written[i : i + 2] for i in range(0, len(written), 2)]


def endpoint_loop_complement(union: IntervalUnion, within: Interval) -> list[Interval]:
    """The complement by a walk over every endpoint: the gaps are the pairs
    of ``within``'s bounds and the parts' endpoints, an empty one skipped
    and one that starts where the last ended joined to it."""
    bounds = [within.lo, *(x for part in union for x in (part.lo, part.hi)), within.hi]
    gaps: list[list[Fraction]] = []
    for a, b in zip(bounds[0::2], bounds[1::2]):
        if a < b:
            if gaps and gaps[-1][1] == a:
                gaps[-1][1] = b
            else:
                gaps.append([a, b])
    return [Interval(a, b) for a, b in gaps]


def probes(pairs) -> list[Fraction]:
    """Every endpoint, the midpoints between neighbouring ones, and points
    just outside them."""
    points = sorted({x for pair in pairs for x in pair} | {Fraction(0)})
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return points + mids + [points[0] - Fraction(1, 5), points[-1] + Fraction(1, 5)]


class TestRationals:
    def test_parse_rational_reduces_to_lowest_terms(self):
        assert parse_rational("3/6") == Fraction(1, 2)
        assert parse_rational("-2/4") == Fraction(-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError, match="denominator must be nonzero"):
            parse_rational("-2/0")

    def test_parse_plain_and_fraction(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational(" 3/4 ") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1.5", "1/2/3", "/3", "2/"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_parse_zero_denominator(self):
        with pytest.raises(ValidationError):
            parse_rational("1/0")

    def test_format_always_includes_denominator(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(0)) == "0/1"

    @given(fractions_nonnegative)
    def test_format_parse_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_refuses_rationals_past_the_digit_limit(self):
        huge = Fraction(1, 10**5000)
        with pytest.raises(ResourceLimitError, match="16610 bits"):
            format_rational(huge)

    def test_parse_names_the_digits_past_the_limit(self):
        with pytest.raises(ParseError) as caught:
            parse_rational("1/1" + "0" * 5000)
        assert str(caught.value) == "integer of 5001 digits is past the limit of 4300 digits"
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational("1/1" + "0" * 5000 + "x")

    def test_a_malformed_rational_is_quoted_up_to_the_window(self):
        whole = "x" * QUOTE_WINDOW
        with pytest.raises(ParseError) as caught:
            parse_rational(whole)
        assert str(caught.value) == f"malformed rational {whole!r}"
        with pytest.raises(ParseError) as caught:
            parse_rational(whole + "yz")
        assert str(caught.value) == f"malformed rational {whole!r}... ({QUOTE_WINDOW + 2} characters)"


class TestTrustedFraction:
    """``_trusted_fraction`` fills ``Fraction``'s two value slots directly;
    on an interpreter whose ``Fraction`` keeps its value elsewhere, these
    fail."""

    PAIRS = [(0, 1), (1, 1), (3, 8), (-5, 7), (7, 1), (2**200 + 1, 3**90), (-(3**90), 2**127 - 1)]

    @pytest.mark.parametrize("num, den", PAIRS)
    def test_a_trusted_value_behaves_as_the_checked_one(self, num, den):
        trusted, checked = _trusted_fraction(num, den), Fraction(num, den)
        assert type(trusted) is Fraction
        assert (trusted.numerator, trusted.denominator) == (num, den)
        assert trusted == checked and not trusted != checked
        assert hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked) and str(trusted) == str(checked)
        other = Fraction(-2, 3)
        assert trusted + other == checked + other
        assert trusted * other == checked * other
        assert trusted / other == checked / other
        assert trusted - 1 == checked - 1 and 1 - trusted == 1 - checked
        assert (trusted < other) == (checked < other)
        assert trusted**2 == checked**2
        assert float(trusted) == float(checked)
        twin = pickle.loads(pickle.dumps(trusted))
        assert twin == checked and hash(twin) == hash(checked) and repr(twin) == repr(checked)
        assert copy.copy(trusted) == checked
        assert format_rational(trusted) == format_rational(checked)


@pytest.fixture
def digit_limit_640():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/text digit limit")
@pytest.mark.usefixtures("digit_limit_640")
class TestWritableGuard:
    """``_check_writable`` refuses exactly what ``format_rational`` refuses."""

    def test_the_largest_writable_numerator_passes(self):
        q = Fraction(10**640 - 1, 7)
        assert _check_writable(q) is q
        assert format_rational(q) == f"{10**640 - 1}/7"
        assert _check_writable(-q) == -q

    @pytest.mark.parametrize("q", [Fraction(10**640, 7), Fraction(-(10**640), 7), Fraction(7, 10**640)])
    def test_one_more_digit_is_refused_alike(self, q):
        with pytest.raises(ResourceLimitError) as guarded:
            _check_writable(q)
        with pytest.raises(ResourceLimitError) as written:
            format_rational(q)
        assert str(guarded.value) == str(written.value) == "output rational too large to write: 2127 bits"

    def test_no_limit_never_refuses(self):
        sys.set_int_max_str_digits(0)
        q = Fraction(1, 10**5000)
        assert _check_writable(q) is q

    def test_an_interpreter_without_a_limit_never_refuses(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        q = Fraction(10**5000, 7)
        assert _check_writable(q) is q

    @pytest.mark.parametrize("text_first", [True, False], ids=["text-first", "gaps-first"])
    def test_the_cover_and_gaps_that_inherit_its_endpoint_are_refused(self, text_first):
        # [0, 2] and [10^640, 10^640 + 2]: the second gap ends at 10^640,
        # a pair the complement takes from the cover's lowest-terms pass
        model = SequenceModel((Fraction(10**640),), GeometricTail(Fraction(1), Fraction(1, 2)))
        cover = achievable_outer(model, 1).union
        message = "output rational too large to write: 2127 bits"
        if text_first:
            with pytest.raises(ResourceLimitError, match=message):
                cover._written_parts()
        gaps = cover.complement(Interval(Fraction(-1, 7), model.total + Fraction(1, 11)))
        assert len(gaps) == 3 and gaps.parts[1].hi == 10**640
        for union in (gaps, cover):
            with pytest.raises(ResourceLimitError, match=message):
                union._written_parts()


class TestInterval:
    def test_contains_endpoints(self):
        iv = Interval(Fraction(1, 3), Fraction(1, 2))
        assert iv.contains(Fraction(1, 3))
        assert iv.contains(Fraction(1, 2))
        assert not iv.contains(Fraction(9, 16))
        assert iv.length() == Fraction(1, 6)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            Interval(Fraction(1, 2), Fraction(1, 3))

    def test_degenerate_allowed(self):
        point = Interval(Fraction(2, 7), Fraction(2, 7))
        assert point.length() == 0

    def test_integer_endpoints_become_fractions(self):
        iv = Interval(1, 2)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        assert iv == Interval(Fraction(1), Fraction(2))


class TestIntervalUnion:
    def test_abutting_intervals_merge(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(0), Fraction(1, 4)), Interval(Fraction(1, 4), Fraction(1, 2))]
        )
        assert len(union) == 1
        assert list(union) == [Interval(Fraction(0), Fraction(1, 2))]

    def test_disjoint_intervals_stay_apart(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 2), Fraction(1)), Interval(Fraction(0), Fraction(1, 4))]
        )
        assert [iv.lo for iv in union] == [Fraction(0), Fraction(1, 2)]
        assert union.total_length() == Fraction(3, 4)

    def test_overlap_coalesces(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(0), Fraction(2, 3)), Interval(Fraction(1, 3), Fraction(1))]
        )
        assert list(union) == [Interval(Fraction(0), Fraction(1))]

    def test_contains(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(0), Fraction(1, 9)), Interval(Fraction(2, 9), Fraction(1, 3))]
        )
        assert union.contains(Fraction(1, 18))
        assert union.contains(Fraction(2, 9))
        assert not union.contains(Fraction(1, 6))
        assert not union.contains(Fraction(1, 2))

    def test_complement_within(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(0), Fraction(1, 9)), Interval(Fraction(2, 9), Fraction(1, 3))]
        )
        gaps = union.complement(Interval(Fraction(0), Fraction(1, 3)))
        assert list(gaps) == [Interval(Fraction(1, 9), Fraction(2, 9))]

    def test_complement_requires_containment(self):
        union = IntervalUnion.from_intervals([Interval(Fraction(1, 2), Fraction(2))])
        with pytest.raises(ValidationError):
            union.complement(Interval(Fraction(0), Fraction(1)))

    def test_complement_joins_gaps_across_a_point(self):
        union = IntervalUnion.from_intervals(
            [
                Interval(Fraction(0), Fraction(1, 4)),
                Interval(Fraction(1, 2), Fraction(1, 2)),
                Interval(Fraction(3, 4), Fraction(1)),
            ]
        )
        gaps = union.complement(Interval(Fraction(0), Fraction(1)))
        assert list(gaps) == [Interval(Fraction(1, 4), Fraction(3, 4))]

    def test_complement_gaps_at_both_ends(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 4), Fraction(1, 3)), Interval(Fraction(1, 2), Fraction(2, 3))]
        )
        gaps = union.complement(Interval(Fraction(0), Fraction(1)))
        assert list(gaps) == [
            Interval(Fraction(0), Fraction(1, 4)),
            Interval(Fraction(1, 3), Fraction(1, 2)),
            Interval(Fraction(2, 3), Fraction(1)),
        ]

    def test_complement_of_empty_union(self):
        within = Interval(Fraction(1, 3), Fraction(2, 3))
        assert list(IntervalUnion.empty().complement(within)) == [within]

    def test_empty_union_has_no_parts(self):
        assert IntervalUnion.empty().parts == ()
        # the complement of a one-piece cover over its own bounds is built on a grid
        piece = Interval(Fraction(1, 3), Fraction(2, 3))
        gaps = IntervalUnion.from_intervals([piece]).complement(piece)
        assert gaps.parts == () and list(gaps) == [] and len(gaps) == 0
        assert gaps == IntervalUnion.empty()

    def test_complement_rejects_part_outside_within(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 4), Fraction(1, 3)), Interval(Fraction(3, 2), Fraction(2))]
        )
        with pytest.raises(ValidationError):
            union.complement(Interval(Fraction(0), Fraction(1)))

    def test_covers(self):
        big = IntervalUnion.from_intervals([Interval(Fraction(0), Fraction(1))])
        small = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 8), Fraction(1, 4)), Interval(Fraction(1, 2), Fraction(3, 4))]
        )
        assert big.covers(small)
        assert not small.covers(big)

    def test_insert(self):
        union = IntervalUnion.empty().insert(Interval(Fraction(0), Fraction(1, 2)))
        union = union.insert(Interval(Fraction(1, 2), Fraction(1)))
        assert list(union) == [Interval(Fraction(0), Fraction(1))]

    @given(st.lists(st.tuples(fractions_nonnegative, fractions_nonnegative), max_size=12))
    def test_from_intervals_invariants(self, pairs):
        parts = [Interval(min(a, b), max(a, b)) for a, b in pairs]
        union = IntervalUnion.from_intervals(parts)
        listed = list(union)
        for earlier, later in zip(listed, listed[1:]):
            assert earlier.hi < later.lo
        for part in parts:
            assert union.contains(part.lo)
            assert union.contains(part.hi)

    @given(st.lists(st.tuples(fractions_nonnegative, fractions_nonnegative), max_size=10))
    def test_membership_matches_part_scan(self, pairs):
        parts = [Interval(min(a, b), max(a, b)) for a, b in pairs]
        union = IntervalUnion.from_intervals(parts)
        for probe in [Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(13, 9)]:
            direct = any(iv.contains(probe) for iv in union)
            assert union.contains(probe) == direct


class TestSharedLowestTerms:
    """A union reduces its endpoints once, and its writer, its parts and its
    complement's parts all read that pass; each read matches the ``Fraction``
    referees whatever the order of reads."""

    @staticmethod
    def withins(total: Fraction) -> list[tuple[Fraction, Fraction]]:
        # both end gaps empty, both not (off the grid, so scale > 1), and each alone
        return [
            (Fraction(0), total),
            (Fraction(-1, 7), total + Fraction(1, 11)),
            (Fraction(0), total + Fraction(1, 11)),
            (Fraction(-1, 7), total),
        ]

    @pytest.mark.parametrize("text_first", [True, False], ids=["text-first", "gaps-first"])
    def test_covers_and_their_complements_match_the_referees(self, text_first):
        rng = random.Random(2029)
        for build in REFEREE_MODELS:
            model = build(rng)
            for depth in range(13):
                # a finite model's cut stops at its last term, so its parts are points
                cut = min(depth, len(model.prefix)) if model.finite else depth
                pieces = fraction_fold(model, cut)
                for lo, hi in self.withins(model.total):
                    cover = achievable_outer(model, depth).union
                    text = cover._written_parts() if text_first else None
                    gaps = cover.complement(Interval(lo, hi))
                    assert_parts(gaps, fraction_complement(pieces, lo, hi))
                    # the pairs handed on are those the gaps would reduce themselves
                    fresh = IntervalUnion._on_grid(gaps._den, list(gaps._ends))
                    assert gaps._lowest_terms() == fresh._lowest_terms()
                    assert text is None or text == cover._written_parts()
                assert_parts(cover, pieces)


class TestGridUnionReferee:
    """The integer-grid union against plain ``Fraction`` scans."""

    @given(interval_pairs())
    def test_from_intervals_contains_and_length(self, pairs):
        union = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in pairs)
        expected = fraction_coalesce(pairs)
        assert_parts(union, expected)
        assert len(union) == len(expected)
        assert union.total_length() == fraction_length(expected)
        for point in probes(pairs):
            assert union.contains(point) == fraction_member(expected, point)
        assert union.contains(1) == fraction_member(expected, Fraction(1))

    @given(interval_pairs(max_size=11))
    def test_insert(self, pairs):
        *rest, last = pairs or [(Fraction(1, 2), Fraction(1, 2))]
        union = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in rest)
        inserted = union.insert(Interval(*last))
        assert_parts(inserted, fraction_coalesce(pairs or [last]))

    @given(interval_pairs(), st.booleans())
    def test_complement(self, pairs, tight):
        expected = fraction_coalesce(pairs)
        union = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in pairs)
        if tight and expected:
            lo, hi = expected[0][0], expected[-1][1]
        else:
            lo, hi = Fraction(-1, 5), Fraction(13)
        gaps = union.complement(Interval(lo, hi))
        assert_parts(gaps, fraction_complement(expected, lo, hi))

    @given(interval_pairs(), st.sampled_from(["loose", "tight", "low", "high", "point"]))
    def test_complement_matches_the_endpoint_loop(self, pairs, bounds):
        union = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in pairs)
        ends = [x for part in union for x in (part.lo, part.hi)] or [Fraction(1, 2)]
        lo, hi = {
            "loose": (Fraction(-1, 5), Fraction(13)),
            "tight": (ends[0], ends[-1]),
            "low": (ends[0], Fraction(13)),
            "high": (Fraction(-1, 5), ends[-1]),
            # a degenerate ``within`` holds only an empty union or one point
            "point": (ends[0], ends[0]),
        }[bounds]
        if bounds == "point" and ends[-1] != ends[0]:
            lo, hi = ends[0], ends[-1]
        within = Interval(lo, hi)
        assert list(union.complement(within)) == endpoint_loop_complement(union, within)

    def test_complement_of_the_empty_union_in_a_point_is_empty(self):
        within = Interval(Fraction(1, 3), Fraction(1, 3))
        assert list(IntervalUnion.empty().complement(within)) == endpoint_loop_complement(IntervalUnion.empty(), within) == []

    @given(interval_pairs(), interval_pairs())
    def test_covers(self, mine, theirs):
        big = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in mine)
        small = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in theirs)
        expected = all(
            any(a <= c and d <= b for a, b in fraction_coalesce(mine))
            for c, d in fraction_coalesce(theirs)
        )
        assert big.covers(small) == expected

    @given(interval_pairs(max_size=3))
    def test_cover_parts(self, pairs):
        terms = sorted({x for pair in pairs for x in pair if x > 0}, reverse=True)
        model = SequenceModel(tuple(terms))
        for depth in range(len(terms) + 1):
            slack = model.tail_sum(depth)
            sums = {sum(c, Fraction(0)) for r in range(depth + 1) for c in combinations(terms[:depth], r)}
            expected = fraction_coalesce([(s, s + slack) for s in sums])
            assert_parts(achievable_outer(model, depth).union, expected)

    def test_reversed_part_is_refused_on_the_grid(self):
        with pytest.raises(ValidationError, match=r"interval endpoints out of order: 2 > 1"):
            IntervalUnion._on_grid(1, [2, 1])
        with pytest.raises(ValidationError, match=r"out of order: 5/3 > 4/3"):
            IntervalUnion._on_grid(3, [0, 1, 5, 4])

    def test_complement_names_the_first_part_outside(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 4), Fraction(1, 3)), Interval(Fraction(3, 2), Fraction(2)),
             Interval(Fraction(5, 2), Fraction(3))]
        )
        with pytest.raises(ValidationError, match=r"union part \[3/2, 2\] is not inside \[0, 1\]"):
            union.complement(Interval(Fraction(0), Fraction(1)))
        with pytest.raises(ValidationError, match=r"union part \[1/4, 1/3\] is not inside \[1/2, 3\]"):
            union.complement(Interval(Fraction(1, 2), Fraction(3)))

    def test_unsorted_parts_are_refused_by_value(self):
        with pytest.raises(
            ValidationError,
            match=r"sorted and strictly separated: \[1/3, 1/2\] then \[1/2, 2/3\]",
        ):
            IntervalUnion(
                (Interval(Fraction(0), Fraction(1, 4)), Interval(Fraction(1, 3), Fraction(1, 2)),
                 Interval(Fraction(1, 2), Fraction(2, 3)))
            )

    def test_every_route_gives_one_value(self):
        rng = random.Random(8191)
        for trial in range(120):
            model = REFEREE_MODELS[trial % len(REFEREE_MODELS)](rng)
            depth = rng.randint(0, 8)
            cover = achievable_outer(model, depth).union
            cut = min(depth, len(model.prefix)) if model.finite else depth
            slack = model.tail_sum(cut)
            brackets = [(s, s + slack) for s in subset_sums(model.first_terms(cut))]
            rng.shuffle(brackets)
            merged = IntervalUnion.from_intervals(Interval(lo, hi) for lo, hi in brackets)
            direct = IntervalUnion(tuple(Interval(lo, hi) for lo, hi in fraction_coalesce(brackets)))
            assert cover == merged == direct
            assert hash(cover) == hash(merged) == hash(direct)

    def test_repr_is_the_parts(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(2, 9), Fraction(1, 3)), Interval(Fraction(0), Fraction(1, 9))]
        )
        assert repr(union) == (
            "IntervalUnion(parts=(Interval(lo=Fraction(0, 1), hi=Fraction(1, 9)), "
            "Interval(lo=Fraction(2, 9), hi=Fraction(1, 3))))"
        )
        assert repr(IntervalUnion.empty()) == "IntervalUnion(parts=())"

    def test_frozen(self):
        union = IntervalUnion.from_intervals([Interval(Fraction(0), Fraction(1))])
        with pytest.raises(dataclasses.FrozenInstanceError):
            union.parts = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            union.extra = 1

    def test_copy_and_pickle_round_trip(self):
        union = IntervalUnion.from_intervals(
            [Interval(Fraction(1, 6), Fraction(1, 4)), Interval(Fraction(1, 2), Fraction(1, 2))]
        )
        for twin in (copy.copy(union), copy.deepcopy(union), pickle.loads(pickle.dumps(union))):
            assert twin == union and hash(twin) == hash(union)
            assert list(twin) == list(union)
            assert twin.contains(Fraction(1, 2)) and not twin.contains(Fraction(1, 3))

    CANTOR_TAILS = [
        GeometricTail(Fraction(1), Fraction(1, 4)),
        GeometricTail(Fraction(1, 8), Fraction(3, 7)),
        GeometricTail(Fraction(3, 4), Fraction(1, 5)),
        GeometricTail(Fraction(5, 7), Fraction(1, 3)),
    ]

    @pytest.mark.parametrize("tail", CANTOR_TAILS, ids=repr)
    def test_depth_ten_cantor_cover_and_its_gaps(self, tail):
        # 1024 pieces and 1023 gaps, read off the grid in one batch each
        model = SequenceModel((), tail)
        pieces = fraction_fold(model, 10)
        cover = achievable_outer(model, 10).union
        gaps = cover.complement(Interval(Fraction(0), model.total))
        expected_gaps = fraction_complement(pieces, Fraction(0), model.total)
        assert (len(cover), len(gaps)) == (1024, 1023)
        for union, expected in ((cover, pieces), (gaps, expected_gaps)):
            assert_parts(union, expected)
            checked = [Fraction(x, union._den) for x in union._ends]
            ends = [x for part in union.parts for x in (part.lo, part.hi)]
            assert list(map(hash, ends)) == list(map(hash, checked))
            assert list(map(repr, ends)) == list(map(repr, checked))
            for part, (lo, hi) in zip(union.parts, expected):
                assert type(part) is Interval
                with pytest.raises(dataclasses.FrozenInstanceError):
                    part.lo = hi
                validated = Interval(lo, hi)
                assert part == validated and hash(part) == hash(validated)
                for twin in (pickle.loads(pickle.dumps(part)), copy.copy(part), copy.deepcopy(part)):
                    assert twin == validated and hash(twin) == hash(validated)

    @pytest.mark.parametrize("text_first", [True, False], ids=["text-first", "gaps-first"])
    @pytest.mark.parametrize("tail", CANTOR_TAILS, ids=repr)
    def test_one_gcd_per_endpoint_for_the_text_and_the_gaps(self, tail, text_first, monkeypatch):
        # the gaps' 2046 endpoints are the cover's inner ones: they share the
        # cover's 2048 reductions, whichever is read first, where a pass of
        # their own would make it 4,094, plus one per union built
        model = SequenceModel((), tail)
        cover = achievable_outer(model, 10).union
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def gcd(*args):
                calls.append(args)
                return math.gcd(*args)

        monkeypatch.setattr(core, "math", CountingMath())
        within = Interval(Fraction(0), model.total)
        if text_first:
            text = cover._written_parts()
            gaps = cover.complement(within).parts
        else:
            gaps = cover.complement(within).parts
            text = cover._written_parts()
        assert (len(text), len(gaps)) == (1024, 1023)
        assert len(calls) <= 2048 + 4

    def test_reading_parts_runs_no_checked_constructor(self, monkeypatch):
        model = SequenceModel((), self.CANTOR_TAILS[0])
        union = achievable_outer(model, 10).union
        assert len(union) == 1024 and union._parts is None
        calls = {"Fraction.__new__": 0, "Interval.__init__": 0}
        fraction_new, init = Fraction.__new__, Interval.__init__

        def counted_new(cls, *args, **kwargs):
            calls["Fraction.__new__"] += 1
            return fraction_new(cls, *args, **kwargs)

        def counted_init(self, lo, hi):
            calls["Interval.__init__"] += 1
            init(self, lo, hi)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(Interval, "__init__", counted_init)
        parts = union.parts
        assert calls == {"Fraction.__new__": 0, "Interval.__init__": 0}
        assert len(parts) == 1024
        # the spies do count the checked constructors
        Interval(Fraction(1, 3), Fraction(1, 2))
        assert calls["Fraction.__new__"] == 2 and calls["Interval.__init__"] == 1
        # a second read returns the memo, and a union built from parts keeps them as given
        assert union.parts is parts and IntervalUnion(parts).parts is parts
