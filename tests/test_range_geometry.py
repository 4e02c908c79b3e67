"""Subset-sum enumeration, outer covers, and convexity verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tracerange import (
    AlgebraSpec,
    ConditionVerdict,
    ConvexityVerdict,
    GeometricTail,
    Interval,
    IntervalUnion,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    ResourceLimitError,
    SequenceModel,
    SubsetSumOracle,
    ValidationError,
    achievable_outer,
    convexity_verdict,
    kakeya_check,
    make_model,
    split_leading,
    subset_sums,
)

from support import (
    REFEREE_MODELS,
    all_threes,
    cantor_like,
    dyadic,
    fraction_fold,
    fraction_violations,
    random_cantor_model,
    random_colliding_model,
    random_complete_model,
    random_finite_model,
    random_prefixed_model,
    random_radix_model,
)

F = Fraction


class TestSubsetSums:
    def test_distinct_terms(self):
        sums = subset_sums([F(1, 2), F(1, 4), F(1, 8)])
        assert sums == [F(k, 8) for k in range(8)]

    def test_collisions_are_deduplicated(self):
        sums = subset_sums([F(1, 2), F(1, 4), F(1, 4)])
        assert sums == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]

    def test_empty_input(self):
        assert subset_sums([]) == [F(0)]

    def test_term_bound(self):
        too_many = [F(1, n) for n in range(2, 27)]
        with pytest.raises(ResourceLimitError):
            subset_sums(too_many)

    def test_term_bound_override(self):
        with pytest.raises(ResourceLimitError):
            subset_sums([F(1, n) for n in range(2, 8)], bound=4)
        assert len(subset_sums([F(1, 2), F(1, 3)], bound=2)) == 4

    @given(st.lists(st.fractions(min_value=0, max_value=4), max_size=7))
    def test_sorted_and_complete(self, terms):
        sums = subset_sums(terms)
        assert list(sums) == sorted(set(sums))
        assert sums[0] == 0
        assert sums[-1] == sum(terms, F(0))


class TestSubsetSumOracle:
    def test_matches_enumeration(self):
        terms = [F(1, 2), F(1, 3), F(1, 5)]
        oracle = SubsetSumOracle(terms)
        reachable = set(subset_sums(terms))
        for value in sorted(reachable):
            assert oracle.representable(value)
        assert not oracle.representable(F(1, 7))
        assert not oracle.representable(F(-1, 2))

    def test_witness_replays(self):
        terms = [F(1, 2), F(1, 4), F(1, 4)]
        oracle = SubsetSumOracle(terms)
        bits = oracle.witness(F(3, 4))
        assert len(bits) == 3
        assert sum(t for b, t in zip(bits, terms) if b) == F(3, 4)

    def test_witness_for_unreachable_value(self):
        oracle = SubsetSumOracle([F(1, 2), F(1, 4)])
        assert oracle.witness(F(1, 3)) is None

    def test_meet_in_middle_path(self):
        # 18 terms forces the split enumeration
        terms = [F(1, 2**i) for i in range(1, 19)]
        oracle = SubsetSumOracle(terms)
        bits = oracle.witness(F(5, 16))
        assert bits is not None
        assert sum(t for b, t in zip(bits, terms) if b) == F(5, 16)
        assert not oracle.representable(F(1, 3))

    def test_representable_and_witness_on_two_terms(self):
        oracle = SubsetSumOracle((F(2, 5), F(1, 5)))
        assert oracle.representable(F(3, 5))
        assert oracle.witness(F(2, 5)) == (1, 0)
        assert oracle.witness(F(4, 5)) is None

    @given(
        st.lists(st.fractions(min_value=0, max_value=2), min_size=1, max_size=6),
        st.fractions(min_value=0, max_value=3),
    )
    def test_agrees_with_enumeration(self, terms, probe):
        oracle = SubsetSumOracle(terms)
        expected = probe in set(subset_sums(terms))
        assert oracle.representable(probe) == expected
        bits = oracle.witness(probe)
        if expected:
            assert bits is not None
            assert sum(t for b, t in zip(bits, terms) if b) == probe
        else:
            assert bits is None


class TestAchievableOuter:
    def test_complete_model_covers_everything(self):
        approx = achievable_outer(dyadic(), 4)
        assert approx.depth == 4
        assert approx.exact
        assert approx.union == IntervalUnion.from_intervals([Interval(F(0), F(1))])

    def test_fast_decay_splits(self):
        approx = achievable_outer(cantor_like(), 2)
        expected = IntervalUnion.from_intervals(
            [
                Interval(F(0), F(1, 9)),
                Interval(F(2, 9), F(1, 3)),
                Interval(F(2, 3), F(7, 9)),
                Interval(F(8, 9), F(1)),
            ]
        )
        assert approx.union == expected
        assert not approx.exact

    def test_finite_model_gives_points(self):
        approx = achievable_outer(make_model([F(3, 5), F(2, 5)]), 5)
        points = [F(0), F(2, 5), F(3, 5), F(1)]
        assert approx.union == IntervalUnion.from_intervals(
            [Interval(p, p) for p in points]
        )
        assert approx.exact

    def test_prefix_cut_exactness(self):
        model = make_model([F(1, 2), F(1, 3)])
        approx = achievable_outer(model, 1)
        assert not approx.exact
        assert approx.union == IntervalUnion.from_intervals(
            [Interval(F(0), F(1, 3)), Interval(F(1, 2), F(5, 6))]
        )

    def test_depth_bound(self):
        with pytest.raises(ResourceLimitError):
            achievable_outer(dyadic(), 30)
        # a raised bound is honoured; repeated terms keep the sum set tiny
        flat = make_model([F(1, 2)] * 25)
        approx = achievable_outer(flat, 25, bound=25)
        assert approx.exact
        assert len(approx.union) == 26

    def test_radix_tail_is_exact_mid_block(self):
        # cutting inside a block keeps the exact flag without spelling the
        # block out term by term
        wide = SequenceModel((), MixedRadixTail(F(1), RadixWord((), (10**9,))))
        approx = achievable_outer(wide, 3)
        assert approx.exact
        assert approx.union.covers(
            IntervalUnion.from_intervals([Interval(F(0), F(1))])
        )

    def test_deep_cover_shrinks(self):
        coarse = achievable_outer(cantor_like(), 2)
        fine = achievable_outer(cantor_like(), 4)
        assert fine.union.total_length() < coarse.union.total_length()
        assert coarse.union.covers(fine.union)
        assert not fine.union.covers(coarse.union)

    def test_complete_models_merge_to_one_interval(self):
        rng = random.Random(2209)
        for _ in range(10):
            model = random_complete_model(rng)
            approx = achievable_outer(model, 6)
            assert approx.exact
            assert approx.union == IntervalUnion.from_intervals(
                [Interval(F(0), model.total)]
            )

    def test_complete_covers_stay_one_piece_at_the_bound(self):
        # 2^24 brackets collapse to one piece; enumerating them would take
        # minutes, so a return to subset-sum enumeration shows here
        for model in (dyadic(), all_threes()):
            approx = achievable_outer(model, 24)
            assert approx.exact
            assert approx.union == IntervalUnion((Interval(F(0), model.total),))


class TestFoldFromLastViolation:
    """The fold starts at the last violation L and appends violating steps."""

    def test_bound_is_checked_before_any_term_is_built(self, monkeypatch):
        def refuse(self, count):
            raise AssertionError(f"first_terms({count}) built before the bound check")

        monkeypatch.setattr(SequenceModel, "first_terms", refuse)
        model = SequenceModel((), GeometricTail(F(2, 3), F(2, 3)))
        with pytest.raises(ResourceLimitError, match="^1000000000 terms exceed the subset-sum bound of 24$"):
            achievable_outer(model, 10**9)

    def test_first_terms_stops_at_the_last_violation(self, monkeypatch):
        asked = []
        first_terms = SequenceModel.first_terms

        def spy(self, count):
            asked.append(count)
            return first_terms(self, count)

        monkeypatch.setattr(SequenceModel, "first_terms", spy)
        for model in (dyadic(), all_threes()):
            asked.clear()
            approx = achievable_outer(model, 2000, bound=2000)
            assert asked == [0]
            assert approx.union == IntervalUnion((Interval(F(0), model.total),))
        rng = random.Random(7741)
        for trial in range(120):
            model = REFEREE_MODELS[trial % len(REFEREE_MODELS)](rng)
            cut = rng.randint(0, 12)
            last = max((n for n, _ in fraction_violations(model, cut)), default=0)
            asked.clear()
            achievable_outer(model, cut)
            assert asked and all(count <= last for count in asked)

    def test_a_tie_with_the_union_top_still_merges(self):
        # a_k = t_k: the shifted copy touches the union's top end
        finite = make_model([F(1, 2), F(1, 4), F(1, 4)])
        points = [F(k, 4) for k in range(5)]
        assert achievable_outer(finite, 3).union == IntervalUnion(Interval(p, p) for p in points)
        tail = GeometricTail(F(1, 6), F(1, 3))
        prefixed = SequenceModel((tail.total,), tail)
        for cut in range(1, 9):
            approx = achievable_outer(prefixed, cut)
            assert approx.union == IntervalUnion(Interval(lo, hi) for lo, hi in fraction_fold(prefixed, cut))
        # [1/6, 1/4] and its copy shifted by a_1 = t_1 = 1/4 join at 1/4
        assert achievable_outer(prefixed, 2).union == IntervalUnion(
            (Interval(F(0), F(1, 12)), Interval(F(1, 6), F(1, 3)), Interval(F(5, 12), F(1, 2)))
        )

    def test_a_prefix_only_violation_fixes_the_cover(self):
        model = SequenceModel((F(1, 2),), GeometricTail(F(1, 8), F(1, 2)))
        expected = IntervalUnion((Interval(F(0), F(1, 4)), Interval(F(1, 2), F(3, 4))))
        for cut in (*range(1, 41), 2000):
            approx = achievable_outer(model, cut, bound=cut)
            assert approx.union == expected
            assert approx.exact


class TestFoldReferee:
    """The cover fold against the subset-sum route it replaced, and against
    a full ``Fraction`` fold past the last violation."""

    KINDS = (
        random_complete_model,
        lambda rng: random_finite_model(rng, max_terms=12),
        random_colliding_model,
        random_cantor_model,
        random_radix_model,
        random_prefixed_model,
    )

    def test_fold_matches_subset_sum_route(self):
        rng = random.Random(5113)
        for trial in range(300):
            model = self.KINDS[trial % len(self.KINDS)](rng)
            depth = rng.randint(0, 12)
            approx = achievable_outer(model, depth)
            cut = min(depth, len(model.prefix)) if model.finite else depth
            terms = model.first_terms(cut)
            slack = model.tail_sum(cut)
            sums = subset_sums(terms)
            assert approx.union == IntervalUnion.from_intervals(
                Interval(s, s + slack) for s in sums
            )
            oracle = SubsetSumOracle(terms)
            assert all(oracle.representable(s) for s in sums)
            assert approx.exact == kakeya_check(split_leading(model, cut)[1]).holds

    def test_fold_matches_the_full_fraction_fold_at_every_cut(self):
        # a Cantor-like tail doubles the pieces at every cut, so it stops at
        # 12; every other kind reaches 40, past what subset sums can enumerate
        rng = random.Random(6007)
        for trial in range(48):
            model = self.KINDS[trial % len(self.KINDS)](rng)
            tail = model.tail
            top = 12 if isinstance(tail, GeometricTail) and tail.ratio < F(1, 2) else 40
            cuts = range(top + 1)
            if model.finite:  # every cut past the support is the support
                cuts = (*range(len(model.prefix) + 2), top)
            for cut in cuts:
                approx = achievable_outer(model, cut, bound=40)
                cut = min(cut, len(model.prefix)) if model.finite else cut
                pieces = fraction_fold(model, cut)
                assert approx.union == IntervalUnion(Interval(lo, hi) for lo, hi in pieces)
                assert approx.exact == kakeya_check(split_leading(model, cut)[1]).holds


class TestOracleReferee:
    """The integer-keyed oracle against the sorted-merge enumeration."""

    def test_witnesses_and_membership_match_subset_sums(self):
        rng = random.Random(3141)
        for trial in range(120):
            den = rng.choice([1, 6, 12, 35, 60])
            terms = [F(rng.randint(1, 2 * den), rng.choice([1, den])) for _ in range(rng.randint(0, 17))]
            oracle = SubsetSumOracle(terms)
            sums = subset_sums(terms)
            members = set(sums)
            probes = rng.sample(sums, min(len(sums), 8))
            probes += [s + F(1, rng.choice([2, 7, 1009])) for s in probes[:4]]
            for target in probes:
                assert oracle.representable(target) == (target in members)
                witness = oracle.witness(target)
                assert (witness is not None) == (target in members)
                if witness is not None:
                    assert sum((a for a, b in zip(terms, witness) if b), F(0)) == target


class TestConvexityVerdict:
    def test_simplex_factor_alone(self):
        spec = AlgebraSpec((MatrixFactor(3, F(1)),))
        verdict = convexity_verdict(spec)
        assert not verdict.convex
        assert verdict.certificate.first_violation == 3
        assert verdict.certificate.gap == (F(0), F(1, 3))

    def test_factor_with_matching_tail(self):
        spec = AlgebraSpec((MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2)))
        assert convexity_verdict(spec).convex

    def test_heavy_scalar_factor(self):
        spec = AlgebraSpec((MatrixFactor(1, F(2, 3)),), GeometricTail(F(1, 9), F(2, 3)))
        verdict = convexity_verdict(spec)
        assert not verdict.convex
        assert verdict.certificate.first_violation == 1
        assert verdict.certificate.gap == (F(1, 3), F(2, 3))

    def test_two_factors_with_radix_tail(self):
        spec = AlgebraSpec(
            (MatrixFactor(2, F(2, 5)), MatrixFactor(1, F(1, 5))),
            MixedRadixTail(F(2, 5), RadixWord((), (2,))),
        )
        assert convexity_verdict(spec).convex

    def test_verdict_consistency_enforced(self):
        bad = ConditionVerdict(False, 1, (F(1, 3), F(2, 3)))
        with pytest.raises(ValidationError):
            ConvexityVerdict(True, bad)
        good = ConditionVerdict(True, None, None)
        with pytest.raises(ValidationError):
            ConvexityVerdict(False, good)
