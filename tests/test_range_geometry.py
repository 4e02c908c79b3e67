"""Subset-sum enumeration, outer covers, and convexity verdicts."""

import copy
import math
import pickle
import random
import sys
import threading
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
    parse_spec,
    split_leading,
    subset_sums,
)
from tracerange import range_geometry
from tracerange.range_geometry import _violations_around

from support import (
    REFEREE_MODELS,
    RUN_FORM_MODELS,
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
    set_ceiling,
)
from test_sequences import CANCELLING_MODELS

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

    def test_witness_among_eighteen_dyadic_terms(self):
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
        # 2^17 pieces are past the piece bound; a one-piece cover is not
        with pytest.raises(ResourceLimitError):
            achievable_outer(cantor_like(), 17)
        approx = achievable_outer(dyadic(), 30)
        assert approx.exact
        assert approx.union == IntervalUnion((Interval(F(0), F(1)),))
        # 25 terms, past the subset-sum bound; repeated terms keep the sum set tiny
        flat = make_model([F(1, 2)] * 25)
        approx = achievable_outer(flat, 25)
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
        def refuse(model, count):
            raise AssertionError(f"_leading_runs({count}) built before the bound check")

        monkeypatch.setattr(range_geometry, "_leading_runs", refuse)
        with pytest.raises(
            ResourceLimitError,
            match=r"^the cover fold reaches 2\^1000000000 pieces, past the bound of 65536$",
        ):
            achievable_outer(cantor_like(), 10**9)
        # a prefix ahead of the tail: the scan still stops at the tail's first index
        with pytest.raises(
            ResourceLimitError,
            match=r"^the cover fold reaches 2\^999999999 pieces, past the bound of 65536$",
        ):
            achievable_outer(parse_spec("1/2, geo(1/8, 1/3)"), 10**9)

    def test_first_terms_stops_at_the_last_violation(self, monkeypatch):
        asked = []
        leading_runs = range_geometry._leading_runs

        def spy(model, count):
            asked.append(count)
            return leading_runs(model, count)

        monkeypatch.setattr(range_geometry, "_leading_runs", spy)
        for model in (dyadic(), all_threes()):
            asked.clear()
            approx = achievable_outer(model, 2000)
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
            approx = achievable_outer(model, cut)
            assert approx.union == expected
            assert approx.exact

    def test_a_run_is_folded_in_logarithmic_steps(self, monkeypatch):
        # 4,000 copies of 1/4000: one run, 12 halving steps where a step per
        # term took 4,000, each checked against the pieces ceiling
        steps = []
        check_ceiling = range_geometry._check_ceiling

        def spy(row, count, doublings=False):
            if not doublings:
                steps.append(count)
            check_ceiling(row, count, doublings)

        monkeypatch.setattr(range_geometry, "_check_ceiling", spy)
        model = make_model([F(1, 4000)] * 4000)
        approx = achievable_outer(model, 4000)
        assert len(steps) <= 12 and steps[-1] == 4001
        assert approx.union == IntervalUnion(Interval(F(k, 4000), F(k, 4000)) for k in range(4001))


class TestViolationsAroundReferee:
    """``_violations_around(model, cut)``, the (L, exact) the fold starts
    from, against a ``Fraction`` scan at every cut from 0 to 40: L is the
    last violating index up to the cut, or 0, and exact says none lies past
    it. At zero slack a tail violates at every index or at none, so a scan
    one index past both the prefix and the deepest cut sees every violation
    that decides either."""

    DEPTH = 40

    @classmethod
    def check(cls, model: SequenceModel) -> None:
        found = [n for n, _ in fraction_violations(model, max(cls.DEPTH, len(model.prefix)) + 1)]
        for cut in range(cls.DEPTH + 1):
            last = max((n for n in found if n <= cut), default=0)
            exact = all(n <= cut for n in found)
            assert _violations_around(model, cut) == (last, exact), (model, cut)

    def test_referee_and_run_form_models(self):
        rng = random.Random(2718)
        for _ in range(6):
            for build in REFEREE_MODELS + RUN_FORM_MODELS:
                self.check(build(rng))

    @pytest.mark.parametrize("name", CANCELLING_MODELS)
    def test_models_that_cancel_for_several_steps(self, name):
        self.check(CANCELLING_MODELS[name])

    @pytest.mark.parametrize(
        "spec",
        [
            "1/2, 1/4, geo(1/16, 1/3)",
            "1/2, geo(1/8, 1/3)",
            "3/4, 1/2, 1/8, 1/16, geo(1/32, 2/5)",
            "1/4, 1/4, 1/8, 1/8, geo(1/16, 1/3)",
            ", ".join(["1/64"] * 50) + ", geo(1/128, 1/3)",
        ],
    )
    def test_a_prefix_ahead_of_a_cantor_tail(self, spec):
        # the cut falls inside the prefix and past it, into the tail
        self.check(parse_spec(spec))


class TestPieceBound:
    """The fold holds at most the pieces ceiling of ``core._CEILINGS``, bound included."""

    def test_a_prefix_that_doubles_is_refused_inside_the_fold(self, monkeypatch):
        # each power of 1/3 overshoots the rest, so five of them give 32 points
        model = make_model([F(1, 3**k) for k in range(1, 6)])
        set_ceiling(monkeypatch, "pieces", 16)
        with pytest.raises(ResourceLimitError, match="^the cover fold reaches 32 pieces, past the bound of 16$"):
            achievable_outer(model, 5)
        set_ceiling(monkeypatch, "pieces", 32)
        approx = achievable_outer(model, 5)
        assert approx.exact
        assert len(approx.union) == 32

    def test_the_check_before_the_fold_refuses_exactly_past_the_bound(self, monkeypatch):
        set_ceiling(monkeypatch, "pieces", 32)
        assert len(achievable_outer(cantor_like(), 5).union) == 32
        with pytest.raises(ResourceLimitError, match=r"^the cover fold reaches 2\^6 pieces, past the bound of 32$"):
            achievable_outer(cantor_like(), 6)

    def test_a_cantor_tail_doubles_the_pieces_at_every_cut(self):
        # the exact doubling that lets the tail's steps be refused by exponent
        rng = random.Random(4099)
        for _ in range(8):
            model = random_cantor_model(rng)
            for cut in range(13):
                assert len(achievable_outer(model, cut).union) == 2**cut


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
        # 12; every other kind reaches 40, past what subset sums can enumerate.
        # The run-form models hold long runs, which the fold steps by halves
        rng = random.Random(6007)
        kinds = [self.KINDS[trial % len(self.KINDS)] for trial in range(48)]
        for build in kinds + 8 * list(RUN_FORM_MODELS):
            model = build(rng)
            tail = model.tail
            top = 12 if isinstance(tail, GeometricTail) and tail.ratio < F(1, 2) else 40
            cuts = range(top + 1)
            if model.finite:  # every cut past the support is the support
                cuts = (*range(min(len(model.prefix) + 2, top + 1)), top)
            for cut in cuts:
                approx = achievable_outer(model, cut)
                cut = min(cut, len(model.prefix)) if model.finite else cut
                pieces = fraction_fold(model, cut)
                assert approx.union == IntervalUnion(Interval(lo, hi) for lo, hi in pieces)
                assert approx.exact == kakeya_check(split_leading(model, cut)[1]).holds


class TestOracleReferee:
    """The integer-keyed oracle against the sorted-merge enumeration, on
    four term lists of each length from 0 to 20."""

    def test_witnesses_and_membership_match_subset_sums(self):
        rng = random.Random(3141)
        for trial in range(84):
            den = rng.choice([1, 6, 12, 35, 60])
            terms = [F(rng.randint(1, 2 * den), rng.choice([1, den])) for _ in range(trial % 21)]
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


def eager_enumerate(terms: tuple[int, ...], base: int) -> dict:
    """A half table built whole, step by step, as the oracle built both
    before any query (sum -> chosen indices, in insertion order)."""
    table: dict[int, tuple[int, ...]] = {0: ()}
    for offset, a in enumerate(terms):
        additions = {}
        for value, chosen in table.items():
            candidate = value + a
            if candidate not in table and candidate not in additions:
                additions[candidate] = chosen + (base + offset,)
        table.update(additions)
    return table


def eager_witness(terms, target: Fraction):
    """The witness of the eager build: both half tables whole, the left one
    scanned in insertion order for the first sum whose complement the right
    one holds."""
    den = math.lcm(*(t.denominator for t in terms))
    if den % target.denominator:
        return None
    ints = tuple(t.numerator * (den // t.denominator) for t in terms)
    half = len(ints) // 2
    left, right = eager_enumerate(ints[:half], 0), eager_enumerate(ints[half:], half)
    goal = target.numerator * (den // target.denominator)
    for value, chosen in left.items():
        match = right.get(goal - value)
        if match is not None:
            bits = [0] * len(ints)
            for index in chosen + match:
                bits[index] = 1
            return tuple(bits)
    return None


def oracle_probes(terms, rng: random.Random) -> list[Fraction]:
    """Targets on the terms' lattice: subset sums, points past the total
    and below 0 that miss, and random points, which may fall in a gap;
    targets off it; and repeats, in a seeded order."""
    den = math.lcm(1, *(t.denominator for t in terms))
    total = sum(terms, F(0))
    hits = [sum((a for a in terms if rng.random() < 0.5), F(0)) for _ in range(5)]
    misses = [total + F(1, den), F(-1, den)]
    misses += [F(rng.randint(0, 2 * den * max(1, len(terms))), den) for _ in range(4)]
    off = [hits[0] + F(1, 1009), F(1, 7 * den)]
    probes = hits + misses + off
    probes += rng.sample(probes, 4)
    rng.shuffle(probes)
    return probes


class TestLazyOracleReferee:
    """The oracle builds its tables on the first query on the lattice and
    its left table only up to each query's first match; its answers are
    the eager build's, tuple for tuple, whatever queries came before."""

    @staticmethod
    def term_lists(rng: random.Random):
        for count in range(23):
            den = rng.choice((1, 6, 12, 24, 60))
            yield [F(rng.randint(1, 2 * den), rng.choice((1, den))) for _ in range(count)]
            # terms over 2^count, whose sums seldom collide, so the tables grow large
            yield [F(rng.randint(1, 2**count), 2**count) for _ in range(count)]

    def test_witness_and_representable_match_the_eager_build(self):
        rng = random.Random(2718)
        for terms in self.term_lists(rng):
            probes = oracle_probes(terms, rng)
            expected = {target: eager_witness(terms, target) for target in probes}
            # one oracle asks witness first, the other representable, over
            # the probes in opposite orders
            first, second = SubsetSumOracle(terms), SubsetSumOracle(terms)
            for target in probes:
                assert first.witness(target) == expected[target], (terms, target)
                assert first.representable(target) == (expected[target] is not None), (terms, target)
            for target in reversed(probes):
                assert second.representable(target) == (expected[target] is not None), (terms, target)
                assert second.witness(target) == expected[target], (terms, target)

    def test_threads_sharing_one_oracle_get_the_eager_answers(self):
        # 22 distinct dyadic terms: misses read a left table of 2,048 sums,
        # long enough for a thread switch inside a query
        terms = [F(1, 2**i) for i in range(1, 23)]
        rng = random.Random(1618)
        probes = [F(rng.randrange(2**22), 2**22) for _ in range(12)] + [F(1), F(3, 2), F(-1, 4), F(1, 3)]
        expected = {target: eager_witness(terms, target) for target in probes}
        for _ in range(5):
            oracle, barrier, answers = SubsetSumOracle(terms), threading.Barrier(4), []

            def ask(order):
                barrier.wait()
                for target in order:
                    try:
                        answers.append((target, oracle.witness(target)))
                    except Exception as exc:  # a torn table raises here
                        answers.append((target, exc))

            orders = [rng.sample(probes, len(probes)) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=ask, args=(order,)) for order in orders]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(answers) == 4 * len(probes)
            for target, answer in answers:
                assert answer == expected[target], (target, answer)


class TestLazyOracleCounts:
    """Counts, not times: the sums the oracle writes into its tables, read
    by a spy on its enumeration (the left half starts at index 0)."""

    TERMS = [F(1, 2**i) for i in range(1, 21)]  # 20 dyadic terms, every sum distinct

    @pytest.fixture
    def written(self, monkeypatch):
        written = {"left": 0, "right": 0}
        original = SubsetSumOracle._enumerate

        def counted(table, terms, base):
            for item in original(table, terms, base):
                written["right" if base else "left"] += 1
                yield item

        monkeypatch.setattr(SubsetSumOracle, "_enumerate", staticmethod(counted))
        return written

    def test_an_off_lattice_target_enumerates_no_sum(self, written):
        oracle = SubsetSumOracle(self.TERMS)
        assert oracle.witness(F(1, 3)) is None
        assert not oracle.representable(F(5, 2**21))
        assert written == {"left": 0, "right": 0}

    def test_a_hit_stops_before_the_whole_left_table_and_a_miss_completes_it(self, written):
        oracle = SubsetSumOracle(self.TERMS)
        whole = 2**10 - 1  # the sums a half of ten distinct dyadic terms adds to {0}
        witness = oracle.witness(F(5, 16))
        assert witness == eager_witness(self.TERMS, F(5, 16))
        assert written["right"] == whole
        assert 0 < written["left"] < whole // 8
        # on the lattice, past the total: every left sum is read, and the
        # right table is not built again
        written.update(left=0, right=0)
        assert not oracle.representable(F(1))
        assert written == {"left": whole, "right": 0}
        # the whole left table is kept, so later queries write nothing
        written.update(left=0)
        assert oracle.witness(F(5, 16)) == witness
        assert oracle.witness(F(2**20 - 1, 2**20)) == (1,) * 20
        assert not oracle.representable(F(3, 2))
        assert written == {"left": 0, "right": 0}


class TestOracleState:
    """The oracle stores a table only once it is whole and holds nothing
    but numbers, tuples and dicts."""

    TERMS = [F(1, 2**i) for i in range(1, 21)]
    PROBES = [F(5, 16), F(1), F(1, 3), F(2**20 - 1, 2**20), F(3, 2**20), F(-1, 2**20)]

    @pytest.mark.parametrize("half", ["left", "right"])
    def test_a_query_cut_short_leaves_the_oracle_answering_as_the_eager_build(self, monkeypatch, half):
        original = SubsetSumOracle._enumerate

        def cut(table, terms, base):
            for count, item in enumerate(original(table, terms, base)):
                if count == 40 and (base > 0) == (half == "right"):
                    raise KeyboardInterrupt
                yield item

        oracle = SubsetSumOracle(self.TERMS)
        monkeypatch.setattr(SubsetSumOracle, "_enumerate", staticmethod(cut))
        with pytest.raises(KeyboardInterrupt):
            oracle.representable(F(1))  # a miss, which reads both halves whole
        monkeypatch.setattr(SubsetSumOracle, "_enumerate", staticmethod(original))
        for target in self.PROBES:
            expected = eager_witness(self.TERMS, target)
            assert oracle.witness(target) == expected, target
            assert oracle.representable(target) == (expected is not None), target

    def test_pickle_and_deepcopy_keep_the_answers(self):
        fresh, hit, missed = (SubsetSumOracle(self.TERMS) for _ in range(3))
        hit.witness(F(5, 16))
        missed.witness(F(1))
        for oracle in (fresh, hit, missed):
            for copied in (pickle.loads(pickle.dumps(oracle)), copy.deepcopy(oracle)):
                for target in self.PROBES:
                    assert copied.witness(target) == eager_witness(self.TERMS, target), target


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
