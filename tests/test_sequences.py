"""Sequence models: words, tails, splitting, equality, algebra specs."""

import copy
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tracerange import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    OutOfSupportError,
    RadixWord,
    ResourceLimitError,
    SequenceModel,
    ValidationError,
    ZeroTail,
    from_algebra,
    make_model,
    radix_to_sequence,
    same_sequence,
    split_leading,
)
from tracerange import sequences
from tracerange.sequences import _rest, _walk

from support import (
    REFEREE_MODELS,
    fraction_terms,
    fraction_violations,
    models,
    radix_words,
    random_word,
    scale_model,
    set_ceiling,
)

F = Fraction


def fraction_refusal(arg):
    """The exception class and message of ``Fraction(arg)``."""
    try:
        Fraction(arg)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError(f"Fraction({arg!r}) reads")


class TestRadixWord:
    def test_period_reduced_to_primitive_root(self):
        assert RadixWord((), (2, 3, 2, 3)) == RadixWord((), (2, 3))

    def test_pre_suffix_absorbed_into_rotation(self):
        assert RadixWord((3, 2), (2,)) == RadixWord((3,), (2,))
        assert RadixWord((2,), (3, 2)) == RadixWord((), (2, 3))

    def test_canonical_forms_stream_identically(self):
        raw = RadixWord((2, 3, 2), (3, 2))
        canon = RadixWord(raw.pre, raw.period)
        stream = tuple(itertools.islice(raw.iter_entries(), 12))
        assert stream == raw.entries(12) == canon.entries(12) == (2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3)

    def test_rejects_small_or_non_integer_entries(self):
        with pytest.raises(ValidationError):
            RadixWord((1,), (2,))
        with pytest.raises(ValidationError):
            RadixWord((), (2, "3"))

    def test_finite_word(self):
        word = RadixWord((3, 2), ())
        assert word.finite
        assert word.entries(2) == (3, 2)
        with pytest.raises(OutOfSupportError):
            word.entries(3)

    @staticmethod
    def absorbed_one_at_a_time(pre, period):
        """The canonical form as it was first computed: one absorbed pre
        entry, and one tuple copy of each part, per step."""
        period = sequences._primitive_period(period)
        while pre and pre[-1] == period[-1]:
            pre = pre[:-1]
            period = (period[-1],) + period[:-1]
        return pre, period

    @given(
        st.lists(st.integers(min_value=2, max_value=4), max_size=12),
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=6),
    )
    def test_absorbed_suffix_matches_the_one_at_a_time_loop(self, pre, period):
        word = RadixWord(tuple(pre), tuple(period))
        assert (word.pre, word.period) == self.absorbed_one_at_a_time(tuple(pre), tuple(period))

    def test_a_head_restating_the_period_many_times_is_absorbed(self):
        word = RadixWord((5, 3) + (2, 3) * 10**5, (2, 3))
        assert (word.pre, word.period) == ((5,), (3, 2))

    @given(radix_words, st.integers(min_value=0, max_value=10))
    def test_shift_drops_entries(self, word, count):
        assert word.shift(count).entries(8) == word.entries(count + 8)[count:]


class TestTails:
    def test_geometric_total_and_terms(self):
        tail = GeometricTail(F(1, 2), F(1, 2))
        assert tail.total == 1
        assert tail.term(3) == F(1, 8)
        assert SequenceModel((), tail).tail_sum(3) == F(1, 8)

    def test_geometric_validation(self):
        with pytest.raises(ValidationError):
            GeometricTail(F(0), F(1, 2))
        with pytest.raises(ValidationError):
            GeometricTail(F(1, 2), F(1))

    # each case: the arguments, then the exception and message they raise,
    # or None where the tail is built
    WORD = RadixWord((), (3,))
    TAIL_CASES = [
        (GeometricTail, (F(1, 2), F(1, 3)), None),
        (GeometricTail, (1, "1/3"), None),
        (GeometricTail, ("2/4", F(1, 3)), None),
        (GeometricTail, (0, F(1, 2)), (ValidationError, "geometric first term must be positive, got 0")),
        (GeometricTail, ("-1/3", "1/2"), (ValidationError, "geometric first term must be positive, got -1/3")),
        (GeometricTail, (F(-2, 6), 1), (ValidationError, "geometric first term must be positive, got -1/3")),
        (GeometricTail, (0, 2), (ValidationError, "geometric first term must be positive, got 0")),
        (GeometricTail, (1, 1), (ValidationError, "geometric ratio outside (0, 1): 1")),
        (GeometricTail, ("1/2", "3/2"), (ValidationError, "geometric ratio outside (0, 1): 3/2")),
        (GeometricTail, (F(1, 2), F(0)), (ValidationError, "geometric ratio outside (0, 1): 0")),
        (GeometricTail, (F(1, 2), -F(1, 2)), (ValidationError, "geometric ratio outside (0, 1): -1/2")),
        (GeometricTail, (F(1, 2), 2), (ValidationError, "geometric ratio outside (0, 1): 2")),
        (GeometricTail, ("x", F(1, 2)), fraction_refusal("x")),
        (GeometricTail, (1, "1/0"), fraction_refusal("1/0")),
        (GeometricTail, (None, F(1, 2)), fraction_refusal(None)),
        (MixedRadixTail, (F(2, 3), WORD), None),
        (MixedRadixTail, (1, WORD), None),
        (MixedRadixTail, ("4/6", WORD), None),
        (MixedRadixTail, (0, WORD), (ValidationError, "radix tail scale must be positive, got 0")),
        (MixedRadixTail, ("-2/3", WORD), (ValidationError, "radix tail scale must be positive, got -2/3")),
        (MixedRadixTail, (F(-1), WORD), (ValidationError, "radix tail scale must be positive, got -1")),
        (MixedRadixTail, (1, (3,)), (ValidationError, "radices must be a RadixWord")),
        (MixedRadixTail, (1, RadixWord((3,), ())), (ValidationError, "a radix tail needs an infinite word (nonempty period)")),
        (MixedRadixTail, ("1/x", WORD), fraction_refusal("1/x")),
    ]

    @pytest.mark.parametrize("cls, args, expected", TAIL_CASES)
    def test_tail_arguments_give_fractions_or_their_pinned_refusal(self, cls, args, expected):
        if expected is None:
            rationals = cls(*args)._values()[: 1 if cls is MixedRadixTail else 2]
            assert all(type(x) is Fraction for x in rationals)
            assert rationals == tuple(map(Fraction, args[: len(rationals)]))
            return
        with pytest.raises(Exception) as error:
            cls(*args)
        assert (error.type, str(error.value)) == expected

    def test_a_fraction_argument_is_kept(self):
        first, ratio, scale = F(1, 2), F(1, 3), F(2, 3)
        tail = GeometricTail(first, ratio)
        assert tail.first is first and tail.ratio is ratio
        assert MixedRadixTail(scale, self.WORD).scale is scale

    def test_radix_blocks_and_terms(self):
        tail = MixedRadixTail(F(1), RadixWord((), (3,)))
        assert [tail.term(j) for j in range(1, 6)] == [F(1, 3), F(1, 3), F(1, 9), F(1, 9), F(1, 27)]
        assert SequenceModel((), tail).tail_sum(4) == F(1, 9)

    def test_cached_geometric_total_leaves_the_value_alone(self):
        tail, fresh = GeometricTail(F(3, 8), F(1, 2)), GeometricTail(F(3, 8), F(1, 2))
        assert tail.total == F(3, 4)
        assert tail.total is tail.total
        assert tail == fresh and hash(tail) == hash(fresh) and repr(tail) == repr(fresh)
        twins = (copy.copy(tail), copy.deepcopy(tail), pickle.loads(pickle.dumps(tail)), pickle.loads(pickle.dumps(fresh)))
        for twin in twins:
            assert twin == tail and hash(twin) == hash(tail) and repr(twin) == repr(tail)
            assert twin.total == F(3, 4)

    def test_radix_tail_needs_infinite_word(self):
        with pytest.raises(ValidationError):
            MixedRadixTail(F(1), RadixWord((3, 2), ()))

    def test_radix_locate_boundaries(self):
        tail = MixedRadixTail(F(1), RadixWord((), (3,)))
        model = SequenceModel((), tail)
        # slot 2 closes block 1 (worth 1/3 each), slot 3 opens block 2
        assert _walk(tail, 2) == (0, 2, 3, 3)
        assert _walk(tail, 3) == (1, 1, 9, 3)
        at_boundary, inside = _rest(model, 2), _rest(model, 3)
        assert at_boundary.prefix == inside.prefix == ()
        assert at_boundary.total == F(1, 3)
        assert at_boundary.first_terms(3) == (F(1, 9), F(1, 9), F(1, 27))
        assert inside.total == F(2, 9)
        assert inside.first_terms(3) == (F(1, 9), F(1, 27), F(1, 27))

    @given(radix_words, st.integers(min_value=1, max_value=20))
    def test_radix_tail_sum_matches_term_walk(self, word, j):
        tail = MixedRadixTail(F(1), word)
        assert SequenceModel((), tail).tail_sum(j) == 1 - sum(tail.term(i) for i in range(1, j + 1))


class TestRadixLocatorReferee:
    """The period-jumping radix locator against running sums over
    ``iter_terms``."""

    @staticmethod
    def check(tail: MixedRadixTail, indices) -> None:
        model = SequenceModel((), tail)
        limit = max(indices) + 3
        terms = list(itertools.islice(model.iter_terms(), limit))
        sums = list(itertools.accumulate(terms, initial=F(0)))
        radices = list(itertools.islice(tail.radices.iter_entries(), limit))
        prods = list(itertools.accumulate(radices, operator.mul))
        places = [  # (blocks before, offset, product through the block, radix) of each slot
            (b, offset, prods[b], k) for b, k in enumerate(radices) for offset in range(1, k)
        ]
        for j in indices:
            assert _walk(tail, j) == places[j - 1]
            assert tail.term(j) == model.term(j) == terms[j - 1]
            assert model.tail_sum(j) == tail.scale - sums[j]
            rest = _rest(model, j)
            assert rest.prefix == ()
            assert rest.total == tail.scale - sums[j]
            assert rest.first_terms(3) == tuple(terms[j : j + 3])
            taken, split = split_leading(model, j)
            assert taken == tuple(terms[:j])
            assert split == rest

    def test_indices_up_to_three_periods_deep(self):
        rng = random.Random(4241)
        for _ in range(40):
            word = random_word(rng, max_entry=7)
            scale = F(rng.randint(1, 9), rng.randint(1, 9))
            head = sum(k - 1 for k in word.pre)
            deep = head + 3 * sum(k - 1 for k in word.period)
            indices = sorted(set(rng.sample(range(1, deep + 1), min(deep, 10))) | {1, head + 1, deep})
            self.check(MixedRadixTail(scale, word), indices)

    def test_an_index_past_five_thousand(self):
        self.check(MixedRadixTail(F(3, 7), RadixWord((5, 2), (2, 4, 3))), [5000, 5001, 5003])


def geo(first, ratio) -> SequenceModel:
    return SequenceModel((), GeometricTail(F(first), F(ratio)))


def radix(scale, pre, period) -> SequenceModel:
    return SequenceModel((), MixedRadixTail(F(scale), RadixWord(pre, period)))


# models whose reduced terms cancel for several steps before the stream
# settles: first's numerator shares factors with the ratio's denominator,
# first's denominator with the ratio's numerator, or a radix scale's
# numerator with the radices
CANCELLING_MODELS = {
    "geo(8/3,3/4)": geo("8/3", "3/4"),
    "geo(1024/243,3/4)": geo("1024/243", "3/4"),
    "geo(1/81,9/10)": geo("1/81", "9/10"),
    "geo(3/64,8/9)": geo("3/64", "8/9"),
    "geo(2000/7,7/10)": geo("2000/7", "7/10"),
    "5,geo(1024/243,3/4)": SequenceModel((F(5),), GeometricTail(F(1024, 243), F(3, 4))),
    "radix(12;2 3|2)": radix(12, (2, 3), (2,)),
    "radix(2^20*3^7/5;4 6|2 3)": radix(F(2**20 * 3**7, 5), (4, 6), (2, 3)),
    "radix(10^6/7;|10)": radix(F(10**6, 7), (), (10,)),
}


class TestTermStreamReferee:
    """Terms stepped on reduced integer pairs against a plain ``Fraction``
    loop: the same value, hash and repr, each a ``Fraction`` in lowest
    terms."""

    @staticmethod
    def check(model: SequenceModel, count: int = 80) -> None:
        expected = fraction_terms(model, count)
        streamed = list(itertools.islice(model.iter_terms(), count))
        materialized = list(model.first_terms(min(count, len(expected))))
        assert len(streamed) == len(materialized) == len(expected)
        for got in (streamed, materialized):
            for x, want in zip(got, expected):
                assert x == want
                assert type(x) is Fraction
                assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
                assert hash(x) == hash(want) and repr(x) == repr(want)

    @pytest.mark.parametrize("factor", [F(1, 3), F(3, 4), F(2), F(7, 3)], ids=str)
    def test_scaled_referee_models(self, factor):
        rng = random.Random(7070)
        for _ in range(8):
            for build in REFEREE_MODELS:
                self.check(scale_model(build(rng), factor))

    @pytest.mark.parametrize("name", CANCELLING_MODELS)
    def test_models_that_cancel_for_several_steps(self, name):
        self.check(CANCELLING_MODELS[name])


class TestTailContractReferee:
    """Every tail family's method set against a plain ``Fraction`` loop
    over the tail's own terms (``fraction_terms``): flattened runs, the
    rest after each j, scaling, sums after j, the radix reading and the
    excess run at four slacks, for j from 0 to 40."""

    DEPTH = 40
    AHEAD = 12

    @classmethod
    def check(cls, tail) -> None:
        count = cls.DEPTH + cls.AHEAD
        expected = fraction_terms(SequenceModel((), tail), count)
        flat = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, tail.runs()))
        assert list(itertools.islice(flat, count)) == expected
        assert list(itertools.islice(tail.terms(), count)) == expected
        for j in range(cls.DEPTH + 1):
            rest = tail.rest(j)
            want = expected[j : j + cls.AHEAD]
            assert list(itertools.islice(rest.terms(), cls.AHEAD)) == want
            assert tail.sum_after(j) == rest.total == tail.total - sum(expected[:j], F(0))
        for factor in (F(1, 3), F(5, 2)):
            scaled = list(itertools.islice(tail.scaled(factor).terms(), count))
            assert scaled == [x * factor for x in expected]
        radix = tail.as_radix()
        if radix is not None:
            assert list(itertools.islice(radix.terms(), count)) == expected
        model = SequenceModel((), tail)
        for sigma in (F(0), -tail.total / 7, tail.total / 9, tail.total / 2):
            found = itertools.takewhile(lambda v: v[0] <= cls.DEPTH, tail.excesses(sigma))
            assert list(found) == fraction_violations(model, cls.DEPTH, sigma)

    @pytest.mark.parametrize("factor", [F(1), F(3, 4), F(7, 3)], ids=str)
    def test_scaled_referee_models(self, factor):
        rng = random.Random(1111)
        for _ in range(6):
            for build in REFEREE_MODELS:
                self.check(scale_model(build(rng), factor).tail)

    @pytest.mark.parametrize("name", CANCELLING_MODELS)
    def test_models_that_cancel_for_several_steps(self, name):
        self.check(CANCELLING_MODELS[name].tail)

    def test_the_empty_tail_answers_for_the_empty_stream(self):
        self.check(ZeroTail())
        assert ZeroTail().rest(5) == ZeroTail() and ZeroTail().as_radix() is None

    @pytest.mark.parametrize(
        "tail",
        [ZeroTail(), GeometricTail(F(1, 3), F(2, 5)), MixedRadixTail(F(3, 4), RadixWord((5, 3), (2, 4, 3)))],
        ids=lambda tail: type(tail).__name__,
    )
    def test_the_rest_after_no_term_is_the_tail_itself(self, tail):
        assert tail.rest(0) is tail


def loop_block_sums(bits, radices) -> list[int]:
    """The ones per radix block by a step per block, reading one radix per
    block started."""
    sums: list[int] = []
    index = 0
    radices = iter(radices)
    while index < len(bits):
        end = index + next(radices) - 1
        sums.append(sum(bits[index:end]))
        index = end
    return sums


class _Counted:
    """An iterator that counts the items read from it."""

    def __init__(self, items):
        self.items, self.read = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.read += 1
        return item


def block_ones(bits, radices) -> list[int]:
    """``sequences._block_ones`` over the blocks of ``radices``, k - 1 slots each."""
    return sequences._block_ones(bits, (k - 1 for k in radices))


def block_sums_outcome(block_sums, bits, word):
    radices = _Counted(sequences._radices(word))
    try:
        result = block_sums(bits, radices)
    except OutOfSupportError as error:
        result = (OutOfSupportError, error.args)
    return result, radices.read


class TestBlockSumsReferee:
    def test_matches_the_loop_and_reads_no_radix_past_the_cut_block(self):
        rng = random.Random(31)
        for _ in range(400):
            word = random_word(rng, max_entry=rng.choice((2, 3, 9)))
            if rng.random() < 0.3:
                word = RadixWord(word.pre + word.period, ())
            bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 40)))
            expected = block_sums_outcome(loop_block_sums, bits, word)
            assert block_sums_outcome(block_ones, bits, word) == expected

    def test_a_cut_last_block_counts_its_part(self):
        word = RadixWord((), (4,))
        assert block_ones((1, 1, 0, 1, 1), word.iter_entries()) == [2, 2]
        assert block_sums_outcome(block_ones, (1, 1, 0, 1, 1), word)[1] == 2

    def test_a_finite_word_raises_where_the_loop_does(self):
        word = RadixWord((3, 2), ())
        assert block_sums_outcome(block_ones, (1, 0, 1), word) == ([1, 1], 2)
        raised = block_sums_outcome(block_ones, (1, 0, 1, 0), word)
        assert raised == block_sums_outcome(loop_block_sums, (1, 0, 1, 0), word)
        assert raised[0][0] is OutOfSupportError


class TestSequenceModel:
    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValidationError):
            make_model([F(1, 2), F(0)])
        with pytest.raises(ValidationError):
            make_model([F(-1, 2)])

    def test_rejects_increasing_prefix(self):
        with pytest.raises(ValidationError):
            make_model([F(1, 4), F(1, 2)])

    def test_rejects_junction_violation(self):
        with pytest.raises(ValidationError):
            SequenceModel((F(1, 8),), GeometricTail(F(1, 2), F(1, 2)))

    def test_term_access_and_support(self):
        model = make_model([F(3, 5), F(2, 5)])
        assert model.support == 2
        assert model.term(2) == F(2, 5)
        with pytest.raises(OutOfSupportError):
            model.term(3)
        infinite = SequenceModel((F(1, 2),), GeometricTail(F(1, 4), F(1, 2)))
        assert infinite.support is None
        assert infinite.term(3) == F(1, 8)

    def test_first_terms_raises_past_support(self):
        model = make_model([F(1, 2)])
        with pytest.raises(OutOfSupportError):
            model.first_terms(2)

    @given(models())
    def test_partial_plus_tail_is_total(self, model):
        for n in range(0, 8):
            if model.finite and n > len(model.prefix):
                break
            assert model.partial_sum(n) + model.tail_sum(n) == model.total

    @given(models())
    def test_tail_sum_matches_term_walk(self, model):
        terms = list(itertools.islice(model.iter_terms(), 10))
        acc = Fraction(0)
        for n, term in enumerate(terms, start=1):
            acc += term
            assert model.total - model.tail_sum(n) == acc

    @given(models())
    def test_terms_never_increase(self, model):
        terms = list(itertools.islice(model.iter_terms(), 12))
        for a, b in zip(terms, terms[1:]):
            assert a >= b


class TestSplitLeading:
    @given(models(), st.integers(min_value=0, max_value=10))
    def test_split_preserves_stream_and_total(self, model, count):
        if model.finite and count > len(model.prefix):
            count = len(model.prefix)
        taken, rest = split_leading(model, count)
        assert len(taken) == count
        assert sum(taken, Fraction(0)) + rest.total == model.total
        recombined = list(taken) + list(itertools.islice(rest.iter_terms(), 8))
        direct = list(itertools.islice(model.iter_terms(), len(recombined)))
        assert recombined == direct

    def test_split_past_finite_support_raises(self):
        with pytest.raises(OutOfSupportError):
            split_leading(make_model([F(1, 2)]), 2)

    def test_radix_split_mid_block_folds_leftover(self):
        model = SequenceModel((), MixedRadixTail(F(1), RadixWord((), (3,))))
        taken, rest = split_leading(model, 1)
        assert taken == (F(1, 3),)
        # the one slot left in block 1 becomes a leading block of radix 2
        assert rest == SequenceModel((), MixedRadixTail(F(2, 3), RadixWord((2,), (3,))))
        assert rest.total == F(2, 3)
        assert rest.first_terms(3) == (F(1, 3), F(1, 9), F(1, 9))

    @pytest.mark.parametrize("cut, second", [(1, F(1, 10**6)), (999_998, F(1, 10**12))])
    def test_radix_split_inside_a_huge_block_builds_no_leftover(self, cut, second):
        model = radix_to_sequence(RadixWord((), (10**6,)))
        taken, rest = split_leading(model, cut)
        assert len(taken) == cut
        left = 999_999 - cut  # slots of block 1 after the cut, each 1/10^6
        assert rest.prefix == ()
        assert rest.total == F(left + 1, 10**6)
        assert rest.first_terms(2) == (F(1, 10**6), second)


class TestSameSequence:
    def test_geometric_half_equals_all_twos_pattern(self):
        geo = SequenceModel((), GeometricTail(F(1, 2), F(1, 2)))
        pattern = SequenceModel((), MixedRadixTail(F(1), RadixWord((), (2,))))
        assert same_sequence(geo, pattern)

    def test_scaled_geometric_half_matches_scaled_pattern(self):
        geo = SequenceModel((), GeometricTail(F(1, 6), F(1, 2)))
        pattern = SequenceModel((), MixedRadixTail(F(1, 3), RadixWord((), (2,))))
        assert same_sequence(geo, pattern)

    def test_prefix_absorbing_representations_agree(self):
        plain = SequenceModel((), MixedRadixTail(F(1), RadixWord((), (3,))))
        folded = SequenceModel(
            (F(1, 3),), MixedRadixTail(F(2, 3), RadixWord((2,), (3,)))
        )
        assert same_sequence(plain, folded)

    def test_explicit_run_folds_into_tail(self):
        spread = SequenceModel((F(1, 2),), MixedRadixTail(F(1, 2), RadixWord((), (2,))))
        pattern = SequenceModel((), MixedRadixTail(F(1), RadixWord((), (2,))))
        assert same_sequence(spread, pattern)

    def test_different_ratio_not_equal(self):
        a = SequenceModel((), GeometricTail(F(1, 2), F(1, 2)))
        b = SequenceModel((), GeometricTail(F(1, 2), F(1, 3)))
        assert not same_sequence(a, b)

    def test_finite_versus_infinite(self):
        assert not same_sequence(make_model([F(1, 2)]), dyadic_model())

    @given(models())
    def test_reflexive(self, model):
        assert same_sequence(model, model)

    @given(models(), st.integers(min_value=0, max_value=6))
    def test_split_and_rebuild_is_same_sequence(self, model, count):
        if model.finite and count > len(model.prefix):
            count = len(model.prefix)
        taken, rest = split_leading(model, count)
        rebuilt = SequenceModel(taken + rest.prefix, rest.tail)
        assert same_sequence(model, rebuilt)


def dyadic_model() -> SequenceModel:
    return SequenceModel((), GeometricTail(F(1, 2), F(1, 2)))


class TestAlgebraSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            AlgebraSpec((MatrixFactor(2, F(1, 2)),))

    def test_factor_validation(self):
        with pytest.raises(ValidationError):
            MatrixFactor(0, F(1))
        with pytest.raises(ValidationError):
            MatrixFactor(2, F(0))

    def test_merge_with_geometric_tail(self):
        spec = AlgebraSpec((MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2)))
        model = from_algebra(spec)
        assert model.prefix == (F(1, 4), F(1, 4), F(1, 4))
        assert model.tail == GeometricTail(F(1, 8), F(1, 2))

    def test_merge_without_tail(self):
        spec = AlgebraSpec((MatrixFactor(3, F(1)),))
        model = from_algebra(spec)
        assert model.prefix == (F(1, 3), F(1, 3), F(1, 3))
        assert model.finite

    def test_merge_reanchors_radix_tail(self):
        spec = AlgebraSpec(
            (MatrixFactor(2, F(2, 5)), MatrixFactor(1, F(1, 5))),
            MixedRadixTail(F(2, 5), RadixWord((), (2,))),
        )
        model = from_algebra(spec)
        assert model.prefix == (F(1, 5),) * 4
        assert model.tail == MixedRadixTail(F(1, 5), RadixWord((), (2,)))

    @pytest.mark.parametrize(
        "tail",
        [GeometricTail(F(1, 4), F(1, 2)), MixedRadixTail(F(1, 2), RadixWord((3,), (2,)))],
        ids=lambda tail: type(tail).__name__,
    )
    def test_a_tail_below_the_smallest_atom_is_kept_whole(self, tail):
        # no tail run reaches the atom 1/2, so none moves into the prefix
        spec = AlgebraSpec((MatrixFactor(1, F(1, 2)),), tail)
        model = from_algebra(spec)
        assert model.prefix == (F(1, 2),)
        assert model.tail is spec.abelian_tail

    def test_merge_pure_tail(self):
        spec = AlgebraSpec((), GeometricTail(F(1, 2), F(1, 2)))
        model = from_algebra(spec)
        assert model.prefix == ()
        assert model.total == 1

    def test_merged_model_is_sorted_and_total_one(self):
        spec = AlgebraSpec(
            (MatrixFactor(3, F(1, 4)), MatrixFactor(1, F(1, 2))),
            GeometricTail(F(1, 8), F(1, 2)),
        )
        model = from_algebra(spec)
        assert model.total == 1
        terms = list(itertools.islice(model.iter_terms(), 10))
        assert terms == sorted(terms, reverse=True)

    @pytest.mark.parametrize("bad", [F(1), "zero", (F(1, 2), F(1, 2))], ids=repr)
    def test_abelian_tail_must_be_a_tail(self, bad):
        with pytest.raises(ValidationError, match="abelian tail must be"):
            AlgebraSpec((), bad)
        with pytest.raises(ValidationError, match="tail must be"):
            SequenceModel((), bad)

    def test_unbounded_reanchor_is_reported(self):
        # one tail block alone holds two million terms, all of them at least
        # as large as the lone tiny atom, so the merge walk gives up
        spec = AlgebraSpec(
            (MatrixFactor(1, F(1, 4000006)),),
            MixedRadixTail(F(4000005, 4000006), RadixWord((), (2000003,))),
        )
        with pytest.raises(ResourceLimitError, match="2000003 atoms"):
            from_algebra(spec)

    def test_merged_prefix_is_bounded_by_max_atoms(self, monkeypatch):
        set_ceiling(monkeypatch, "atoms", 6)
        # the dims alone pass the bound: refused before any atom is built
        wide = AlgebraSpec((MatrixFactor(4, F(1, 2)), MatrixFactor(3, F(1, 2))))
        with pytest.raises(ResourceLimitError, match="reaches 7 atoms, past the bound of 6"):
            from_algebra(wide)
        # the tail stays above the lone atom for over 900 terms: the walk
        # stops once the atom and six tail terms pass the bound
        slow = AlgebraSpec((MatrixFactor(1, F(1, 10**6)),), GeometricTail(F(10**6 - 1, 10**8), F(99, 100)))
        with pytest.raises(ResourceLimitError, match="reaches 7 atoms, past the bound of 6"):
            from_algebra(slow)
        # four atoms of 1/8 and the tail's 1/4, 1/8 make 6, at the bound
        shallow = AlgebraSpec((MatrixFactor(4, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2)))
        assert len(from_algebra(shallow).prefix) == 6
