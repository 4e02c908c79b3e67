"""Admissibility, pattern decoding, face maps, and digit conversions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tracerange import (
    ConditionVerdict,
    DomainError,
    ExtremalityReport,
    GeometricTail,
    MixedRadixTail,
    OutOfSupportError,
    RadixWord,
    SequenceModel,
    UnsupportedSpecError,
    ValidationError,
    admissibility_check,
    bits_to_digits,
    digits_to_bits,
    face_embed,
    face_extract,
    face_membership,
    greedy_expand,
    make_model,
    mixed_radix_digits,
    radix_to_sequence,
    same_sequence,
    sequence_to_radix,
)
from tracerange.extreme_points import _first_deviation

from support import (
    REFEREE_MODELS,
    all_threes,
    cantor_like,
    dyadic,
    fraction_digits,
    fraction_terms,
    fraction_violations,
    radix_words,
    random_unit_admissible_model,
    random_word,
    scale_model,
)

F = Fraction

ALL_TWOS = RadixWord((), (2,))
ALL_THREES_WORD = RadixWord((), (3,))


def geo(first, ratio):
    return SequenceModel((), GeometricTail(first, ratio))


class TestAdmissibility:
    def test_unit_total_slow_decay_holds(self):
        assert admissibility_check(dyadic()).holds
        assert admissibility_check(all_threes()).holds

    def test_small_total_fast_decay_holds(self):
        # decay faster than halving is fine while the total leaves room
        assert admissibility_check(geo(F(1, 3), F(1, 6))).holds

    def test_unit_total_fast_decay_fails_immediately(self):
        verdict = admissibility_check(cantor_like())
        assert verdict.first_violation == 1
        assert verdict.gap == (F(1, 3), F(2, 3))

    def test_finite_prefix_violation(self):
        verdict = admissibility_check(make_model([F(1, 2), F(1, 3)]))
        assert verdict.first_violation == 2
        assert verdict.gap == (F(1, 6), F(1, 3))

    def test_overweight_geometric_found_by_search(self):
        # total 4/3, ratio above 1/2: the first two terms fit under the
        # remaining room and the third does not
        verdict = admissibility_check(geo(F(2, 5), F(7, 10)))
        assert verdict.first_violation == 3
        assert verdict.gap == (F(31, 250), F(49, 250))

    def test_slow_decay_found_by_doubling_and_bisection(self):
        # ratio near 1: the room runs out deep in the tail, past several
        # doublings, and the bisection pins the first index
        model = geo(F(1, 10**3), 1 - F(1, 10**4))
        sigma = 1 - model.total
        n = admissibility_check(model).first_violation
        assert n == 1053
        assert model.term(n) > sigma + model.tail_sum(n)
        assert model.term(n - 1) <= sigma + model.tail_sum(n - 1)

    def test_tie_at_the_first_index_is_not_a_violation(self):
        # the first term fills the room exactly; the heavy tail overshoots
        # from the next index on
        verdict = admissibility_check(geo(F(1, 2), F(3, 4)))
        assert verdict.first_violation == 2
        assert verdict.gap == (F(1, 8), F(3, 8))

    def test_matches_fraction_loop_on_scaled_models(self):
        rng = random.Random(4104)
        scales = [F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 4), F(2), F(7, 3)]
        for trial in range(420):
            base = REFEREE_MODELS[trial % len(REFEREE_MODELS)](rng)
            model = scale_model(base, scales[trial % len(scales)])
            verdict = admissibility_check(model)
            found = fraction_violations(model, 80, sigma=1 - model.total)
            if found:
                n, gap = found[0]
                assert verdict == ConditionVerdict(False, n, gap), model
            else:
                assert verdict.holds or verdict.first_violation > 80, model

    def test_overweight_radix_tail_after_prefix(self):
        model = SequenceModel((F(1, 2),), MixedRadixTail(F(3, 4), ALL_TWOS))
        verdict = admissibility_check(model)
        assert verdict.first_violation == 2
        assert verdict.gap == (F(1, 8), F(3, 8))

    def test_overweight_radix_breaks_mid_block(self):
        model = SequenceModel((), MixedRadixTail(F(6, 5), RadixWord((), (5,))))
        verdict = admissibility_check(model)
        assert verdict.first_violation == 4
        assert verdict.gap == (F(1, 25), F(6, 25))

    def test_boundary_equality_is_allowed(self):
        model = SequenceModel((F(1, 2),), GeometricTail(F(1, 4), F(1, 2)))
        assert admissibility_check(model).holds

    def test_random_unit_models_hold(self):
        rng = random.Random(733)
        for _ in range(20):
            assert admissibility_check(random_unit_admissible_model(rng)).holds


class TestSequenceDecoding:
    def test_halving_is_the_binary_pattern(self):
        report = sequence_to_radix(dyadic())
        assert report == ExtremalityReport.extreme(ALL_TWOS)

    def test_pure_radix_closes_immediately(self):
        word = RadixWord((3,), (2,))
        model = SequenceModel((), MixedRadixTail(F(1), word))
        assert sequence_to_radix(model) == ExtremalityReport.extreme(word)

    def test_prefix_folds_into_tail(self):
        model = SequenceModel((F(1, 2), F(1, 4)), GeometricTail(F(1, 8), F(1, 2)))
        assert sequence_to_radix(model) == ExtremalityReport.extreme(ALL_TWOS)

    def test_non_unit_leading_value(self):
        report = sequence_to_radix(make_model([F(5, 12), F(7, 24)]))
        assert report == ExtremalityReport.non_extreme(1)

    def test_repeated_half_overruns(self):
        report = sequence_to_radix(make_model([F(1, 2), F(1, 2)]))
        assert report == ExtremalityReport.non_extreme(2)

    def test_run_breaks_partway(self):
        # 2*(1/6) = 1/3 starts a width-3 block, but the run stops short
        assert sequence_to_radix(geo(F(1, 2), F(1, 3))).witness_index == 3
        assert sequence_to_radix(geo(F(1, 4), F(1, 4))).witness_index == 2

    def test_finite_model_truncation(self):
        ten = make_model([F(1, 2**i) for i in range(1, 11)])
        assert sequence_to_radix(ten, depth=8) == ExtremalityReport.undecided(8)
        assert sequence_to_radix(ten, depth=16) == ExtremalityReport.non_extreme(11)

    def test_report_field_consistency(self):
        with pytest.raises(ValidationError):
            ExtremalityReport("extreme")
        with pytest.raises(ValidationError):
            ExtremalityReport("non_extreme", word=ALL_TWOS, witness_index=1)
        with pytest.raises(ValidationError):
            ExtremalityReport("maybe", depth=4)

    @given(radix_words)
    def test_encode_then_decode_recovers_word(self, word):
        model = radix_to_sequence(word)
        assert sequence_to_radix(model) == ExtremalityReport.extreme(word)

    def test_decode_random_words_with_scaling(self):
        rng = random.Random(5821)
        for _ in range(30):
            word = random_word(rng)
            model = radix_to_sequence(word)
            assert sequence_to_radix(model) == ExtremalityReport.extreme(word)


class TestRadixToSequence:
    def test_produces_unit_total(self):
        model = radix_to_sequence(ALL_THREES_WORD)
        assert model.total == 1
        assert same_sequence(model, all_threes())

    def test_scale_parameter(self):
        model = radix_to_sequence(ALL_TWOS, scale=F(1, 2))
        assert model.total == F(1, 2)
        assert model.term(1) == F(1, 4)

    def test_finite_word_rejected(self):
        with pytest.raises(UnsupportedSpecError):
            radix_to_sequence(RadixWord((2, 3), ()))


class TestFaceMaps:
    def test_embed_halving_in_three(self):
        embedded = face_embed(dyadic(), 3)
        assert embedded == SequenceModel(
            (F(1, 3), F(1, 3)), GeometricTail(F(1, 6), F(1, 2))
        )
        assert embedded.total == 1

    def test_embed_radix_in_two(self):
        embedded = face_embed(all_threes(), 2)
        first_five = [embedded.term(n) for n in range(1, 6)]
        assert first_five == [F(1, 2), F(1, 6), F(1, 6), F(1, 18), F(1, 18)]

    def test_embed_rejects_oversized_lead(self):
        with pytest.raises(DomainError):
            face_embed(make_model([F(3, 2)]), 2)

    def test_extract_detects_radix(self):
        embedded = face_embed(dyadic(), 3)
        assert face_extract(embedded) == dyadic()

    def test_extract_run_too_short(self):
        with pytest.raises(DomainError):
            face_extract(make_model([F(1, 3), F(1, 4)]))

    def test_extract_run_too_long(self):
        with pytest.raises(DomainError):
            face_extract(make_model([F(1, 3), F(1, 3), F(1, 3)]))

    def test_extract_requires_unit_fraction_lead(self):
        with pytest.raises(DomainError):
            face_extract(make_model([F(2, 5), F(1, 5)]))

    def test_membership(self):
        assert face_membership(face_embed(dyadic(), 3))
        # run is fine but the extracted sequence is too heavy for the body
        assert not face_membership(make_model([F(1, 2), F(3, 8)]))
        # no leading run at all
        assert not face_membership(make_model([F(1, 3), F(1, 4)]))

    @given(radix_words, st.integers(min_value=2, max_value=6))
    def test_extract_peels_the_leading_radix_of_a_pattern(self, word, k):
        embedded = radix_to_sequence(RadixWord((k,) + word.pre, word.period))
        assert face_extract(embedded) == radix_to_sequence(word)

    def test_roundtrip_random_models(self):
        rng = random.Random(91)
        for _ in range(20):
            model = random_unit_admissible_model(rng)
            radix = rng.randint(2, 5)
            if model.term(1) == 1:
                continue
            embedded = face_embed(model, radix)
            assert face_extract(embedded, radix) == model
            assert face_membership(embedded, radix)


class TestFirstDeviationReferee:
    """The run-at-a-time deviation finder against a plain scan of
    ``fraction_terms``: starts in the prefix, at the junction, inside radix
    blocks and deep in the tail, with the term at the start and with a
    nearby rational that differs from it."""

    COUNTS = (1, 2, 3, 7, 40)

    @staticmethod
    def scan(terms, start, count, value):
        for n in range(start, start + count):
            if n > len(terms) or terms[n - 1] != value:
                return n
        return None

    def check(self, model, starts):
        terms = fraction_terms(model, max(starts) + max(self.COUNTS))
        for start in starts:
            if start > len(terms):
                continue  # past a finite support there is no term to start from
            term = terms[start - 1]
            for value in (term, term + term / 997):
                for count in self.COUNTS:
                    want = self.scan(terms, start, count, value)
                    assert _first_deviation(model, start, count, value) == want, (model, start, count)

    def test_referee_models(self):
        rng = random.Random(2718)
        for _ in range(10):
            for build in REFEREE_MODELS:
                model = build(rng)
                head = len(model.prefix)
                self.check(model, list(range(1, head + 13)) + [head + 30, head + 77, head + 200])

    def test_inside_a_huge_block(self):
        model = SequenceModel((F(1, 2), F(1, 1000)), MixedRadixTail(F(1), RadixWord((), (1000,))))
        self.check(model, [1, 2, 3, 4, 500, 1001, 1002])
        assert _first_deviation(model, 2, 10**6, F(1, 1000)) == 1002


class TestDigits:
    def test_irregular_word(self):
        word = RadixWord((2,), (3,))
        assert mixed_radix_digits(word, F(5, 6), 3) == (1, 2, 0)

    def test_repeating_third(self):
        assert mixed_radix_digits(ALL_THREES_WORD, F(1, 2), 4) == (1, 1, 1, 1)

    def test_endpoint_saturates(self):
        assert mixed_radix_digits(ALL_THREES_WORD, F(1), 3) == (2, 2, 2)
        assert mixed_radix_digits(ALL_THREES_WORD, F(0), 3) == (0, 0, 0)

    def test_target_out_of_range(self):
        with pytest.raises(DomainError):
            mixed_radix_digits(ALL_TWOS, F(3, 2), 4)
        with pytest.raises(DomainError):
            mixed_radix_digits(ALL_TWOS, F(-1, 8), 4)

    def test_bits_group_into_digits(self):
        assert bits_to_digits((1, 0, 1, 0), ALL_THREES_WORD) == (1, 1)
        assert bits_to_digits((1, 1, 0, 0), ALL_THREES_WORD) == (2, 0)
        assert bits_to_digits((1,), ALL_THREES_WORD) == (1,)

    def test_digits_unfold_to_bits(self):
        assert digits_to_bits((2, 0), ALL_THREES_WORD) == (1, 1, 0, 0)
        assert digits_to_bits((1, 1), ALL_THREES_WORD) == (1, 0, 1, 0)

    def test_conversion_validation(self):
        with pytest.raises(ValidationError):
            bits_to_digits((0, 2), ALL_THREES_WORD)
        with pytest.raises(ValidationError):
            digits_to_bits((3,), ALL_THREES_WORD)

    def test_finite_words_run_out_where_they_end(self):
        word = RadixWord((3, 2))
        assert mixed_radix_digits(word, F(1, 2), 2) == (1, 1)
        with pytest.raises(OutOfSupportError):
            mixed_radix_digits(word, F(1, 2), 3)
        with pytest.raises(OutOfSupportError):
            bits_to_digits((1, 0, 1, 1), word)
        with pytest.raises(OutOfSupportError):
            digits_to_bits((1, 1, 0), word)
        # a bad digit before the word ends is reported first
        with pytest.raises(ValidationError):
            digits_to_bits((1, 2, 0), word)

    def test_digits_match_fraction_floor_loop(self):
        rng = random.Random(1618)
        for _ in range(300):
            word = random_word(rng, max_entry=9)
            den = rng.choice([1, 2, 6, 7, 30, 97, 1024, 3**7])
            target = F(rng.randint(0, den), den)
            count = rng.randint(0, 60)
            assert mixed_radix_digits(word, target, count) == fraction_digits(word, target, count)

    @given(radix_words, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=41))
    def test_digits_match_greedy_bits(self, word, num, den):
        target = F(min(num, den), den)
        model = radix_to_sequence(word)
        digit_count = 4
        bit_count = sum(k - 1 for k in word.entries(digit_count))
        bits = greedy_expand(model, target, bit_count).bits
        assert bits_to_digits(bits, word) == mixed_radix_digits(word, target, digit_count)

    @given(radix_words, st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=5))
    def test_digit_bit_roundtrip(self, word, raw):
        digits = tuple(v % k for v, k in zip(raw, word.entries(len(raw))))
        bits = digits_to_bits(digits, word)
        assert bits_to_digits(bits, word) == digits


class TestCodecChecks:
    """The codecs check a whole vector at once and scan entry by entry only
    to name the first bad one, with the same messages and the same int
    digits for any entries equal to 0 or 1."""

    def test_first_bad_bit_is_named(self):
        for bits, message in [
            ((1, 0, 2, 5), "bit 3 must be 0 or 1, got 2"),
            ((1, [0], 1), "bit 2 must be 0 or 1, got [0]"),
            ((1, 0, 1, "1"), "bit 4 must be 0 or 1, got '1'"),
        ]:
            with pytest.raises(ValidationError) as caught:
                bits_to_digits(bits, ALL_THREES_WORD)
            assert str(caught.value) == message

    def test_bits_equal_to_zero_or_one_read_as_ints(self):
        for bits in [(True, False, True), (1.0, 0.0, F(1)), iter([1, 0, 1])]:
            digits = bits_to_digits(bits, ALL_THREES_WORD)
            assert digits == (1, 1) and {type(d) for d in digits} == {int}

    def test_first_bad_digit_is_named(self):
        with pytest.raises(ValidationError) as caught:
            digits_to_bits((2, 1, 3, 7), ALL_THREES_WORD)
        assert str(caught.value) == "digit 3 out of range for radix 3"
        assert digits_to_bits(iter([2, 0]), ALL_THREES_WORD) == (1, 1, 0, 0)
