"""Admissibility, pattern decoding, face maps, and digit conversions."""

import itertools
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
    ResourceLimitError,
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
    parse_spec,
    radix_to_sequence,
    same_sequence,
    sequence_to_radix,
)
from tracerange import extreme_points
from tracerange.core import _CEILINGS
from tracerange.sequences import _rest, _term_runs

from support import (
    REFEREE_MODELS,
    RUN_FORM_MODELS,
    all_threes,
    cantor_like,
    dyadic,
    fraction_decode,
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


def decode_families(rng, rounds):
    """Face embeddings, by radices (), (2,), (3, 2) and (2, 4, 3, 2), of the
    referee and run-form models, of radix patterns cut into a prefix and a
    tail, of such patterns with one term moved, and of models whose last
    prefix run goes on into the tail; each scaled to a leading term of at
    most 1."""
    models = []
    for _ in range(rounds):
        models += [build(rng) for build in REFEREE_MODELS + RUN_FORM_MODELS]
        pattern = radix_to_sequence(random_word(rng))
        cut = rng.randint(0, 12)
        models.append(SequenceModel(pattern.first_terms(cut), _rest(pattern, cut).tail))
        terms = list(pattern.first_terms(cut + 3))
        terms[rng.randrange(cut + 3)] *= F(rng.choice((1, 2, 99, 101)), rng.choice((1, 2, 100)))
        tail = _rest(pattern, cut + 3).tail
        if min(terms) >= next(tail.runs())[0]:
            models.append(SequenceModel(tuple(sorted(terms, reverse=True)), tail))
        tail = MixedRadixTail(F(rng.randint(1, 3), rng.randint(1, 3)), random_word(rng))
        models.append(SequenceModel((tail.term(1),) * rng.randint(1, 6), tail))
        tail = GeometricTail(F(1, rng.choice((2, 3, 4, 8))), F(1, 2))
        models.append(SequenceModel((tail.first,) * rng.randint(1, 3), tail))
    for model in models:
        lead = model.term(1)
        if lead > 1:
            model = scale_model(model, 1 / lead)
        for radices in ((), (2,), (3, 2), (2, 4, 3, 2)):
            embedded = model
            for radix in radices:
                embedded = face_embed(embedded, radix)
            yield embedded


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
        assert sequence_to_radix(ten) == ExtremalityReport.non_extreme(11)

    @pytest.mark.parametrize("length", [70, 2000])
    def test_long_dyadic_prefix_is_decided(self, length):
        prefix = tuple(F(1, 2**i) for i in range(1, length + 1))
        with_tail = SequenceModel(prefix, GeometricTail(F(1, 2 ** (length + 1)), F(1, 2)))
        assert sequence_to_radix(with_tail) == ExtremalityReport.extreme(ALL_TWOS)
        finite = SequenceModel(prefix)
        assert sequence_to_radix(finite) == ExtremalityReport.non_extreme(length + 1)

    def test_pattern_embedded_seventy_times_decodes_to_its_word(self):
        word = RadixWord((3,), (2, 5))
        radices = [2 + i % 3 for i in range(70)]
        model = radix_to_sequence(word)
        for radix in radices:
            model = face_embed(model, radix)
        assert len(model.prefix) == sum(k - 1 for k in radices)
        want = RadixWord(tuple(reversed(radices)) + word.pre, word.period)
        assert sequence_to_radix(model) == ExtremalityReport.extreme(want)

    def test_peels_stay_within_prefix_runs_plus_two(self, monkeypatch):
        # each peel reads one run of the model's run stream; inside the
        # prefix a peel takes a whole run or breaks, and past it the
        # closed-form tail closes the word or breaks within two runs
        reads = []

        def spy(model):
            for run in _term_runs(model):
                reads.append(run)
                yield run

        monkeypatch.setattr(extreme_points, "_term_runs", spy)
        decided = set()
        for embedded in decode_families(random.Random(4711), 20):
            reads.clear()
            report = sequence_to_radix(embedded)
            runs = len(list(itertools.groupby(embedded.prefix)))
            assert len(reads) <= runs + 2, (embedded, report, reads)
            decided.add(report.status)
        assert decided == {"extreme", "non_extreme"}

    def test_a_prefix_run_that_goes_on_into_the_tail_is_one_run(self):
        # three copies of 1/4 open a radix-4 block; a fourth breaks it
        report = sequence_to_radix(parse_spec("1/4, radix(1; 4 | 2)"))
        assert report == ExtremalityReport.non_extreme(4)
        report = sequence_to_radix(parse_spec("1/4, 1/4, radix(1/2; 2 | 3)"))
        assert report == ExtremalityReport.extreme(RadixWord((4,), (3,)))
        # 1/4, 1/4 after 1/2 rescale to 1/2, a radix-2 block of one term
        report = sequence_to_radix(parse_spec("1/2, 1/4, 1/4, radix(1/4; 3)"))
        assert report == ExtremalityReport.non_extreme(3)
        # a million-term run across the junction is read as one run
        report = sequence_to_radix(parse_spec("1/2, 1/2000000, radix(1/2; 1000000)"))
        assert report == ExtremalityReport.non_extreme(10**6 + 1)

    def test_report_field_consistency(self):
        with pytest.raises(ValidationError):
            ExtremalityReport("extreme")
        with pytest.raises(ValidationError):
            ExtremalityReport("non_extreme", word=ALL_TWOS, witness_index=1)
        with pytest.raises(ValidationError):
            ExtremalityReport("maybe", depth=4)
        with pytest.raises(ValidationError):
            ExtremalityReport("undecided", depth=4)
        with pytest.raises(ValidationError):
            ExtremalityReport("extreme", word=ALL_TWOS, depth=4)

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


def referee_extract(terms, radix):
    """``face_extract``'s answer read off the terms: its message, or the
    terms after the leading run scaled back up."""
    if not terms:
        return "cannot extract from an empty sequence"
    first = terms[0]
    if radix is None:
        if first.numerator != 1 or first.denominator < 2:
            return f"leading term {first} is not a unit fraction below 1"
        radix = first.denominator
    elif first != F(1, radix):
        return f"leading term {first} is not 1/{radix}"
    copies = next((i for i, term in enumerate(terms) if term != first), len(terms))
    if copies < radix - 1:
        return f"leading run stops at index {copies + 1}, expected {radix - 1} copies of {first}"
    if copies > radix - 1:
        return f"leading run of {first} extends past {radix - 1} copies"
    return [radix * term for term in terms[radix - 1 :]]


class TestDecodeReferee:
    """The decoder against ``fraction_decode``, which peels the terms of
    ``fraction_terms`` one at a time, and ``face_extract`` against a scan
    of the same terms, over the face embeddings of every model family."""

    WINDOW = 300  # terms read past the prefix; every witness falls inside

    def test_decoder_and_extraction_match_the_term_referee(self):
        statuses = set()
        for model in decode_families(random.Random(2718), 12):
            count = len(model.prefix) + self.WINDOW
            radices, witness = fraction_decode(model, count)
            report = sequence_to_radix(model)
            statuses.add(report.status)
            if witness is None:
                assert report.status == "extreme", model
                assert report.word.entries(len(radices)) == tuple(radices), model
            else:
                assert report == ExtremalityReport.non_extreme(witness), model
            terms = fraction_terms(model, count)
            for radix in (None, 2, 3, 4, 5):
                want = referee_extract(terms, radix)
                try:
                    inner = face_extract(model, radix)
                except DomainError as exc:
                    assert str(exc) == want, (model, radix)
                else:
                    # as many terms as the model has past the run, up to the window
                    assert fraction_terms(inner, count - len(terms) + len(want)) == want, (model, radix)
        assert statuses == {"extreme", "non_extreme"}

    def test_a_prefix_run_that_goes_on_into_the_tail_is_too_long_to_extract(self):
        model = parse_spec("1/4, radix(1; 4 | 2)")
        for radix in (None, 4):
            with pytest.raises(DomainError, match="leading run of 1/4 extends past 3 copies"):
                face_extract(model, radix)
        with pytest.raises(DomainError, match="leading run of 1/1000000 extends past 999999 copies"):
            face_extract(parse_spec("1/1000000, radix(1; 1000000)"))


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

    def test_count_past_the_bound_is_refused_before_any_digit(self):
        with pytest.raises(ResourceLimitError, match="^200000000 digits exceed the bound of 100000$"):
            mixed_radix_digits(ALL_TWOS, F(1, 3), 200_000_000)
        ceiling = _CEILINGS["digits"][0]
        with pytest.raises(ResourceLimitError):
            mixed_radix_digits(ALL_TWOS, F(1, 3), ceiling + 1)
        assert len(mixed_radix_digits(ALL_TWOS, F(1, 3), ceiling)) == ceiling

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
