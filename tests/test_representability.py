"""Condition checks, greedy expansions, and gap certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tracerange import (
    BitExpansion,
    DomainError,
    GeometricTail,
    MixedRadixTail,
    OutOfSupportError,
    RadixWord,
    SequenceModel,
    ValidationError,
    bits_to_digits,
    digits_to_bits,
    gap_certificate,
    greedy_expand,
    kakeya_check,
    list_violations,
    make_model,
    mixed_radix_digits,
    radix_to_sequence,
    verify_expansion,
)
from tracerange.dsl import parse_spec
from tracerange.representability import _excesses

from support import (
    REFEREE_MODELS,
    RUN_FORM_MODELS,
    all_threes,
    cantor_like,
    dyadic,
    fraction_greedy,
    fraction_verify,
    fraction_violations,
    models,
    random_complete_model,
    random_fraction,
    random_word,
    run_cuts,
    scale_model,
)
from test_sequences import CANCELLING_MODELS

F = Fraction


class TestConditionCheck:
    def test_halving_sequence_holds(self):
        verdict = kakeya_check(dyadic())
        assert verdict.holds
        assert verdict.first_violation is None
        assert verdict.gap is None

    def test_radix_patterns_hold(self):
        assert kakeya_check(all_threes()).holds
        mixed = SequenceModel((), MixedRadixTail(F(1), RadixWord((4, 2), (3, 5))))
        assert kakeya_check(mixed).holds

    def test_fast_decay_fails_at_first_index(self):
        verdict = kakeya_check(cantor_like())
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert verdict.gap == (F(1, 3), F(2, 3))

    def test_finite_model_fails_at_last_index(self):
        verdict = kakeya_check(make_model([F(3, 5), F(2, 5)]))
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert verdict.gap == (F(2, 5), F(3, 5))

    def test_prefix_violation_before_sound_tail(self):
        model = SequenceModel((F(1, 2), F(1, 8)), GeometricTail(F(1, 16), F(1, 2)))
        verdict = kakeya_check(model)
        assert verdict.first_violation == 1
        assert verdict.gap == (F(1, 4), F(1, 2))

    def test_violation_bound_is_tight(self):
        # equality is allowed: each term may equal the sum after it
        model = SequenceModel((F(1, 2), F(1, 4)), GeometricTail(F(1, 8), F(1, 2)))
        assert kakeya_check(model).holds

    @given(models())
    def test_verdict_matches_direct_scan(self, model):
        verdict = kakeya_check(model)
        depth = len(model.prefix) + 2
        first = None
        for n in range(1, depth + 1):
            if model.finite and n > len(model.prefix):
                break
            if model.term(n) > model.tail_sum(n):
                first = n
                break
        if first is not None:
            assert not verdict.holds
            assert verdict.first_violation == first
        elif verdict.first_violation is not None:
            assert verdict.first_violation > depth


class TestGreedyExpansion:
    def test_halving_third(self):
        expansion = greedy_expand(dyadic(), F(1, 3), 4)
        assert expansion.bits == (0, 1, 0, 1)
        assert expansion.achieved == F(5, 16)
        assert expansion.residual == F(1, 48)
        assert expansion.residual_bound == F(1, 16)

    def test_radix_pattern_half(self):
        expansion = greedy_expand(all_threes(), F(1, 2), 6)
        assert expansion.bits == (1, 0, 1, 0, 1, 0)

    def test_target_equal_to_total(self):
        expansion = greedy_expand(dyadic(), F(1), 5)
        assert expansion.bits == (1, 1, 1, 1, 1)
        assert expansion.residual == F(1, 32)

    def test_target_zero(self):
        expansion = greedy_expand(dyadic(), F(0), 5)
        assert expansion.bits == (0,) * 5
        assert expansion.achieved == 0

    def test_target_outside_range(self):
        with pytest.raises(DomainError):
            greedy_expand(dyadic(), F(3, 2), 4)
        with pytest.raises(DomainError):
            greedy_expand(dyadic(), F(-1, 2), 4)

    def test_finite_model_clamps_steps(self):
        expansion = greedy_expand(make_model([F(1, 2), F(1, 4), F(1, 4)]), F(3, 4), 10)
        assert expansion.bits == (1, 1, 0)
        assert expansion.residual == 0

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
    def test_dyadic_expansion_matches_binary_digits(self, num, den):
        # on the halving sequence the greedy bits are the binary expansion
        target = F(min(num, den), den)
        bits = greedy_expand(dyadic(), target, 16).bits
        acc = sum(F(b, 2**i) for i, b in enumerate(bits, start=1))
        assert target - acc <= F(1, 2**16)
        assert acc <= target

    def test_greedy_residual_within_tail_bound(self):
        import random

        rng = random.Random(411)
        for _ in range(25):
            model = random_complete_model(rng)
            target = model.total * F(rng.randint(0, 16), 16)
            expansion = greedy_expand(model, target, 20)
            assert 0 <= expansion.residual <= expansion.residual_bound
            assert expansion.residual_bound == model.tail_sum(20)


class TestVerifyExpansion:
    def test_replays_selected_terms(self):
        model = dyadic()
        assert verify_expansion(model, (0, 1, 0, 1), F(1, 3)) == F(1, 48)
        assert verify_expansion(model, (1, 1), F(3, 4)) == 0

    def test_rejects_non_bits(self):
        with pytest.raises(ValidationError):
            verify_expansion(dyadic(), (0, 2), F(1, 2))

    def test_set_bit_past_support(self):
        with pytest.raises(OutOfSupportError):
            verify_expansion(make_model([F(1, 2)]), (1, 1), F(1, 2))

    def test_first_offending_bit_decides_the_error(self):
        model = make_model([F(1, 2)])
        with pytest.raises(OutOfSupportError):
            verify_expansion(model, (0, 1, 2), F(1, 2))
        with pytest.raises(ValidationError):
            verify_expansion(model, (0, 2, 1), F(1, 2))

    def test_clear_bits_past_support_are_fine(self):
        assert verify_expansion(make_model([F(1, 2)]), (1, 0, 0), F(1, 2)) == 0

    def test_bits_to_digits_shares_the_check(self):
        word = RadixWord((), (3,))
        for bits, message in [
            ((0, 2, 1), "bit 2 must be 0 or 1, got 2"),
            ((1, 0, "1"), "bit 3 must be 0 or 1, got '1'"),
        ]:
            for read in (lambda b: verify_expansion(dyadic(), b, F(1, 2)), lambda b: bits_to_digits(b, word)):
                with pytest.raises(ValidationError) as caught:
                    read(bits)
                assert str(caught.value) == message
        # True and False read as 1 and 0 on both routes
        assert verify_expansion(dyadic(), (True, False, True), F(5, 8)) == 0
        assert bits_to_digits((True, False, True), word) == (1, 1)

    @given(models(), st.lists(st.integers(min_value=0, max_value=1), max_size=10))
    def test_matches_manual_sum(self, model, bits):
        if model.finite and len(bits) > len(model.prefix):
            bits = bits[: len(model.prefix)]
        terms = list(itertools.islice(model.iter_terms(), len(bits)))
        expected = abs(F(1, 7) - sum((t for b, t in zip(bits, terms) if b), F(0)))
        assert verify_expansion(model, tuple(bits), F(1, 7)) == expected


class TestIntegerReferee:
    """The integer greedy expansion and verification against plain
    ``Fraction`` loops over ``iter_terms``."""

    def test_greedy_and_verify_match_fraction_loops(self):
        rng = random.Random(2718)
        for trial in range(360):
            model = REFEREE_MODELS[trial % len(REFEREE_MODELS)](rng)
            grain = rng.choice([4, 16, 97, 1000])
            target = random_fraction(rng, F(0), model.total, grain=grain)
            bit_count = rng.randint(0, 60)
            expansion = greedy_expand(model, target, bit_count)
            assert expansion == BitExpansion(*fraction_greedy(model, target, bit_count))
            bits = expansion.bits
            assert verify_expansion(model, bits, target) == fraction_verify(model, bits, target)
            noise = tuple(rng.randint(0, 1) for _ in bits)
            assert verify_expansion(model, noise, target) == fraction_verify(model, noise, target)

    def test_run_form_models_match_fraction_loops(self):
        # the greedy steps a prefix run at once and verify counts its ones;
        # cut inside each run, at its end and past the prefix/tail junction
        rng = random.Random(2719)
        for trial in range(60):
            model = RUN_FORM_MODELS[trial % len(RUN_FORM_MODELS)](rng)
            target = random_fraction(rng, F(0), model.total, grain=rng.choice([4, 16, 97, 1000]))
            for bit_count in run_cuts(model, rng):
                expansion = greedy_expand(model, target, bit_count)
                assert expansion == BitExpansion(*fraction_greedy(model, target, bit_count)), (model, bit_count)
                bits = expansion.bits
                assert verify_expansion(model, bits, target) == fraction_verify(model, bits, target)
                noise = tuple(rng.randint(0, 1) for _ in bits)
                assert verify_expansion(model, noise, target) == fraction_verify(model, noise, target)


class TestNumeralReferee:
    """``verify_expansion``, which evaluates the tail's bits as a numeral,
    against the plain ``Fraction`` sum at every cut up to 400 bits."""

    @staticmethod
    def check_every_cut(model, target, bits) -> None:
        for cut in range(len(bits) + 1):
            assert verify_expansion(model, bits[:cut], target) == fraction_verify(model, bits[:cut], target), (
                model,
                cut,
            )

    def test_every_cut_of_greedy_and_noise_bits(self):
        rng = random.Random(1729)
        for trial in range(len(REFEREE_MODELS)):
            model = REFEREE_MODELS[trial](rng)
            target = random_fraction(rng, F(0), model.total, grain=997)
            bits = greedy_expand(model, target, 400).bits
            self.check_every_cut(model, target, bits)
            self.check_every_cut(model, target, tuple(rng.randint(0, 1) for _ in bits))

    def test_cuts_inside_radix_blocks(self):
        # blocks of 2, 1, 1, ... slots, and of 3, 4, 2, 4, 2, ... slots, so
        # the cuts end blocks whole and cut them after each of their slots
        for spec in ("radix(1; 3 | 2)", "radix(2/3; 4 | 5 3)"):
            model = parse_spec(spec)
            for bits in [(1,) * 16, (0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0), (1,) + (0,) * 14 + (1,)]:
                self.check_every_cut(model, F(5, 7), bits)

    def test_cut_at_the_prefix_tail_junction(self):
        model = SequenceModel((F(3, 5), F(1, 3)), GeometricTail(F(1, 7), F(2, 9)))
        for bits in [(1, 1), (1, 1, 1), (0, 1, 1, 0, 1), (1, 0)]:
            assert verify_expansion(model, bits, F(1)) == fraction_verify(model, bits, F(1))

    def test_clear_bits_past_a_finite_support(self):
        model = make_model([F(1, 2), F(1, 3), F(1, 5)])
        for bits in [(1, 0, 1, 0, 0, 0), (0, 1, 1) + (0,) * 40, (0,) * 10]:
            assert verify_expansion(model, bits, F(2, 3)) == fraction_verify(model, bits, F(2, 3))

    def test_ratio_numerator_above_one_at_a_thousand_bits(self):
        model = SequenceModel((), GeometricTail(F(1, 5), F(3, 4)))
        rng = random.Random(4)
        target = random_fraction(rng, F(0), model.total, grain=10**6)
        for bits in [greedy_expand(model, target, 1000).bits, tuple(rng.randint(0, 1) for _ in range(1000))]:
            assert verify_expansion(model, bits, target) == fraction_verify(model, bits, target)


class TestUnitStepReferee:
    """The greedy stepped in units of the current term against the plain
    ``Fraction`` greedy: long runs, so the integer pairs grow to many limbs,
    cuts at the prefix/tail junction and inside radix blocks, and targets
    on the edges of the range and on exact subset sums."""

    @staticmethod
    def cuts(model, rng) -> list[int]:
        head = len(model.prefix)
        cuts = {0, 1, max(head - 1, 0), head, head + 1, 400, rng.randint(0, 400)}
        if model.tail.as_radix() is not None:
            # the first slot of a block, one inside it, and the one before
            # the next block
            sizes = itertools.accumulate(size for _, size in itertools.islice(model.tail.runs(), 6))
            for end in sizes:
                cuts |= {head + end - 1, head + end + 1, head + end + 2}
        return sorted(cuts)

    @staticmethod
    def targets(model, rng) -> list:
        terms = list(itertools.islice(model.iter_terms(), 12))
        chosen = sum((a for a in terms if rng.random() < 0.5), F(0))
        return [F(0), model.total, chosen, random_fraction(rng, F(0), model.total, grain=997)]

    def check(self, model, rng) -> None:
        for count in self.cuts(model, rng):
            for target in self.targets(model, rng):
                expansion = greedy_expand(model, target, count)
                assert expansion == BitExpansion(*fraction_greedy(model, target, count)), (model, target, count)

    def test_referee_models_scaled(self):
        rng = random.Random(6021)
        for trial in range(36):
            model = REFEREE_MODELS[trial % len(REFEREE_MODELS)](rng)
            self.check(scale_model(model, rng.choice([F(1), F(3, 4), F(7, 3)])), rng)

    def test_run_form_models(self):
        rng = random.Random(6022)
        for trial in range(30):
            model = RUN_FORM_MODELS[trial % len(RUN_FORM_MODELS)](rng)
            for count in run_cuts(model, rng):
                for target in self.targets(model, rng):
                    expansion = greedy_expand(model, target, count)
                    assert expansion == BitExpansion(*fraction_greedy(model, target, count)), (model, target, count)

    @pytest.mark.parametrize("name", [name for name, model in CANCELLING_MODELS.items() if not model.finite])
    def test_cancelling_models(self, name):
        self.check(CANCELLING_MODELS[name], random.Random(name))

    def test_digits_spell_the_greedy_bits(self):
        rng = random.Random(3141)
        for _ in range(120):
            word = random_word(rng, max_entry=9)
            den = rng.choice([1, 6, 97, 1024, 3**7])
            target = F(rng.randint(0, den), den)
            count = rng.randint(0, 40)
            bit_count = sum(k - 1 for k in word.entries(count))
            digits = mixed_radix_digits(word, target, count)
            bits = greedy_expand(radix_to_sequence(word), target, bit_count).bits
            assert digits_to_bits(digits, word) == bits

    @pytest.mark.parametrize(
        "tail, room",
        [
            (GeometricTail(F(1, 3), F(2, 3)), F(1)),
            (GeometricTail(F(3, 4), F(1, 2)), F(3, 2)),
            (MixedRadixTail(F(2, 5), RadixWord((3,), (2, 5))), F(2, 5)),
        ],
    )
    def test_a_residual_above_the_tail_trips_the_check(self, tail, room):
        over = room + F(1, 10**6)
        with pytest.raises(AssertionError):
            tail.greedy(over.numerator, over.denominator, 5, True)
        # at the bound, and unchecked above it, the steps run
        assert len(tail.greedy(room.numerator, room.denominator, 5, True)[0]) == 5
        assert len(tail.greedy(over.numerator, over.denominator, 5, False)[0]) == 5

    def test_a_step_into_a_gap_trips_the_check(self):
        # 1/2 fits the Cantor tail 2/3, 2/9, ... at entry but sits in its
        # gap (1/3, 2/3), so the first step leaves more than the tail after it
        cantor = GeometricTail(F(2, 3), F(1, 3))
        with pytest.raises(AssertionError, match="at tail step 1"):
            cantor.greedy(1, 2, 3, True)
        assert cantor.greedy(1, 2, 3, False)[0] == [0, 1, 1]


class TestGapCertificates:
    def test_fast_decay_gap(self):
        assert gap_certificate(cantor_like(), 2) == (F(1, 9), F(2, 9))

    def test_finite_end_gap(self):
        assert gap_certificate(make_model([F(3, 5), F(2, 5)]), 2) == (F(0), F(2, 5))

    def test_non_violating_index_rejected(self):
        with pytest.raises(DomainError):
            gap_certificate(dyadic(), 3)

    def test_list_violations_scans_in_order(self):
        found = list_violations(make_model([F(3, 5), F(2, 5)]), 4)
        assert found == [(1, (F(2, 5), F(3, 5))), (2, (F(0), F(2, 5)))]

    def test_list_violations_geometric(self):
        found = list_violations(cantor_like(), 3)
        assert [n for n, _ in found] == [1, 2, 3]
        assert found[0][1] == (F(1, 3), F(2, 3))

    @staticmethod
    def draws(referee: int, run_form: int):
        """Each referee builder ``referee`` times in turn, then each
        run-form builder ``run_form`` times, whose long prefix runs the run
        rule reads a run at a time."""
        return (*REFEREE_MODELS,) * referee + (*RUN_FORM_MODELS,) * run_form

    def test_list_violations_matches_fraction_loop(self):
        rng = random.Random(1729)
        for build in self.draws(40, 20):
            model = build(rng)
            depth = rng.randint(0, model._length + 40)  # cuts inside the prefix and past it
            assert list_violations(model, depth) == fraction_violations(model, depth)

    def test_slack_engine_matches_fraction_loop(self):
        # sigma of both signs and many sizes: radix tails at sigma < 0
        # violate on a suffix of every block, and geometric runs with
        # ratio below 1/2 end after a few indices once sigma > 0
        rng = random.Random(5150)
        for build in self.draws(100, 40):
            model = build(rng)
            size = model.total * random_fraction(rng, F(1, 8), F(1), grain=7)
            sigma = rng.choice([-1, 1]) * size / 2 ** rng.randint(0, 12)
            depth = model._length + 60
            found = itertools.takewhile(lambda item: item[0] <= depth, _excesses(model, sigma))
            assert list(found) == fraction_violations(model, depth, sigma), (model, sigma)

    @given(models(), st.integers(min_value=1, max_value=8))
    def test_listed_gaps_match_certificates(self, model, depth):
        for n, gap in list_violations(model, depth):
            assert gap_certificate(model, n) == gap
            lo, hi = gap
            assert lo < hi
