"""The prefix held as runs of equal terms.

Every model a derivation builds through ``_from_runs`` must be the model
its spelled-out prefix builds through the public constructor, and every
engine must answer the same on both. The run form also fixes what a
derived model costs: the Fractions built by an embedding, its decoding and
its condition check do not grow with the length of a run.
"""

import json
import random
from fractions import Fraction

import pytest

from tracerange import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    ValidationError,
    ZeroTail,
    achievable_outer,
    admissibility_check,
    face_embed,
    face_extract,
    from_algebra,
    greedy_expand,
    kakeya_check,
    list_violations,
    radix_to_sequence,
    same_sequence,
    sequence_to_radix,
    split_leading,
    verify_expansion,
)
from tracerange.errors import OutOfSupportError
from tracerange.sequences import _from_runs, _rest
from tracerange.serialize import model_to_doc

from support import REFEREE_MODELS, random_unit_admissible_model

F = Fraction


def outcome(call):
    """A call's value, or its error's type and message."""
    try:
        return call()
    except (OutOfSupportError, ValidationError) as error:
        return type(error), str(error)


def answers(model: SequenceModel) -> dict:
    """What every engine answers on ``model``, as plain comparable values."""
    length = len(model.prefix)
    target = model.total * F(3, 7)
    bits = length + 6
    expansion = greedy_expand(model, target, bits)
    return {
        "runs": model._runs,
        "terms": [outcome(lambda n=n: model.term(n)) for n in range(1, length + 4)],
        "tail_sums": [outcome(lambda n=n: model.tail_sum(n)) for n in range(0, length + 4)],
        "total": model.total,
        "kakeya": kakeya_check(model),
        "admissible": admissibility_check(model),
        "violations": list_violations(model, length + 4),
        "expansion": expansion,
        "verified": verify_expansion(model, expansion.bits, target),
        "cover": achievable_outer(model, min(length + 2, 9)),
        "decoded": sequence_to_radix(model),
        "doc": json.dumps(model_to_doc(model)),
    }


def assert_same_as_rebuilt(model: SequenceModel) -> None:
    rebuilt = SequenceModel(tuple(model.prefix), model.tail)
    assert model == rebuilt and hash(model) == hash(rebuilt) and repr(model) == repr(rebuilt)
    assert answers(model) == answers(rebuilt)


def derived_models(rng: random.Random):
    """Run-built models of every derivation, from the referee models."""
    for build in REFEREE_MODELS:
        model = build(rng)
        lead = model.first_terms(1)[0]
        if lead <= 1:
            radix = rng.randint(2, 5)
            embedded = face_embed(model, radix)
            yield embedded
            if lead < 1:  # a leading 1 would lengthen the prepended run
                yield face_extract(embedded, radix)
        yield split_leading(model, rng.randint(0, len(model.prefix) + (0 if model.finite else 4)))[1]
    admissible = random_unit_admissible_model(rng)
    inner, outer = rng.randint(2, 4), rng.randint(2, 4)
    chained = face_embed(face_embed(admissible, inner), outer)
    yield chained
    yield face_extract(chained, outer)
    if admissible.first_terms(1)[0] < 1:
        yield face_extract(face_extract(chained, outer), inner)


ALGEBRAS = (
    # two factors of equal atoms, and a tail term equal to them
    AlgebraSpec((MatrixFactor(4, F(1, 2)), MatrixFactor(2, F(1, 4))), GeometricTail(F(1, 8), F(1, 2))),
    # repeated weights in different factors, a re-anchored geometric tail
    AlgebraSpec((MatrixFactor(3, F(1, 4)), MatrixFactor(6, F(1, 2))), GeometricTail(F(1, 8), F(1, 2))),
    # a whole radix block moves into the prefix and merges with a factor
    AlgebraSpec((MatrixFactor(3, F(1, 4)), MatrixFactor(1, F(1, 2))), MixedRadixTail(F(1, 4), RadixWord((), (3,)))),
    # factors only
    AlgebraSpec((MatrixFactor(2, F(1, 3)), MatrixFactor(1, F(1, 3)), MatrixFactor(1, F(1, 3)))),
)


def random_algebra(rng: random.Random) -> AlgebraSpec:
    """A few factors of weights from a small pool, so atoms repeat, and a
    tail holding the rest of the trace."""
    factors = [MatrixFactor(rng.randint(1, 5), F(1, rng.choice((4, 8, 12)))) for _ in range(rng.randint(1, 3))]
    rest = 1 - sum(f.weight for f in factors)
    if rest <= 0:
        return AlgebraSpec((MatrixFactor(1, F(1)),))
    tail = rng.choice(
        [
            GeometricTail(rest * (1 - F(1, 2)), F(1, 2)),
            GeometricTail(rest * (1 - F(2, 3)), F(2, 3)),
            MixedRadixTail(rest, RadixWord((), (rng.randint(2, 4),))),
        ]
    )
    return AlgebraSpec(tuple(factors), tail)


class TestRunFormReferee:
    @pytest.mark.parametrize("seed", range(6))
    def test_derived_models_match_their_spelled_out_prefix(self, seed):
        rng = random.Random(seed)
        for model in derived_models(rng):
            assert_same_as_rebuilt(model)

    @pytest.mark.parametrize("spec", ALGEBRAS)
    def test_algebra_merges_match_their_spelled_out_prefix(self, spec):
        assert_same_as_rebuilt(from_algebra(spec))

    def test_random_algebra_merges(self):
        rng = random.Random(23)
        for _ in range(12):
            assert_same_as_rebuilt(from_algebra(random_algebra(rng)))

    def test_runs_are_canonical(self):
        merged = from_algebra(ALGEBRAS[0])
        assert merged._runs == ((F(1, 8), 7),)
        embedded = face_embed(SequenceModel((F(1), F(1, 2)), ZeroTail()), 3)
        assert embedded._runs == ((F(1, 3), 3), (F(1, 6), 1))

    def test_a_fraction_entry_is_kept_as_it_is(self):
        third = F(1, 3)
        model = SequenceModel((third, F(1, 3), 0.25), ZeroTail())
        assert model.prefix[0] is third and model.prefix == (F(1, 3), F(1, 3), F(1, 4))
        assert model._runs == ((F(1, 3), 2), (F(1, 4), 1))

    def test_a_run_past_the_prefix_continues_into_the_tail(self):
        # the last prefix run and the first tail run hold the same value
        model = SequenceModel((F(1, 4), F(1, 4)), MixedRadixTail(F(1, 2), RadixWord((), (3,))))
        assert_same_as_rebuilt(model)
        assert list_violations(model, 8) == []


def termwise_same_sequence(a: SequenceModel, b: SequenceModel) -> bool:
    """The term-by-term comparison ``same_sequence`` replaced: every index
    through the longer prefix, a finite model's missing term read as None,
    then the suffix tails read as radix tails where they are ones."""
    head = max(len(a.prefix), len(b.prefix))
    for n in range(1, head + 1):
        if outcome(lambda: a.term(n)) != outcome(lambda: b.term(n)):
            return False
    x, y = (_rest(model, head).tail for model in (a, b))
    return (x.as_radix() or x) == (y.as_radix() or y)


def rebuilt_at(model: SequenceModel, count: int) -> SequenceModel:
    """The same terms, with the first ``count`` spelled out before the
    closed form of the rest."""
    head, rest = split_leading(model, count)
    return SequenceModel(head + rest.prefix, rest.tail)


EMBEDDED = face_embed(radix_to_sequence(RadixWord((), (2,))), 10)  # 9 copies of 1/10, then 1/20, ...
NEAR_PAIRS = [
    # one term off inside the run of 1/10, and at its last slot
    (EMBEDDED, SequenceModel((F(1, 10),) * 5 + (F(1, 11),) * 4, EMBEDDED.tail)),
    (EMBEDDED, SequenceModel((F(1, 10),) * 8 + (F(1, 11),), EMBEDDED.tail)),
    # the run ends one term early or late, at the boundary with the tail
    (EMBEDDED, SequenceModel((F(1, 10),) * 8, MixedRadixTail(F(3, 20), RadixWord((), (2,))))),
    (EMBEDDED, SequenceModel((F(1, 10),) * 10, EMBEDDED.tail)),
    # a run boundary moved by one term inside the prefix
    (SequenceModel((F(1, 2), F(1, 4), F(1, 4), F(1, 8))), SequenceModel((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))),
    (SequenceModel((F(1, 3),) * 3 + (F(1, 9),) * 2), SequenceModel((F(1, 3),) * 2 + (F(1, 9),) * 3)),
    # the prefix's last run continues into the tail's first block
    (SequenceModel((F(1, 6),), MixedRadixTail(F(1, 2), RadixWord((), (3,)))),
     SequenceModel((F(1, 6),) * 3, MixedRadixTail(F(1, 6), RadixWord((), (3,))))),
    (SequenceModel((F(1, 6),), MixedRadixTail(F(1, 2), RadixWord((), (3,)))),
     SequenceModel((F(1, 6),) * 3, MixedRadixTail(F(1, 6), RadixWord((), (4,))))),
    # a finite model that stops inside the other's run
    (SequenceModel((F(1, 4),) * 3), SequenceModel((F(1, 4),) * 2)),
    (SequenceModel((F(1, 4),) * 2), SequenceModel((), MixedRadixTail(F(3, 4), RadixWord((4,), (2,))))),
]


class TestSameSequenceReferee:
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_agree_with_the_termwise_loop(self, seed):
        rng = random.Random(seed)
        models = [build(rng) for build in REFEREE_MODELS] + list(derived_models(rng))
        for model in models:
            others = [model, rebuilt_at(model, rng.randint(0, len(model.prefix) + (0 if model.finite else 5)))]
            lead = next(model.iter_terms(), None)  # a cut at a finite support leaves no term
            if lead is not None and lead < 1:
                radix = rng.randint(2, 5)
                others.append(face_extract(face_embed(model, radix), radix))
                others.append(face_embed(model, radix))
            others += rng.sample(models, 3)
            for other in others:
                expected = termwise_same_sequence(model, other)
                assert same_sequence(model, other) == same_sequence(other, model) == expected
            assert same_sequence(model, others[1]) and same_sequence(model, others[0])

    @pytest.mark.parametrize("a, b", NEAR_PAIRS)
    def test_pairs_one_term_apart(self, a, b):
        expected = termwise_same_sequence(a, b)
        assert same_sequence(a, b) == same_sequence(b, a) == expected

    def test_the_near_pairs_differ_unless_a_run_merges_across_the_junction(self):
        verdicts = [termwise_same_sequence(a, b) for a, b in NEAR_PAIRS]
        assert verdicts == [False] * 6 + [True] + [False] * 3

    def test_a_long_run_reads_as_many_terms_as_a_short_one(self, monkeypatch):
        base = radix_to_sequence(RadixWord((), (2,)))
        term = SequenceModel.term
        counts = []
        for radix in (10, 10**5):
            a, b = face_embed(base, radix), face_embed(base, radix)
            calls = [0]

            def counted_term(model, n):
                calls[0] += 1
                return term(model, n)

            monkeypatch.setattr(SequenceModel, "term", counted_term)
            assert same_sequence(a, b) and not same_sequence(a, face_embed(base, radix + 1))
            monkeypatch.undo()
            counts.append(calls[0])
        assert counts[0] == counts[1]


def per_entry_message(prefix, tail) -> str:
    """The first message a check entry by entry gives, in the order the
    constructor reports: positivity, order, then the junction."""
    prefix = [F(x) for x in prefix]
    for x in prefix:
        if x <= 0:
            return f"sequence entries must be positive, got {x}"
    for a, b in zip(prefix, prefix[1:]):
        if a < b:
            return f"prefix is not non-increasing: {a} before {b}"
    first = tail.term(1)
    return f"junction violation: last prefix entry {prefix[-1]} is below the first tail term {first}"


MESSAGE_CASES = [
    ((F(1, 2), F(1, 2), F(0), F(1, 4)), ZeroTail()),
    ((F(1, 2), F(-1, 3), F(1)), ZeroTail()),
    # an increase right after a run, and one after a run spelled by mixed types
    ((F(1, 3), F(1, 3), F(1, 2)), ZeroTail()),
    ((F(1, 2), 0.25, "1/4", F(1, 3), F(1, 3)), ZeroTail()),
    ((F(1, 2), F(1, 4), F(1, 4), F(1, 2)), ZeroTail()),
    ((F(1, 8), F(1, 8)), GeometricTail(F(1, 4), F(1, 2))),
    ((F(1, 3), F(1, 9), F(1, 9)), MixedRadixTail(F(1), RadixWord((), (3,)))),
]


class TestMessageParity:
    @pytest.mark.parametrize("prefix, tail", MESSAGE_CASES)
    def test_constructor_reports_the_first_offending_entry(self, prefix, tail):
        with pytest.raises(ValidationError) as caught:
            SequenceModel(prefix, tail)
        assert str(caught.value) == per_entry_message(prefix, tail)

    @pytest.mark.parametrize("prefix, tail", MESSAGE_CASES)
    def test_from_runs_reports_the_same(self, prefix, tail):
        runs = [(F(x), 1) for x in prefix]
        with pytest.raises(ValidationError) as caught:
            _from_runs(runs, tail)
        assert str(caught.value) == per_entry_message(prefix, tail)


class TestCostContract:
    """Counts, not times: what a derived model costs must not grow with the
    length of its runs."""

    def test_embedding_decoding_and_checking_build_as_many_fractions_at_any_radix(self, monkeypatch):
        base = radix_to_sequence(RadixWord((), (2,)))
        fraction_new = Fraction.__new__
        counts = []
        for radix in (10, 10**5):
            calls = [0]

            def counted_new(cls, *args, **kwargs):
                calls[0] += 1
                return fraction_new(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
            embedded = face_embed(base, radix)
            report = sequence_to_radix(embedded)
            verdict = kakeya_check(embedded)
            monkeypatch.undo()
            assert len(embedded.prefix) == radix - 1
            assert report.word == RadixWord((radix,), (2,)) and verdict.holds
            counts.append(calls[0])
        # the spy does count: the embedding builds 1/radix at least
        assert counts[0] > 0
        assert counts[0] == counts[1]


class TestPrefixStaysUnspelled:
    """A deterministic spy, no clock: a model built from runs spells its
    ``prefix`` tuple out only when something reads it. Every engine and the
    model's identity read the runs, so a run of a million terms costs them
    no more than a run of ten."""

    R = 10**6

    def test_no_engine_spells_out_a_million_term_run(self):
        base = radix_to_sequence(RadixWord((), (2,)))
        model, twin = face_embed(base, self.R), face_embed(base, self.R)
        unit = F(1, self.R)
        target = F(1, 3)
        bits = (1,) * 64  # 64 copies of 1/R fit under 1/3
        reads = {
            "face_embed": lambda: model._runs == ((unit, self.R - 1),),
            "==": lambda: model == twin,
            "hash": lambda: hash(model) == hash(twin),
            "same_sequence": lambda: same_sequence(model, twin),
            "sequence_to_radix": lambda: sequence_to_radix(model).word == RadixWord((self.R,), (2,)),
            "kakeya_check": lambda: kakeya_check(model).holds,
            "admissibility_check": lambda: admissibility_check(model).holds,
            "face_extract": lambda: face_extract(model) == base,
            "term": lambda: model.term(self.R // 2) == unit and model.term(self.R + 9) == unit / 2**10,
            "tail_sum": lambda: model.tail_sum(self.R // 2) == F(self.R - self.R // 2, self.R),
            "greedy_expand": lambda: greedy_expand(model, target, 64).bits == bits,
            "verify_expansion": lambda: verify_expansion(model, bits, target) == target - 64 * unit,
        }
        for name, read in reads.items():
            assert read(), name
            assert "prefix" not in vars(model) and "prefix" not in vars(twin), name

    def test_repr_and_document_match_a_spelled_out_model(self):
        radix = 10**5
        model = face_embed(radix_to_sequence(RadixWord((), (2,))), radix)
        spelled = SequenceModel((F(1, radix),) * (radix - 1), model.tail)
        assert "prefix" not in vars(model) and "prefix" in vars(spelled)
        assert json.dumps(model_to_doc(model)) == json.dumps(model_to_doc(spelled))
        # the document writes each run's text once, and reads no spelled-out prefix
        assert "prefix" not in vars(model)
        assert repr(model) == repr(spelled)
        assert model.prefix == spelled.prefix
