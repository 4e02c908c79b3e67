"""JSON document conversions and the inline spec grammar."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from tracerange import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    ParseError,
    RadixWord,
    SequenceModel,
    ValidationError,
    ZeroTail,
    achievable_outer,
    convexity_verdict,
    greedy_expand,
    kakeya_check,
    make_model,
    parse_algebra,
    parse_spec,
    parse_word,
    sequence_to_radix,
)
from tracerange import serialize as ser

from support import cantor_like, dyadic, models, radix_words

F = Fraction


class TestDocumentRoundtrips:
    def test_model_doc_shape(self):
        model = SequenceModel((F(1, 2),), MixedRadixTail(F(1, 2), RadixWord((3,), (2,))))
        doc = ser.model_to_doc(model)
        assert doc == {
            "prefix": ["1/2"],
            "tail": {"kind": "radix", "scale": "1/2", "pre": [3], "period": [2]},
        }
        assert ser.model_from_doc(doc) == model

    def test_zero_tail_and_defaults(self):
        doc = ser.model_to_doc(make_model([F(1, 2)]))
        assert doc["tail"] == {"kind": "zero"}
        # both keys are optional on the way in
        assert ser.model_from_doc({"prefix": ["1/2"]}) == make_model([F(1, 2)])
        assert ser.model_from_doc({}) == SequenceModel((), ZeroTail())

    def test_geometric_tail_doc(self):
        doc = ser.tail_to_doc(GeometricTail(F(1, 4), F(1, 2)))
        assert doc == {"kind": "geometric", "first": "1/4", "ratio": "1/2"}
        assert ser.tail_from_doc(doc) == GeometricTail(F(1, 4), F(1, 2))

    def test_integer_rationals_accepted(self):
        tail = ser.tail_from_doc({"kind": "geometric", "first": 1, "ratio": "1/2"})
        assert tail == GeometricTail(F(1), F(1, 2))

    def test_algebra_doc_shape(self):
        spec = AlgebraSpec((MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2)))
        doc = ser.algebra_to_doc(spec)
        assert doc == {
            "factors": [{"dim": 2, "weight": "1/2"}],
            "abelianTail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
        }
        assert ser.algebra_from_doc(doc) == spec

    def test_algebra_without_tail(self):
        spec = AlgebraSpec((MatrixFactor(3, F(1)),))
        doc = ser.algebra_to_doc(spec)
        assert doc["abelianTail"] is None
        assert ser.algebra_from_doc(doc) == spec

    @given(models())
    def test_model_roundtrip(self, model):
        doc = ser.model_to_doc(model)
        assert ser.model_from_doc(doc) == model
        # and the documents survive the JSON wire format
        assert ser.model_from_doc(json.loads(json.dumps(doc))) == model

    @given(radix_words)
    def test_word_roundtrip(self, word):
        assert ser.word_from_doc(ser.word_to_doc(word)) == word


class TestDocumentValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ParseError, match="unknown fields"):
            ser.model_from_doc({"prefix": [], "tail": {"kind": "zero"}, "extra": 1})

    def test_floats_rejected_with_hint(self):
        with pytest.raises(ParseError, match="float"):
            ser.model_from_doc({"prefix": [0.5], "tail": {"kind": "zero"}})

    def test_bools_rejected(self):
        with pytest.raises(ParseError):
            ser.model_from_doc({"prefix": [True], "tail": {"kind": "zero"}})

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValidationError):
            ser.model_from_doc({"prefix": ["1/0"], "tail": {"kind": "zero"}})

    def test_unknown_tail_kind(self):
        with pytest.raises(ParseError):
            ser.tail_from_doc({"kind": "spiral"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ParseError):
            ser.model_from_doc(["1/2"])
        with pytest.raises(ParseError):
            ser.tail_from_doc("zero")

    def test_word_entries_must_be_ints(self):
        with pytest.raises(ParseError):
            ser.word_from_doc({"pre": [], "period": ["2"]})

    # each document would read without error if the last of a repeated field won
    @pytest.mark.parametrize(
        "read, text, name",
        [
            (parse_spec, '{"prefix": ["1/2"], "tail": {"kind": "zero"}, "prefix": ["1/4"]}', "prefix"),
            (parse_spec, '{"tail": {"kind": "geometric", "first": "1/2", "ratio": "1/2", "first": "1/4"}}', "first"),
            (
                parse_algebra,
                '{"factors": [{"dim": 3, "weight": "1/3"}], "factors": [{"dim": 1, "weight": "1"}]}',
                "factors",
            ),
        ],
        ids=["model", "tail", "algebra"],
    )
    def test_a_repeated_field_is_a_parse_failure(self, read, text, name):
        with pytest.raises(ParseError) as info:
            read(text)
        assert (str(info.value), info.value.position) == (f"invalid JSON: repeated field {name!r}", None)


class TestOutputDocuments:
    def test_verdict_doc(self):
        doc = ser.verdict_to_doc(kakeya_check(make_model([F(3, 5), F(2, 5)])))
        assert doc == {"holds": False, "firstViolation": 1, "gap": ["2/5", "3/5"]}
        ok = ser.verdict_to_doc(kakeya_check(dyadic()))
        assert ok == {"holds": True, "firstViolation": None, "gap": None}

    def test_expansion_doc(self):
        doc = ser.expansion_to_doc(greedy_expand(dyadic(), F(1, 3), 4))
        assert doc == {
            "bits": [0, 1, 0, 1],
            "achieved": "5/16",
            "residual": "1/48",
            "residualBound": "1/16",
        }

    def test_approximation_doc(self):
        doc = ser.approximation_to_doc(achievable_outer(cantor_like(), 2))
        assert doc == {
            "depth": 2,
            "exact": False,
            "intervals": [
                ["0/1", "1/9"],
                ["2/9", "1/3"],
                ["2/3", "7/9"],
                ["8/9", "1/1"],
            ],
            "totalLength": "4/9",
        }

    def test_report_docs(self):
        doc = ser.report_to_doc(sequence_to_radix(dyadic()))
        assert doc == {
            "status": "extreme",
            "word": {"pre": [], "period": [2]},
            "witnessIndex": None,
            "depth": None,
        }
        broken = ser.report_to_doc(sequence_to_radix(make_model([F(1, 2), F(1, 2)])))
        assert broken == {
            "status": "non_extreme",
            "word": None,
            "witnessIndex": 2,
            "depth": None,
        }

    def test_convexity_doc(self):
        spec = AlgebraSpec((MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2)))
        doc = ser.convexity_to_doc(convexity_verdict(spec))
        assert doc == {
            "convex": True,
            "certificate": {"holds": True, "firstViolation": None, "gap": None},
        }


class TestSpecGrammar:
    def test_plain_list(self):
        assert parse_spec("1/2, 1/4") == make_model([F(1, 2), F(1, 4)])

    def test_whitespace_is_free(self):
        assert parse_spec("  1/2 ,1/4  ") == make_model([F(1, 2), F(1, 4)])

    def test_geometric_tail_call(self):
        model = parse_spec("1/2, geo(1/4, 1/2)")
        assert model == SequenceModel((F(1, 2),), GeometricTail(F(1, 4), F(1, 2)))

    def test_pure_tail(self):
        assert parse_spec("geo(1/2, 1/2)") == dyadic()

    def test_radix_tail_call(self):
        model = parse_spec("radix(1/2; 3 | 2)")
        assert model == SequenceModel((), MixedRadixTail(F(1, 2), RadixWord((3,), (2,))))

    def test_radix_word_without_bar_repeats(self):
        model = parse_spec("radix(1; 2 3)")
        assert model.tail == MixedRadixTail(F(1), RadixWord((), (2, 3)))

    def test_integer_terms(self):
        assert parse_spec("2, 1") == make_model([F(2), F(1)])

    def test_json_dispatch(self):
        text = '  {"prefix": [], "tail": {"kind": "geometric", "first": "1/2", "ratio": "1/2"}}'
        assert parse_spec(text) == dyadic()

    def test_bad_json_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_spec('{"prefix": [}')
        assert "invalid JSON" in str(info.value)
        assert info.value.position == 12

    @pytest.mark.parametrize(
        "text,position,fragment",
        [
            ("1/2,,", 4, "expected a rational number"),
            ("", 0, "expected a rational number"),
            ("geo(1/2", 7, "expected ','"),
            ("geo(1/2, 2, 3)", 10, "expected ')'"),
            ("radix(1: 2)", 7, "expected ';'"),
            ("radix(1; )", 9, "expected a radix word"),
            ("radix(1; 2|3|4)", 12, "only one '|'"),
            ("wedge(1/2)", 0, "unknown tail"),
            ("1/2, 1/4 geo(1/8, 1/2)", 9, "trailing"),
        ],
    )
    def test_error_positions(self, text, position, fragment):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert fragment in str(info.value)
        assert info.value.position == position

    def test_value_errors_are_not_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_spec("1/0")
        with pytest.raises(ValidationError):
            parse_spec("geo(1/2, 2)")
        with pytest.raises(ValidationError):
            parse_spec("1/4, 1/2")


class TestWordGrammar:
    def test_bar_splits_pre_and_period(self):
        assert parse_word("3 2 | 4") == RadixWord((3, 2), (4,))

    def test_no_bar_means_all_period(self):
        assert parse_word("2 3") == RadixWord((), (2, 3))

    def test_missing_period(self):
        with pytest.raises(ParseError, match="period"):
            parse_word("2|")

    @given(radix_words)
    def test_word_formats_reparse(self, word):
        text = " ".join(str(k) for k in word.pre) + " | " + " ".join(
            str(k) for k in word.period
        )
        assert parse_word(text) == word


class TestAlgebraGrammar:
    def test_json_form(self):
        text = json.dumps(
            {
                "factors": [{"dim": 2, "weight": "1/2"}],
                "abelianTail": {"kind": "geometric", "first": "1/4", "ratio": "1/2"},
            }
        )
        spec = parse_algebra(text)
        assert spec == AlgebraSpec(
            (MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2))
        )

    def test_requires_json_object(self):
        with pytest.raises(ParseError) as info:
            parse_algebra("geo(1/2, 1/2)")
        assert info.value.position == 0

    def test_weights_must_close(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            parse_algebra('{"factors": [{"dim": 2, "weight": "1/3"}]}')


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-text digit limit")
    return limit


class TestPinnedParseText:
    """The parse stage's answers and error text on fixed inputs, as the
    token-by-token reader gave them before each token was read once."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2,\t1/4", make_model([F(1, 2), F(1, 4)])),
            ("1/2\n,\n1/4", make_model([F(1, 2), F(1, 4)])),
            ("1/2,\xa01/4", make_model([F(1, 2), F(1, 4)])),
            ("1/2,　1/4", make_model([F(1, 2), F(1, 4)])),
            ("geo(\t1/2,\xa01/2　)", dyadic()),
            ("radix(1;\n3\xa0|　2)", SequenceModel((), MixedRadixTail(F(1), RadixWord((3,), (2,))))),
            ("١/٢", make_model([F(1, 2)])),
        ],
    )
    def test_unicode_whitespace_and_digits(self, text, expected):
        assert parse_spec(text) == expected

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("1/2　x", "unexpected trailing input", 4),
            ("1/2\t1/4", "unexpected trailing input", 4),
            ("\xa0", "expected a rational number", 1),
        ],
    )
    def test_positions_past_unicode_whitespace(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert (str(info.value), info.value.position) == (message, position)

    @pytest.mark.parametrize(
        "template,position",
        [("{n}/3", 0), ("1/{n}", 0), ("1/4, {n}/3", 5), ("1/4, 1/{n}", 5), ("geo(1/2, {n}/7)", 9)],
    )
    def test_a_5000_digit_number_is_refused_at_its_token(self, template, position):
        limit = _digit_limit()
        with pytest.raises(ParseError) as info:
            parse_spec(template.format(n="1" * 5000))
        assert str(info.value) == f"integer of 5000 digits is past the limit of {limit} digits"
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["1/0", "1/2, 1/0", "geo(1/0, 1/2)"])
    def test_a_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValidationError, match="^denominator must be nonzero$"):
            parse_spec(text)

    @pytest.mark.parametrize(
        "read,doc,message",
        [
            (ser.model_from_doc, {"extra": 1}, "sequence spec has unknown fields: extra"),
            (ser.model_from_doc, {"prefix": [], "b": 1, "a": 2}, "sequence spec has unknown fields: a, b"),
            (ser.tail_from_doc, {"kind": "zero", "x": 1}, "zero tail has unknown fields: x"),
            (ser.tail_from_doc, {"kind": "geometric", "first": "1/2"}, "geometric tail needs 'first' and 'ratio'"),
            (ser.tail_from_doc, {"kind": "geometric", "ratio": "1/2"}, "geometric tail needs 'first' and 'ratio'"),
            (
                ser.tail_from_doc,
                {"kind": "geometric", "first": "1/2", "ratio": "1/2", "scale": 1},
                "geometric tail has unknown fields: scale",
            ),
            (ser.tail_from_doc, {"kind": "radix", "pre": [2]}, "radix tail needs 'scale'"),
            # the missing scale is named before the word is read
            (ser.tail_from_doc, {"kind": "radix", "pre": [1], "period": [2]}, "radix tail needs 'scale'"),
            (ser.tail_from_doc, {"kind": "radix", "scale": "1", "first": 1}, "radix tail has unknown fields: first"),
            (ser.word_from_doc, {"pre": [], "x": 1}, "radix word has unknown fields: x"),
            (ser.algebra_from_doc, {"factors": [], "y": 1}, "algebra spec has unknown fields: y"),
            (ser.algebra_from_doc, {"factors": [{"dim": 2}]}, "factors[0] needs 'dim' and 'weight'"),
            (ser.algebra_from_doc, {"factors": [{"weight": "1"}]}, "factors[0] needs 'dim' and 'weight'"),
            (
                ser.algebra_from_doc,
                {"factors": [{"dim": 1, "weight": "1/2"}, {"dim": 2, "weight": "1/2", "z": 0}]},
                "factors[1] has unknown fields: z",
            ),
            (ser.algebra_from_doc, {"factors": [{"dim": 1, "weight": "1/2"}, {}]}, "factors[1] needs 'dim' and 'weight'"),
        ],
    )
    def test_document_field_messages(self, read, doc, message):
        with pytest.raises(ParseError) as info:
            read(doc)
        assert (str(info.value), info.value.position) == (message, None)
