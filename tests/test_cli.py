"""Command-line behaviour: exit codes, output bodies, error envelopes."""

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from support import HUGE_ENDPOINTS, cantor_like, random_complete_model, random_fraction

from tracerange import GeometricTail, SequenceModel, achievable_outer, cli, errors, svg
from tracerange.cli import main, run_command
from tracerange.dsl import parse_spec

F = Fraction

DYADIC = "geo(1/2, 1/2)"
CANTOR = "geo(2/3, 1/3)"


def body_json(argv):
    result = run_command(argv)
    return result.exit_code, json.loads(result.body)


class TestExitCodes:
    def test_success(self):
        code, doc = body_json(["check", DYADIC])
        assert code == 0
        assert doc == {"holds": True, "firstViolation": None, "gap": None}

    def test_validation_failure(self):
        code, doc = body_json(["check", "0"])
        assert code == 1
        assert doc["error"]["kind"] == "validation"
        assert doc["error"]["position"] is None

    def test_domain_failure(self):
        code, doc = body_json(["expand", DYADIC, "2"])
        assert code == 1
        assert doc["error"]["kind"] == "domain"
        assert "outside [0, 1]" in doc["error"]["message"]

    def test_resource_failure(self):
        code, doc = body_json(["range", CANTOR, "--depth", "24"])
        assert code == 2
        assert doc["error"]["kind"] == "resource"

    def test_depth_past_the_bound_is_refused_before_any_term_is_built(self):
        code, doc = body_json(["range", CANTOR, "--depth", "60000"])
        assert code == 2
        assert doc["error"]["kind"] == "resource"
        assert doc["error"]["message"] == "the cover fold reaches 2^60000 pieces, past the bound of 65536"
        # a complete model's cover is one piece at any depth
        code, doc = body_json(["range", "geo(2/3,2/3)", "--depth", "60000"])
        assert code == 0
        assert doc["intervals"] == [["0/1", "2/1"]]

    def test_huge_rational_output_is_a_resource_failure(self):
        # the gaps hold denominators past the int-to-text digit limit
        spec = f"geo(1/2, 1/{10**1000})"
        code, doc = body_json(["gaps", spec, "--depth", "6"])
        assert code == 2
        assert doc["error"]["kind"] == "resource"
        assert "too large to write" in doc["error"]["message"]

    def test_parse_failure_with_position(self):
        code, doc = body_json(["check", "1/2,,"])
        assert code == 3
        assert doc["error"] == {
            "kind": "parse",
            "message": "expected a rational number",
            "position": 4,
        }

    def test_rational_past_the_digit_limit_is_a_parse_failure(self):
        # the ratio token has 5002 digits, past the int-from-text limit
        result = run_command(["check", "geo(1/2, 1/1" + "0" * 5000 + ")"])
        doc = json.loads(result.body)
        assert result.exit_code == 3
        assert doc["error"]["kind"] == "parse"
        assert doc["error"]["position"] == 9
        # the message names the digit count instead of echoing the token
        assert doc["error"]["message"] == "integer of 5001 digits is past the limit of 4300 digits"
        assert len(result.body) < 200
        as_json = json.dumps({"tail": {"kind": "geometric", "first": "1/2", "ratio": "1/1" + "0" * 5000}})
        result = run_command(["check", as_json])
        assert result.exit_code == 3
        assert json.loads(result.body)["error"]["message"] == doc["error"]["message"]
        assert len(result.body) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["extreme", "encode", "2 1" + "0" * 5000],
            ["extreme", "decode", '{"tail": {"kind": "radix", "scale": "1", "period": [1' + "0" * 5000 + "]}}"],
            ["check", '{"prefix": [1' + "0" * 5000 + "]}"],
            ["range", DYADIC, "--depth", "1" + "0" * 5000],
            ["range", DYADIC, "--depth", "3, -1" + "0" * 5000, "--format", "svg"],
        ],
    )
    def test_integer_past_the_digit_limit_is_a_parse_failure(self, argv):
        result = run_command(argv)
        assert result.exit_code == 3
        assert json.loads(result.body)["error"]["message"] == (
            "integer of 5001 digits is past the limit of 4300 digits"
        )

    @pytest.mark.parametrize(
        "argv, bits",
        [
            # the same message as --depth 8: the scan stops at the first gap
            # too large to write instead of stepping a million of them
            (["gaps", f"geo(1/2, 1/{10**1000})", "--depth", "1000000"], 16611),
            (["gaps", f"geo(1/2, 1/{10**1000})", "--depth", "8"], 16611),
            (["extreme", "encode", "2", "--terms", "20000"], 14286),
            # a count past ``sys.maxsize`` stops at the same term
            (["extreme", "encode", "2", "--terms", str(2**63)], 14286),
        ],
    )
    def test_output_too_large_is_refused_at_its_first_rational(self, argv, bits):
        code, doc = body_json(argv)
        assert code == 2
        assert doc["error"] == {
            "kind": "resource",
            "message": f"output rational too large to write: {bits} bits",
            "position": None,
        }

    def test_long_expansion_is_refused_at_its_first_rational(self):
        # the expansion itself is cheap; its achieved sum is too large to write
        code, doc = body_json(["expand", DYADIC, "1/3", "--bits", "200000"])
        assert code == 2
        assert doc["error"] == {
            "kind": "resource",
            "message": "output rational too large to write: 200001 bits",
            "position": None,
        }

    def test_unknown_command(self):
        code, doc = body_json(["nope"])
        assert code == 3
        assert doc["error"]["kind"] == "parse"

    def test_missing_spec(self):
        code, doc = body_json(["check"])
        assert code == 3
        assert "missing spec" in doc["error"]["message"]


class TestCheckAndExpand:
    def test_check_reports_gap(self):
        code, doc = body_json(["check", CANTOR])
        assert code == 0
        assert doc == {"holds": False, "firstViolation": 1, "gap": ["1/3", "2/3"]}

    def test_expand_body(self):
        code, doc = body_json(["expand", DYADIC, "1/3", "--bits", "4"])
        assert code == 0
        assert doc == {
            "bits": [0, 1, 0, 1],
            "achieved": "5/16",
            "residual": "1/48",
            "residualBound": "1/16",
        }

    def test_gaps_listing(self):
        code, doc = body_json(["gaps", "3/5, 2/5", "--depth", "4"])
        assert code == 0
        assert doc == {
            "depth": 4,
            "violations": [
                {"index": 1, "gap": ["2/5", "3/5"]},
                {"index": 2, "gap": ["0/1", "2/5"]},
            ],
        }


class TestRangeFormats:
    def test_json_single_depth(self):
        code, doc = body_json(["range", CANTOR, "--depth", "2"])
        assert code == 0
        assert doc["depth"] == 2
        assert doc["exact"] is False
        assert doc["intervals"][0] == ["0/1", "1/9"]

    def test_csv(self):
        result = run_command(["range", CANTOR, "--depth", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert result.body.splitlines() == [
            "lo,hi",
            "0/1,1/9",
            "2/9,1/3",
            "2/3,7/9",
            "8/9,1/1",
        ]

    def test_svg_accepts_many_depths(self):
        result = run_command(["range", CANTOR, "--depth", "1,2,3", "--format", "svg"])
        assert result.exit_code == 0
        assert result.body.startswith("<svg ")
        assert result.body.rstrip().endswith("</svg>")
        for n in (1, 2, 3):
            assert f"depth {n} (outer)" in result.body

    def test_json_rejects_multiple_depths(self):
        code, doc = body_json(["range", CANTOR, "--depth", "2,4"])
        assert code == 3
        assert "single depth" in doc["error"]["message"]

    def test_bad_depth_string(self):
        code, doc = body_json(["range", CANTOR, "--depth", "2,x"])
        assert code == 3

    @pytest.mark.parametrize("depth", ["²", "3,²"])
    def test_digit_that_int_cannot_read_is_a_parse_failure(self, depth):
        # "²" is a digit to ``str.isdigit`` but ``int`` does not read it
        code, doc = body_json(["range", DYADIC, "--depth", depth])
        assert code == 3
        assert doc["error"] == {
            "kind": "parse",
            "message": f"--depth must be integers separated by commas, got {depth!r}",
            "position": None,
        }

    def test_decimal_digits_of_any_script_are_read(self):
        assert run_command(["range", DYADIC, "--depth", "٣"]) == run_command(["range", DYADIC, "--depth", "3"])


class TestAlgebraCommand:
    def test_convexity_body_includes_model(self):
        code, doc = body_json(["vna", '{"factors": [{"dim": 3, "weight": "1/1"}]}'])
        assert code == 0
        assert doc["convex"] is False
        assert doc["certificate"]["firstViolation"] == 3
        assert doc["model"]["prefix"] == ["1/3", "1/3", "1/3"]

    def test_too_many_atoms_is_a_resource_failure(self):
        code, doc = body_json(["vna", '{"factors": [{"dim": 30000000, "weight": "1/1"}]}'])
        assert code == 2
        assert doc["error"] == {
            "kind": "resource",
            "message": "the merged prefix reaches 30000000 atoms, past the bound of 100000",
            "position": None,
        }

    def test_rejects_sequence_dsl(self):
        code, doc = body_json(["vna", DYADIC])
        assert code == 3
        assert doc["error"]["position"] == 0


class TestExtremeCommand:
    def test_decode(self):
        code, doc = body_json(["extreme", "decode", "1/2, 1/2"])
        assert code == 0
        assert doc == {
            "status": "non_extreme",
            "witnessIndex": 2,
            "word": None,
            "depth": None,
        }

    def test_decode_depth_flag(self):
        # the decoder always decides, so there is no peel budget to set
        spec = ", ".join(f"1/{2**i}" for i in range(1, 11))
        code, doc = body_json(["extreme", "decode", spec, "--depth", "8"])
        assert code == 3
        assert doc["error"]["kind"] == "parse"
        code, doc = body_json(["extreme", "decode", spec])
        assert code == 0
        assert doc == {"status": "non_extreme", "witnessIndex": 11, "word": None, "depth": None}

    def test_decode_long_dyadic_prefix_with_its_tail(self):
        spec = ", ".join(f"1/{2**i}" for i in range(1, 71)) + f", geo(1/{2**71}, 1/2)"
        code, doc = body_json(["extreme", "decode", spec])
        assert code == 0
        assert doc == {
            "status": "extreme",
            "witnessIndex": None,
            "word": {"pre": [], "period": [2]},
            "depth": None,
        }

    def test_encode(self):
        code, doc = body_json(["extreme", "encode", "3 | 2", "--terms", "5"])
        assert code == 0
        assert doc["terms"] == ["1/3", "1/3", "1/6", "1/12", "1/24"]
        assert doc["model"]["tail"]["pre"] == [3]

    def test_encode_finite_word(self):
        code, doc = body_json(["extreme", "encode", "2 3 |"])
        assert code == 3 or code == 1

    def test_encode_rejects_empty_word(self):
        result = run_command(["extreme", "encode", ""])
        assert result.exit_code in (1, 3)


class TestDigitsCommand:
    def test_repeating_third(self):
        code, doc = body_json(["digits", "3", "1/2", "--count", "4"])
        assert code == 0
        assert doc == {
            "digits": [1, 1, 1, 1],
            "target": "1/2",
            "word": {"pre": [], "period": [3]},
        }

    def test_target_validation(self):
        code, doc = body_json(["digits", "3", "5/4"])
        assert code == 1
        assert doc["error"]["kind"] == "domain"

    def test_long_digit_string(self):
        # the digit loop stays on integers as short as the target's
        # denominator, so the cost is linear in the count
        code, doc = body_json(["digits", "2", "1/3", "--count", "100000"])
        assert code == 0
        assert len(doc["digits"]) == 100000

    def test_count_past_the_bound_is_a_resource_failure(self):
        code, doc = body_json(["digits", "2", "1/3", "--count", "200000000"])
        assert code == 2
        assert doc["error"] == {
            "kind": "resource",
            "message": "200000000 digits exceed the bound of 100000",
            "position": None,
        }


class TestSpecFiles:
    def test_file_input(self, tmp_path):
        spec = tmp_path / "model.txt"
        spec.write_text(DYADIC + "\n")
        code, doc = body_json(["check", "--file", str(spec)])
        assert code == 0
        assert doc["holds"] is True

    def test_file_and_inline_conflict(self, tmp_path):
        spec = tmp_path / "model.txt"
        spec.write_text(DYADIC)
        code, doc = body_json(["check", DYADIC, "--file", str(spec)])
        assert code == 3
        assert "not both" in doc["error"]["message"]

    def test_unreadable_file(self, tmp_path):
        code, doc = body_json(["check", "--file", str(tmp_path)])
        assert code == 2
        assert doc["error"]["kind"] == "resource"

    def test_missing_file(self, tmp_path):
        code, doc = body_json(["check", "--file", str(tmp_path / "absent.txt")])
        assert code == 2


class TestHarness:
    def test_help(self):
        result = run_command(["--help"])
        assert result.exit_code == 0
        assert result.body.startswith("usage: tracerange")

    def test_subcommand_help(self):
        result = run_command(["range", "--help"])
        assert result.exit_code == 0
        assert "--format" in result.body

    def test_version(self):
        result = run_command(["--version"])
        assert result.exit_code == 0
        assert result.body == "tracerange 0.1.0"

    def test_byte_determinism(self):
        for argv in (
            ["check", CANTOR],
            ["range", CANTOR, "--depth", "3"],
            ["extreme", "decode", DYADIC],
        ):
            assert run_command(argv).body == run_command(argv).body

    def test_main_prints_body(self, capsys):
        assert main(["check", DYADIC]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["holds"] is True

    def test_main_error_path(self, capsys):
        assert main(["check", "1/2,,"]) == 3
        assert "expected a rational number" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[1], ["check", 1]])
    def test_entry_that_is_not_a_str_is_a_parse_failure(self, argv):
        code, doc = body_json(argv)
        assert code == 3
        assert doc == {"error": {"kind": "parse", "message": "command line entries must be str, got int", "position": None}}

    def test_internal_fault_names_its_type(self, monkeypatch):
        def exhausted(model):
            raise MemoryError()

        monkeypatch.setattr(cli, "kakeya_check", exhausted)
        code, doc = body_json(["check", DYADIC])
        assert code == 1
        assert doc == {"error": {"kind": "internal", "message": "", "position": None, "type": "MemoryError"}}


def _leaves(parser, name=None):
    """The name of each leaf parser under ``parser``: a command, or a mode of ``extreme``."""
    if parser.commands is None:
        return [name]
    return [leaf for key, child in parser.commands.choices.items() for leaf in _leaves(child, key)]


class TestTables:
    """The command table against the parsers, and the error table against the
    documented exit codes and kinds."""

    def test_each_leaf_parser_has_one_command(self):
        leaves = _leaves(cli._parser())
        assert len(leaves) == len(set(leaves)) == 8
        assert set(leaves) == set(cli._COMMANDS)

    # the documented (exit_code, kind) of every error class, subclasses included
    ERRORS = [
        (errors.TraceRangeError, 1, "internal"),
        (errors.ValidationError, 1, "validation"),
        (errors.UnsupportedSpecError, 1, "validation"),
        (errors.DomainError, 1, "domain"),
        (errors.OutOfSupportError, 1, "domain"),
        (errors.ResourceLimitError, 2, "resource"),
        (errors.ParseError, 3, "parse"),
    ]

    def test_each_error_class_carries_its_exit_code_and_kind(self):
        defined = {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)}
        assert defined == {error for error, _, _ in self.ERRORS}
        for error, exit_code, kind in self.ERRORS:
            assert (error.exit_code, error.kind) == (exit_code, kind), error

    @pytest.mark.parametrize(
        "error",
        [errors.TraceRangeError("bare"), errors.OutOfSupportError(3, 2), errors.UnsupportedSpecError("unsupported")],
    )
    def test_an_engine_error_ends_in_its_envelope(self, monkeypatch, error):
        def failing(model):
            raise error

        monkeypatch.setattr(cli, "kakeya_check", failing)
        code, doc = body_json(["check", DYADIC])
        assert code == error.exit_code
        expected = {"kind": error.kind, "message": str(error), "position": None}
        if error.kind == "internal":  # as for any exception the package does not raise itself
            expected["type"] = type(error).__name__
        assert doc == {"error": expected}


class TestByteAnchor:
    """Output bytes of the cover path and the condition checks on fixed
    corpora.

    Dyadic, radix, Cantor-like, colliding finite and prefix-plus-tail
    models, each through ``range`` in json at two depths, csv and svg, and
    through ``gaps``. The digest was computed on the code before interval
    unions moved onto an integer grid, so it pins that change (and any
    later one) to byte-identical output.
    """

    MODELS = (
        "geo(1/2, 1/2)",
        "geo(3/8, 1/2)",
        "radix(1; 3 | 2)",
        "radix(2/3; 2 3)",
        "geo(2/3, 1/3)",
        "geo(1/5, 2/5)",
        "1/2, 1/3, 1/3, 1/4, 1/6, 1/6, 1/12",
        "1, 1/2, geo(1/4, 1/3)",
        "3/2, radix(1/2; 3)",
    )
    DIGEST = "52eb3bb846b66200364453b53dc0c5f5fcb42f0f93ca6c073f124ac8305957f5"
    CHECK_MODELS = MODELS + (
        "geo(3/5, 2/3)",
        "1/2, 1/2, geo(1/8, 1/2)",
        "1, 1/3, radix(1/2; 2)",
        "5/7, 1/7, 1/7",
        "radix(5; 7 | 3 2)",
    )
    ALGEBRAS = (
        '{"factors": [], "abelianTail": {"kind": "geometric", "first": "1/2", "ratio": "1/2"}}',
        '{"factors": [], "abelianTail": {"kind": "radix", "scale": "1", "pre": [3], "period": [2]}}',
        '{"factors": [], "abelianTail": {"kind": "geometric", "first": "2/3", "ratio": "1/3"}}',
        '{"factors": [{"dim": 3, "weight": "1/1"}]}',
        '{"factors": [{"dim": 2, "weight": "1/2"}, {"dim": 3, "weight": "1/2"}]}',
        '{"factors": [{"dim": 2, "weight": "1/2"}], "abelianTail": '
        '{"kind": "geometric", "first": "1/4", "ratio": "1/2"}}',
        '{"factors": [{"dim": 1, "weight": "1/10"}], "abelianTail": '
        '{"kind": "geometric", "first": "3/5", "ratio": "1/3"}}',
        '{"factors": [{"dim": 4, "weight": "1/3"}], "abelianTail": '
        '{"kind": "radix", "scale": "2/3", "pre": [], "period": [3, 2]}}',
        '{"factors": [{"dim": 1, "weight": "1/100"}], "abelianTail": '
        '{"kind": "radix", "scale": "99/100", "pre": [2], "period": [5]}}',
    )
    CHECK_DIGEST = "61d2e068367b1b8b5a981dbfc880fac14e1abce5260893208793568ee77d782d"

    def test_corpus_stdout_digest(self, capsys):
        digest = hashlib.sha256()
        for spec in self.MODELS:
            for argv in (
                ["range", spec, "--depth", "3"],
                ["range", spec, "--depth", "7"],
                ["range", spec, "--depth", "5", "--format", "csv"],
                ["range", spec, "--depth", "1,4,6", "--format", "svg"],
                ["gaps", spec, "--depth", "12"],
            ):
                assert main(argv) == 0, argv
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.DIGEST

    def test_check_and_vna_corpus_digest(self, capsys):
        """``check`` over the cover corpus and a few more models, and
        ``vna`` over factor specs with dyadic, radix and Cantor-like
        tails, with none, and with factors that re-anchor the tail; the
        digest was computed before the condition checks moved onto one
        engine."""
        digest = hashlib.sha256()
        requests = [["check", spec] for spec in self.CHECK_MODELS]
        requests += [["vna", algebra] for algebra in self.ALGEBRAS]
        for argv in requests:
            assert main(argv) == 0, argv
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.CHECK_DIGEST


# the valid requests of acceptance criterion 10, one or more per command
ACCEPTANCE_ARGV = [
    ["check", "geo(1/2, 1/2)"],
    ["check", "geo(2/3, 1/3)"],
    ["check", "1/2, 1/4, radix(1/4; 2)"],
    ["expand", "geo(1/2, 1/2)", "1/3", "--bits", "6"],
    ["range", "geo(2/3, 1/3)", "--depth", "3"],
    ["range", "geo(2/3, 1/3)", "--depth", "2", "--format", "csv"],
    ["range", "geo(2/3, 1/3)", "--depth", "1,2,3", "--format", "svg"],
    ["gaps", "3/5, 2/5", "--depth", "4"],
    ["vna", '{"factors": [{"dim": 3, "weight": "1/1"}]}'],
    ["extreme", "decode", "1/2, 1/4, geo(1/8, 1/2)"],
    ["extreme", "encode", "3 | 2", "--terms", "6"],
    ["digits", "2 | 3", "5/6", "--count", "3"],
]
ANCHOR_ARGV = [
    argv
    for spec in TestByteAnchor.MODELS
    for argv in (
        ["range", spec, "--depth", "3"],
        ["range", spec, "--depth", "7"],
        ["range", spec, "--depth", "5", "--format", "csv"],
        ["range", spec, "--depth", "1,4,6", "--format", "svg"],
        ["gaps", spec, "--depth", "12"],
    )
]
ANCHOR_ARGV += [["check", spec] for spec in TestByteAnchor.CHECK_MODELS]
ANCHOR_ARGV += [["vna", algebra] for algebra in TestByteAnchor.ALGEBRAS]
# help, version and malformed argv at both levels, and failures of every kind
EDGE_ARGV = [
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["check", "--help"],
    ["range", "-h"],
    ["extreme", "--help"],
    ["extreme", "encode", "-h"],
    ["check", "--version"],
    ["bogus"],
    ["extreme"],
    ["extreme", "bogus"],
    ["--file", "x", "check"],
    ["range", CANTOR, "--depth=3"],
    ["range", CANTOR, "--dep", "3"],
    ["range", CANTOR, "--format", "xml"],
    ["range", CANTOR, "--depth", "24"],
    ["gaps", CANTOR, "--depth", "x"],
    ["check", "--", DYADIC],
    ["check", "-1/2"],
    ["check", DYADIC, "extra"],
    ["check", "1/2,,"],
    ["check", "0"],
    ["expand", DYADIC],
    ["expand", DYADIC, "2"],
    ["extreme", "encode", "2", "extra"],
    ["digits", "2"],
]
FRONT_END_ARGV = EDGE_ARGV + ACCEPTANCE_ARGV + ANCHOR_ARGV


class TestFrontEnd:
    """The direct dispatch and the shared encoder, each against the route it
    replaces: the top-level parser and ``json.dumps``."""

    def test_direct_dispatch_answers_as_the_top_level_parser(self, monkeypatch):
        direct = [run_command(argv) for argv in FRONT_END_ARGV]
        monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
        for argv, result in zip(FRONT_END_ARGV, direct):
            routed = run_command(argv)
            assert (result.exit_code, result.body) == (routed.exit_code, routed.body), argv
        assert {result.exit_code for result in direct} == {0, 1, 2, 3}

    def test_one_encoder_writes_what_json_dumps_writes(self, monkeypatch):
        docs = []
        dump = cli._dump

        def recorded(doc):
            docs.append(doc)
            return dump(doc)

        monkeypatch.setattr(cli, "_dump", recorded)
        commands = set()
        for argv in FRONT_END_ARGV:
            seen = len(docs)
            run_command(argv)
            if len(docs) > seen:
                commands.add(" ".join(argv[:2] if argv[:1] == ["extreme"] else argv[:1]))
        every = {"check", "expand", "range", "gaps", "vna", "extreme encode", "extreme decode", "digits"}
        assert every <= commands
        for doc in docs:
            expected = json.dumps(doc, indent=2, sort_keys=True)
            # the writer is called by name, so it is checked on an interpreter
            # whose ``_dump`` is ``json``'s own encoder as well
            assert dump(doc) == cli._write_json(doc) == expected


def _parsed(argv):
    """``cli._parse(argv)`` as a comparable value: the namespace's fields, or
    the exception's type and message (for an exit, its code and printed text)."""
    try:
        return vars(cli._parse(argv))
    except SystemExit as stop:
        return SystemExit, stop.code, stop.printed
    except Exception as exc:
        return type(exc), str(exc)


def _bench_like_argv(rng):
    """One request of a shape the ``cli`` benchmark sends."""
    spec = rng.choice(TestByteAnchor.CHECK_MODELS)
    word = rng.choice(("2", "3 | 2", "2 3", "5 | 3 2"))
    target = str(random_fraction(rng, F(0), F(1)))
    depth = str(rng.choice((2, 4, 6, 8)))
    return rng.choice([
        ["check", spec],
        ["expand", spec, target],
        ["range", spec],
        ["range", spec, "--depth", depth],
        ["range", spec, "--format", "csv"],
        ["range", spec, "--depth", "1,3", "--format", "svg"],
        ["gaps", spec],
        ["gaps", spec, "--depth", depth],
        ["vna", rng.choice(TestByteAnchor.ALGEBRAS)],
        ["extreme", "encode", word, "--terms", depth],
        ["extreme", "decode", spec],
        ["digits", word, target, "--count", depth],
    ])


# each leaf's command words, positional count and options
LEAVES = [
    (["check"], 1, ["--file"]),
    (["expand"], 2, ["--file", "--bits"]),
    (["range"], 1, ["--file", "--depth", "--format"]),
    (["gaps"], 1, ["--file", "--depth"]),
    (["vna"], 1, ["--file"]),
    (["extreme", "encode"], 1, ["--terms"]),
    (["extreme", "decode"], 1, ["--file"]),
    (["digits"], 2, ["--count"]),
]
# values argparse reads in ways of its own: negative-looking, empty, padded,
# signed, non-ASCII digits, underscores, option-like
HOSTILE = ["-1", "-1/2", "--", "-", "", " 3", "+3", "٣", "3_0", "x", "--dep", "--depth=3", "-h"]
PLAIN = ["3", "12", DYADIC, "3 | 2", "1/3", "1,4", "json", "csv", "svg", "xml", '{"factors": []}']
OPTIONS = ["--file", "--bits", "--depth", "--format", "--terms", "--count", "--dep", "--depth=3", "-h", "--", "--bogus", "-1"]


def _pick(rng, usual, other):
    return rng.choice(other if rng.random() < 0.15 else usual)


def _near_plain_argv(rng):
    """A leaf (now and then none) with about its count of positionals and up
    to three option pairs, mostly its own options and plain values, now and
    then any option or a hostile value, and now and then an option pair
    moved before the positionals."""
    path, count, options = rng.choice(LEAVES + [([], 0, []), (["extreme"], 0, []), (["bogus"], 0, [])])
    count = max(0, count + rng.choice((0, 0, 0, -1, 1)))
    words = [_pick(rng, PLAIN, HOSTILE) for _ in range(count)]
    pairs = [[_pick(rng, options or OPTIONS, OPTIONS), _pick(rng, PLAIN, HOSTILE)] for _ in range(rng.randrange(4))]
    if pairs and rng.random() < 0.15:
        words = pairs.pop() + words
    return path + words + [word for pair in pairs for word in pair]


class TestPlainReader:
    """``_Parser.read_plain`` against the route it stands in for: the leaf
    parser's ``parse_args`` after the subcommand step."""

    def assert_as_argparse(self, monkeypatch, corpus):
        """Each argv gives the same namespace, or the same exception and
        message, by both routes; returns how many the reader read."""
        reads = []
        read_plain = cli._Parser.read_plain

        def counted(parser, argv, namespace):
            reads.append(read_plain(parser, argv, namespace))
            return reads[-1]

        monkeypatch.setattr(cli._Parser, "read_plain", counted)
        fast = [_parsed(argv) for argv in corpus]
        monkeypatch.setattr(cli._Parser, "read_plain", lambda parser, argv, namespace: False)
        for argv, outcome in zip(corpus, fast):
            assert outcome == _parsed(argv), argv
        return reads.count(True)

    def test_front_end_argv(self, monkeypatch):
        assert self.assert_as_argparse(monkeypatch, FRONT_END_ARGV) == len(ACCEPTANCE_ARGV + ANCHOR_ARGV) + 4

    def test_bench_like_argv(self, monkeypatch):
        rng = Random(23)
        corpus = [_bench_like_argv(rng) for _ in range(600)]
        assert self.assert_as_argparse(monkeypatch, corpus) == len(corpus)

    def test_seeded_near_plain_argv(self, monkeypatch):
        rng = Random(2023)
        corpus = [_near_plain_argv(rng) for _ in range(4000)]
        read = self.assert_as_argparse(monkeypatch, corpus)
        assert 400 < read < 3000  # both routes are taken often

    def test_plain_argv_of_every_command_never_reaches_argparse(self, monkeypatch):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            calls.append(args)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for argv in ACCEPTANCE_ARGV:
            assert run_command(argv).exit_code == 0, argv
        assert {" ".join(argv[:2] if argv[0] == "extreme" else argv[:1]) for argv in ACCEPTANCE_ARGV} == {
            "check", "expand", "range", "gaps", "vna", "extreme encode", "extreme decode", "digits",
        }
        assert calls == []
        # the spy sees what the reader leaves to argparse
        assert run_command(["range", CANTOR, "--depth=3"]).exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "add, argv",
        [
            (lambda parser: parser.add_argument("items", nargs="+"), ["a", "b"]),
            (lambda parser: parser.add_argument("--need", required=True), []),
            (lambda parser: parser.add_argument("--n", type=int, default="3"), []),
            (lambda parser: setattr(parser, "commands", parser.add_subparsers(dest="mode")), []),
        ],
    )
    def test_a_grammar_the_reader_cannot_stand_in_for_takes_argparse(self, add, argv):
        parser = cli._Parser(prog="leaf")
        add(parser)
        namespace = argparse.Namespace()
        assert not parser.read_plain(argv, namespace)
        assert vars(namespace) == {}


# strings that ``json`` escapes: quotes, backslashes, controls, non-ASCII
# and astral characters (written as surrogate pairs)
_JSON_TEXT = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7fé€\u2028\U0001f600') | st.characters(), max_size=12)
_JSON_LEAVES = (
    _JSON_TEXT
    | st.integers(min_value=-(10**4000), max_value=10**4000)
    | st.sampled_from([0, -1, 10**3999, -(10**3999), True, False, None])
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_JSON_TEXT, inner, max_size=5),
    max_leaves=30,
)


class TestWriter:
    """``cli._write_json`` against ``json.dumps(doc, indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    @example({"a": [], "b": {}, "": [[[]], {}]})
    @example([{}, "", 0, None])
    @example(None)
    def test_writes_what_json_dumps_writes(self, doc):
        assert cli._write_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (0.5, "Object of type float is not JSON serializable"),
            ({"a": [1, (2, 3)]}, "Object of type tuple is not JSON serializable"),
            ([{1: "a"}], "keys must be str, not int"),
            ({None: 2}, "keys must be str, not NoneType"),
        ],
    )
    def test_anything_else_is_a_type_error(self, doc, message):
        with pytest.raises(TypeError) as error:
            cli._write_json(doc)
        assert str(error.value) == message

    def test_an_int_past_the_digit_limit_raises_what_json_raises(self):
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("this interpreter has no int-to-text digit limit")
        doc = {"a": [10**5000]}
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(ValueError) as error:
            cli._write_json(doc)
        assert str(error.value) == str(expected.value)

    def test_dump_is_the_writer_before_3_13(self):
        assert (cli._dump is cli._write_json) == (sys.version_info < (3, 13))



def _acceptance_covers():
    """The covers of acceptance criteria 3 to 5, and the byte-anchor covers."""
    rng = Random(20260818)
    for ratio in (F(1, 3), F(1, 4), F(2, 5), F(5, 11)):
        first = random_fraction(rng, F(1, 8), F(2, 3))
        yield achievable_outer(SequenceModel((), GeometricTail(first, ratio)), 8)
    for _ in range(20):
        model = random_complete_model(rng)
        yield from (achievable_outer(model, depth) for depth in (4, 8, 12))
    yield from (achievable_outer(cantor_like(), depth) for depth in range(1, 11))
    for spec in TestByteAnchor.MODELS:
        yield from (achievable_outer(parse_spec(spec), depth) for depth in (1, 4, 6, 7))


class TestSvgGrid:
    def test_grid_x_is_the_fraction_x(self):
        approxes = list(_acceptance_covers()) + [achievable_outer(parse_spec(HUGE_ENDPOINTS), 6)]
        spans = set()
        for approx in approxes:
            union = approx.union
            span = max([F(1)] + [part.hi for part in union])
            spans.add(span)
            expected = [svg._MARGIN_X + float(F(end, union._den) / span) * svg._USABLE for end in union._ends]
            assert svg._grid_xs(union, span) == expected
        assert len(spans) > 10
