"""Hostile inputs end in a typed exit, not a crash, under a memory cap.

Each input runs ``python -m tracerange`` in a child process whose address
space (about 512 MB, or 1.5 GB for the one cover whose fold alone needs
more) and CPU time (about 10 s) are capped with ``resource.setrlimit``; the
limits act on the child only. An input that ran without a bound would end
by a signal (SIGXCPU, or SIGKILL past the CPU hard limit) or as an
``"internal"`` envelope around a ``MemoryError`` instead of an answer or a
typed refusal. No wall-clock time is asserted.

The ``repr`` of a record holding a rational past the int-to-text digit
limit is checked in process: it is refused by the rule the JSON writer
follows, with the same ``ResourceLimitError``. So is JSON nested past the
recursion limit, for each command that reads a JSON document, since a
command line holding it whole is longer than the kernel passes to a child.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from support import HUGE_ENDPOINTS

from tracerange import GeometricTail, RadixWord, ResourceLimitError, SequenceModel, format_rational, kakeya_check
from tracerange.cli import run_command
from tracerange.core import QUOTE_WINDOW

resource = pytest.importorskip("resource")  # POSIX only

SRC = str(Path(__file__).resolve().parent.parent / "src")
MEMORY_BYTES = 512 * 2**20
CPU_SECONDS = 10

_BIG = 10**4000
SVG_SPAN = ["range", f"geo({_BIG - 1}, {_BIG - 1}/{_BIG})", "--depth", "2", "--format", "svg"]
VNA_SLOW_TAIL = json.dumps({
    "factors": [{"dim": 1, "weight": "1/1000000000"}],
    "abelianTail": {"kind": "geometric", "first": "999999999/10000000000000", "ratio": "9999/10000"},
})
# a ratio just under 1/2 with 150-digit terms, the total 1: about 20 tail
# terms reach the lone atom, far from the room of 100,000 atoms left
_WIDE = Fraction(10**149, 2 * 10**149 + 1)
_WIDE_FIRST = Fraction(999999, 10**6) * (1 - _WIDE)
VNA_WIDE_RATIO = json.dumps({
    "factors": [{"dim": 1, "weight": "1/1000000"}],
    "abelianTail": {"kind": "geometric", "first": format_rational(_WIDE_FIRST), "ratio": format_rational(_WIDE)},
})

HOSTILE = {
    # 2^24 pieces: refused before any term is built
    "cantor-depth-24": ["range", "geo(2/3,1/3)", "--depth", "24"],
    # 2^20 points from the prefix alone: refused inside the fold
    "finite-powers-of-a-third": ["range", ",".join(f"1/{3**k}" for k in range(1, 21)), "--depth", "20"],
    "digits-count-2e8": ["digits", "2", "1/3", "--count", "200000000"],
    # one piece at any depth
    "dyadic-depth-2000": ["range", "geo(1/2,1/2)", "--depth", "2000"],
    # 3*10^7 atoms: refused before any atom is built
    "vna-dim-3e7": ["vna", '{"factors":[{"dim":30000000,"weight":"1/1"}]}'],
    # a total past the int-to-text digit limit: the svg axis label cannot be written
    "svg-span-10^4000": SVG_SPAN,
    # a depth with more digits than ``int`` reads: a parse failure, as in the DSL
    "depth-of-5000-digits": ["range", "geo(1/2,1/2)", "--depth", "1" * 5000],
    # a term count past ``sys.maxsize``: stopped at the first term too large to write
    "encode-terms-2^63": ["extreme", "encode", "2", "--terms", str(2**63)],
    # JSON nested 10^5 deep (left open, so the argument stays under the
    # kernel's per-argument size): refused as a parse failure
    "json-nested-10^5": ["check", '{"prefix": ' + "[" * 10**5],
    # a tail above the lone atom for about 115,000 terms, of about 27·j bits
    # each: refused by the count of the one tail run read past the room left
    "vna-slow-tail": ["vna", VNA_SLOW_TAIL],
    # answered: the ceiling is decided by the tail terms down to the atom,
    # not by the term at the room left, of about 5*10^7 bits
    "vna-wide-ratio": ["vna", VNA_WIDE_RATIO],
    # 2^63 expansion steps, all inside one radix block: refused before the first
    "expand-bits-2^63": ["expand", f"radix(1; {2**63 + 1})", "1/3", "--bits", str(2**63)],
    # 10^7 equal terms, each one small enough to write: refused past 10^6 read
    "encode-terms-10^7": ["extreme", "encode", str(2**63 + 1), "--terms", "10000000"],
    # 10^8 expansion steps: refused before the first
    "expand-bits-10^8": ["expand", "geo(1/2,1/2)", "1/3", "--bits", "100000000"],
}
# 1024 pieces with endpoints of about 66,000 bits
SVG_ENDPOINTS = ["range", HUGE_ENDPOINTS, "--depth", "10", "--format", "svg"]


def _capped(limit, value):
    hard = resource.getrlimit(limit)[1]
    if hard != resource.RLIM_INFINITY:
        value = min(value, hard)
    resource.setrlimit(limit, (value, hard))


def _cap_child(memory=MEMORY_BYTES):
    _capped(resource.RLIMIT_AS, memory)
    _capped(resource.RLIMIT_CPU, CPU_SECONDS)


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def _run(argv, memory=MEMORY_BYTES):
    return subprocess.run(
        [sys.executable, "-m", "tracerange", *argv],
        capture_output=True,
        text=True,
        env=_env(),
        preexec_fn=lambda: _cap_child(memory),
    )


# the refusal that some of them end in, by name
REFUSALS = {
    "vna-slow-tail": "the merged prefix reaches 100001 atoms, past the bound of 100000",
    "expand-bits-2^63": f"{2**63} listed entries exceed the bound of 1000000",
    "encode-terms-10^7": "1000001 listed entries exceed the bound of 1000000",
    "expand-bits-10^8": "100000000 listed entries exceed the bound of 1000000",
}
# the ones that end in an answer
ANSWERED = {"vna-wide-ratio"}


@pytest.mark.parametrize("name, argv", HOSTILE.items(), ids=HOSTILE.keys())
def test_input_ends_in_a_typed_exit(name, argv):
    proc = _run(argv)
    assert proc.returncode >= 0, f"ended by signal {-proc.returncode}"
    assert 0 <= proc.returncode <= 3, proc.stderr
    doc = json.loads(proc.stdout)
    if proc.returncode:
        assert doc["error"]["kind"] != "internal", doc["error"]
    if name in REFUSALS:
        assert (proc.returncode, doc["error"]["kind"], doc["error"]["message"]) == (2, "resource", REFUSALS[name])
    if name in ANSWERED:
        assert proc.returncode == 0, doc


# radix blocks of more than sys.maxsize slots, which ``itertools.repeat``
# cannot count, spelled without an end as no reader takes that many terms
HUGE_BLOCKS = {
    "radix-2^63+1": (str(2**63 + 1), 3, [f"1/{2**63 + 1}"] * 3),
    "radix-10^21-after-3": (f"3 | {10**21}", 4, ["1/3", "1/3", f"1/{3 * 10**21}", f"1/{3 * 10**21}"]),
}


@pytest.mark.parametrize("word, count, terms", HUGE_BLOCKS.values(), ids=HUGE_BLOCKS.keys())
def test_a_radix_block_past_sys_maxsize_lists_its_terms(word, count, terms):
    proc = _run(["extreme", "encode", word, "--terms", str(count)])
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["terms"] == terms


def test_an_svg_span_too_large_to_write_is_refused_as_json_is():
    proc = _run(SVG_SPAN)
    json_proc = _run(SVG_SPAN[:-2])
    assert (proc.returncode, json_proc.returncode) == (2, 2)
    assert json.loads(proc.stdout) == json.loads(json_proc.stdout)
    assert json.loads(proc.stdout)["error"]["kind"] == "resource"


def test_huge_svg_endpoints_are_drawn_within_the_cpu_cap():
    # each x is one int division on the integer grid; a Fraction division
    # per endpoint took about 12 s of CPU on this input
    proc = _run(SVG_ENDPOINTS)
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"
    assert proc.stdout.startswith("<svg ")
    assert proc.stdout.count("<rect ") == 1 + 1024


def test_a_closed_stdout_ends_without_a_traceback():
    # about 1.2 MB of terms, far past a pipe's buffer, so the child is still
    # writing when the reader goes away after 10 bytes
    child = subprocess.Popen(
        [sys.executable, "-m", "tracerange", "extreme", "encode", "2", "--terms", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        preexec_fn=_cap_child,
    )
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 0
    assert stderr == b""


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-text digit limit")
    return limit


def test_a_cover_too_large_to_write_is_refused_at_its_first_such_endpoint_within_the_cpu_cap():
    # 2^16 pieces whose second endpoint is already past the digit limit:
    # reducing every endpoint before refusing one takes over 30 s of CPU. The
    # fold holds 2^17 endpoints of about 53,000 bits (about 860 MB) before
    # the writer runs, so this child gets a 1.5 GB address space; under the
    # 512 MB cap the fold itself ends in a MemoryError
    _digit_limit()
    proc = _run(["range", f"geo(1/2, 1/{10**1000})", "--depth", "16"], memory=1536 * 2**20)
    assert proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}"
    assert json.loads(proc.stdout)["error"] == {
        "kind": "resource",
        "message": "output rational too large to write: 53152 bits",
        "position": None,
    }


def test_a_verdict_repr_past_the_digit_limit_is_refused_as_json_is():
    _digit_limit()
    verdict = kakeya_check(SequenceModel((), GeometricTail(Fraction(1, 2), Fraction(1, 10**5000))))
    with pytest.raises(ResourceLimitError) as written:
        format_rational(verdict.gap[0])
    with pytest.raises(ResourceLimitError) as shown:
        repr(verdict)
    assert str(shown.value) == str(written.value) == "output rational too large to write: 16611 bits"


def test_a_record_repr_refuses_exactly_past_the_digit_limit():
    limit = _digit_limit()
    below, past = 10 ** (limit - 1), 10**limit
    tail = GeometricTail(Fraction(1, 2), Fraction(1, below))
    assert repr(tail) == f"GeometricTail(first=Fraction(1, 2), ratio=Fraction(1, {below}))"
    assert repr(RadixWord((below,), (2,))) == f"RadixWord(pre=({below},), period=(2,))"
    with pytest.raises(ResourceLimitError, match=f"{past.bit_length()} bits"):
        repr(GeometricTail(Fraction(1, 2), Fraction(1, past)))
    # an integer entry is refused by the same rule, and a record holding the
    # refused one refuses too
    with pytest.raises(ResourceLimitError, match=f"{past.bit_length()} bits"):
        repr(SequenceModel((), GeometricTail(Fraction(1, 2), Fraction(1, past))))
    with pytest.raises(ResourceLimitError, match=f"{past.bit_length()} bits"):
        repr(RadixWord((past,), (2,)))


def test_json_nested_past_the_recursion_limit_is_a_parse_failure():
    nested = "[" * 10**5 + "]" * 10**5
    proc = _run(HOSTILE["json-nested-10^5"])
    assert proc.returncode == 3, proc.stdout
    for argv in (
        ["check", '{"prefix": ' + nested + "}"],
        ["vna", '{"factors": ' + nested + "}"],
        ["extreme", "decode", '{"prefix": ' + nested + "}"],
        ["extreme", "encode", '{"pre": ' + nested + "}"],
    ):
        result = run_command(argv)
        assert result.exit_code == 3, result.body
        assert json.loads(result.body)["error"] == {
            "kind": "parse",
            "message": "invalid JSON: nested past the interpreter's recursion limit",
            "position": None,
        }


def test_a_long_radix_head_that_restates_the_period_is_read_within_the_cpu_cap(tmp_path):
    # a word canonicalised one absorbed entry at a time, each a tuple copy,
    # took about 15 s at 10^5 entries
    spec = tmp_path / "spec.txt"
    spec.write_text("radix(1; " + "2 " * 10**5 + "| 2)")
    proc = _run(["check", "--file", str(spec)])
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"
    assert json.loads(proc.stdout)["holds"] is True


def test_a_long_run_of_equal_terms_is_folded_within_the_cpu_cap(tmp_path):
    # 8,000 copies of 1/8000: a step per term merged the whole union each
    # time, about 20 s; the fold takes the run in 13 halving steps
    spec = tmp_path / "spec.txt"
    spec.write_text(", ".join(["1/8000"] * 8000))
    proc = _run(["range", "--file", str(spec), "--depth", "8000"])
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}"
    doc = json.loads(proc.stdout)
    assert len(doc["intervals"]) == 8001 and doc["exact"] is True


def test_options_past_the_ceiling_are_refused_before_argparse_within_the_cpu_cap():
    # argparse's search for the next option string is quadratic in their
    # count: 50,000 took about a minute before it answered exit 3
    proc = _run(["check", "1/2"] + ["--zz"] * 50000)
    assert proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}"
    assert json.loads(proc.stdout)["error"] == {
        "kind": "resource",
        "message": "50000 arguments starting with '-' exceed the bound of 5000",
        "position": None,
    }


_LONG = 10**6
# each names a malformed input in its error message; the message quotes a
# fixed window of it and its length, not the whole input
QUOTING = {
    "rational-of-10^6-nines": ["expand", "geo(1/2,1/2)", "1/x" + "9" * _LONG],
    "vna-weight": ["vna", json.dumps({"factors": [{"dim": 1, "weight": "z" * _LONG}]})],
    "depth-list": ["range", "geo(1/2,1/2)", "--depth", "1," * (_LONG // 2) + "x"],
    "tail-call-name": ["check", "1/2, " + "x" * _LONG],
    "tail-kind": ["check", json.dumps({"tail": {"kind": "k" * _LONG}})],
    "tail-kind-list": ["check", json.dumps({"tail": {"kind": [1] * 10**5}})],
    "field-name": ["check", json.dumps({"f" * _LONG: 1})],
    "field-names-10^5": ["check", json.dumps({f"f{i}": 1 for i in range(10**5)})],
    # argparse's own messages, which name an argv entry or an option's value
    "unrecognized-argument": ["check", "1/2", "x" * _LONG],
    "command-name": ["c" * _LONG],
    "unrecognized-option": ["check", "1/2", "--bogus" + "z" * _LONG],
    "format-choice": ["range", "1/2", "--format", "q" * _LONG],
    "bits-of-10^6-nines": ["expand", "geo(1/2,1/2)", "1/3", "--bits", "9" * _LONG],
    "mode-name": ["extreme", "w" * _LONG],
    "bits-after-equals": ["expand", "geo(1/2,1/2)", "1/3", "--bits=" + "9" * _LONG],
    "help-with-an-attached-value": ["check", "-h" + "z" * _LONG],
    # a list of unrecognized arguments, each short, is quoted as argparse joins it;
    # argparse's own search for the next option string is quadratic in their
    # count (50,000 options take about a minute), so the options stop at 5,000
    "10^5-unrecognized-arguments": ["check", "1/2"] + ["x"] * 10**5,
    "5*10^3-unrecognized-options": ["check", "1/2"] + ["--zz"] * 5000,
    "5*10^4-values-after-bits": ["expand", "geo(1/2,1/2)", "1/3", "--bits", "4"] + ["7"] * 50000,
}


@pytest.mark.parametrize("argv", list(QUOTING.values()), ids=list(QUOTING))
def test_an_error_quotes_a_window_of_a_long_input(argv):
    result = run_command(argv)
    assert result.exit_code == 3, result.body[:300]
    assert json.loads(result.body)["error"]["kind"] == "parse"
    assert len(result.body.encode()) < 2000, result.body[:300]
    assert "characters)" in result.body


def test_argparse_quotes_each_entry_past_the_window_and_no_other():
    fits, past, longer = "x" * QUOTE_WINDOW, "x" * (QUOTE_WINDOW + 1), "x" * 300
    message = json.loads(run_command(["check", "1/2", fits]).body)["error"]["message"]
    assert message == f"unrecognized arguments: {fits}"
    # an entry that sits inside a longer one is not cut out of it
    nines = "9" * QUOTE_WINDOW
    argv = ["expand", "geo(1/2,1/2)", "1/3", "--bits", "9" * 300 + "x", "9" * (QUOTE_WINDOW + 1)]
    message = json.loads(run_command(argv).body)["error"]["message"]
    assert message == f"argument --bits: invalid int value: '{nines}'... (301 characters)"


def test_argparse_quotes_a_list_of_unrecognized_arguments_past_the_window_and_no_other():
    # 40 entries join to 79 characters, inside the window: the body is argparse's own
    result = run_command(["check", "1/2"] + ["x"] * 40)
    assert result.exit_code == 3
    assert json.loads(result.body)["error"]["message"] == "unrecognized arguments: " + " ".join(["x"] * 40)
    assert len(result.body.encode()) == 184
    fits, past, longer = "x" * QUOTE_WINDOW, "x" * (QUOTE_WINDOW + 1), "x" * 300
    message = json.loads(run_command(["check", "1/2", past, longer]).body)["error"]["message"]
    assert message == f"unrecognized arguments: {fits}... ({QUOTE_WINDOW + 302} characters)"


def test_a_long_file_name_is_quoted_by_the_window():
    result = run_command(["check", "--file", "d" * _LONG])
    assert result.exit_code == 2, result.body[:300]
    assert len(result.body.encode()) < 2000, result.body[:300]
    assert "characters)" in result.body
