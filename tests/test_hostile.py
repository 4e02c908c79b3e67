"""Hostile inputs end in a typed exit, not a crash, under a memory cap.

Every hostile command line is a row of ``TABLE``, which one runner,
``test_input_ends_in_a_typed_exit``, launches in a child process. A row
holds its id; its argv, where ``FILE`` stands for a file that the runner
first writes with the row's ``file`` text or bytes; the exit code it must
end with; its caps, the child's address space (512 MB unless the row says
more) and its seconds (10 unless it says fewer), applied both as
``RLIMIT_CPU`` and as ``subprocess.run``'s ``timeout``; and an optional
check of its stdout: an exact error dict (``error``), a field of its JSON
body (``field``), equal bytes to another argv's, launched as the row is or
as ``python -m tracerange`` (``same``), or a check of its own. Every row
must also leave stderr empty; write a JSON body, unless it succeeds on
``--help``, ``--version`` or ``--format csv|svg``, and write it as
``json.dumps(doc, indent=2, sort_keys=True)`` does, so an empty stdout
fails; and fail, if it fails, with its exit code's kind, never
``"internal"``: an input run without a bound would end by a signal, by the
timeout or in an ``"internal"`` ``MemoryError`` instead.

The launcher follows the copy of ``tracerange`` this file imported. This
checkout's ``src/`` runs as ``python -m tracerange`` with ``src`` on
``PYTHONPATH``; any other copy, an installed one, runs through the
``tracerange`` console script beside ``sys.executable``, with no
``PYTHONPATH``, and if that script is missing every row fails rather than
fall back. So ``PYTHONPATH=src pytest`` runs the table on the source tree,
and ``pytest tests/test_hostile.py`` from outside the checkout, after
``pip install .``, runs it through the installed script.

In process: the ``repr`` of a record past the int-to-text digit limit,
refused by the JSON writer's rule; JSON nested past the recursion limit
for each command that reads a document, too long for a child's argv; the
library calls that list one entry per unit of a count, refused before
they list any; the prefix's run sums; and the quoting of long inputs.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import pytest
from support import HUGE_ENDPOINTS

import tracerange
from tracerange import (
    GeometricTail, Interval, OutOfSupportError, RadixWord, ResourceLimitError, SequenceModel, achievable_outer,
    format_rational, kakeya_check, list_violations, make_model, parse_spec, split_leading,
)
from tracerange.cli import run_command
from tracerange.core import QUOTE_WINDOW
from tracerange.serialize import approximation_to_doc

resource = pytest.importorskip("resource")  # POSIX only

SRC = Path(__file__).resolve().parent.parent / "src"
MODULE = [sys.executable, "-m", "tracerange"]
SCRIPT = Path(sys.executable).parent / "tracerange"
FROM_CHECKOUT = Path(tracerange.__file__).resolve().parent == SRC / "tracerange"
MEMORY_BYTES = 512 * 2**20
SECONDS = 10
FILE = "{file}"


def _launcher() -> tuple:
    """The command that launches the copy under test, and its environment."""
    if FROM_CHECKOUT:
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        return MODULE, dict(os.environ, PYTHONPATH=path)
    assert SCRIPT.is_file(), f"tracerange is imported from {tracerange.__file__} but {SCRIPT} is missing"
    return [str(SCRIPT)], {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}


def _capping(memory=MEMORY_BYTES, seconds=SECONDS):
    """A ``preexec_fn`` that caps the child's address space and CPU seconds."""
    def cap():
        for limit, value in ((resource.RLIMIT_AS, memory), (resource.RLIMIT_CPU, seconds)):
            hard = resource.getrlimit(limit)[1]
            resource.setrlimit(limit, (value if hard == resource.RLIM_INFINITY else min(value, hard), hard))
    return cap


def _run(command, env, memory=MEMORY_BYTES, seconds=SECONDS):
    cap = _capping(memory, seconds)
    try:
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=seconds, preexec_fn=cap)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {seconds} s", pytrace=False)


class Row(NamedTuple):
    argv: tuple
    code: int
    memory: int = MEMORY_BYTES
    seconds: int = SECONDS
    check: Optional[Callable[[str], bool]] = None
    file: Union[str, bytes, None] = None


def _command(row: Row, folder: Path) -> list:
    if row.file is not None:
        (folder / "input").write_bytes(row.file if isinstance(row.file, bytes) else row.file.encode())
    return _launcher()[0] + [str(folder / "input") if entry == FILE else entry for entry in row.argv]


KINDS = {1: {"validation", "domain"}, 2: {"resource"}, 3: {"parse"}}  # the kinds of failure of each exit code


def _asks_for_text(argv) -> bool:
    return "--help" in argv or "--version" in argv or any(
        option == "--format" and value in ("csv", "svg") for option, value in zip(argv, argv[1:]))


def error(kind, message):
    return lambda out: json.loads(out)["error"] == {"kind": kind, "message": message, "position": None}


def field(name, value):
    return lambda out: json.loads(out)[name] == value


def same(argv, launcher=None):
    """Equal bytes to ``argv`` launched by ``launcher``, by default the rows' own."""
    return lambda out: out == _run((launcher or _launcher()[0]) + argv, _launcher()[1]).stdout


def svg(rects):
    return lambda out: out.startswith("<svg ") and out.count("<rect ") == rects


def quoted(out):
    # the message quotes a fixed window of a long entry and its length, not the whole entry
    return len(out.encode()) < 2000 and json.loads(out)["error"]["message"].endswith(" characters)")


def _complement(out):
    # the cover's own document; its complement in [0, total], taken in
    # process, has the cover's endpoints less the first and last
    model = parse_spec("geo(1/3, 1/4)")
    cover, intervals = achievable_outer(model, 10), json.loads(out)["intervals"]
    ends = [format_rational(x) for gap in cover.union.complement(Interval(0, model.total)) for x in (gap.lo, gap.hi)]
    return len(intervals) == 1024 and intervals == approximation_to_doc(cover)["intervals"] and (
        sum(intervals, [])[1:-1] == ends)


_LIMITED = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not _LIMITED, reason="this interpreter has no int-to-text digit limit")

_BIG = 10**4000
_WIDE = Fraction(10**149, 2 * 10**149 + 1)
_WIDE_TAIL = (Fraction(999999, 10**6) * (1 - _WIDE), _WIDE)
_DYADIC_70 = ", ".join(f"1/{2**i}" for i in range(1, 71)) + f", geo(1/{2**71}, 1/2)"
_ENTRY = ["check", "geo(1/3, 1/4)"]
_RANGE_4 = ["range", "geo(1/3, 1/4)", "--depth", "4"]
_GAPS_5 = ["gaps", "geo(1/3, 1/4)", "--depth", "5"]


def _algebra(factors, tail=None):
    """An algebra document of ``(dim, weight)`` factors and a geometric tail of ``(first, ratio)``."""
    doc = {"factors": [{"dim": dim, "weight": weight} for dim, weight in factors]}
    return json.dumps(doc if tail is None else {**doc, "abelianTail": dict(zip(("kind", "first", "ratio"), tail))})


def row(name, argv, code, check=None, *, memory=MEMORY_BYTES, seconds=SECONDS, file=None, marks=()):
    return pytest.param(Row(tuple(argv), code, memory, seconds, check, file), id=name, marks=marks)


TABLE = [
    # the console script and ``python -m`` end through the same entry, and write the same bytes; on the
    # source tree the row itself runs ``python -m``
    row("entry-as-python-m", _ENTRY, 0, None if FROM_CHECKOUT else same(_ENTRY, MODULE)),
    # version, a command's help, a missing mode, an unknown command, a validation and a domain failure
    row("version", ["--version"], 0, lambda out: out == f"tracerange {tracerange.__version__}\n"),
    row("check-help", ["check", "--help"], 0, lambda out: out.startswith("usage: tracerange check ")),
    row("extreme-without-mode", ["extreme"], 3),
    row("unknown-command", ["bogus"], 3),
    row("check-zero", ["check", "0"], 1, error("validation", "sequence entries must be positive, got 0")),
    row("expand-target-2", ["expand", "geo(1/2,1/2)", "2"], 1, error("domain", "target 2 outside [0, 1]")),
    # a depth digit that ``int`` cannot read, and one with more digits than it reads
    row("depth-superscript-two", ["range", "geo(1/2,1/2)", "--depth", "²"], 3),
    row("depth-of-5000-digits", ["range", "geo(1/2,1/2)", "--depth", "1" * 5000], 3),
    # a plain command line, read from its row of the command table, and its twins that only argparse reads
    row("range-depth-4", _RANGE_4, 0),
    row("range-depth-equals-4", ["range", "geo(1/3, 1/4)", "--depth=4"], 0, same(_RANGE_4)),
    row("range-dep-4", ["range", "geo(1/3, 1/4)", "--dep", "4"], 0, same(_RANGE_4)),
    row("gaps-depth-5", _GAPS_5, 0),
    row("gaps-depth-equals-5", ["gaps", "geo(1/3, 1/4)", "--depth=5"], 0, same(_GAPS_5)),
    row("gaps-default-depth", ["gaps", "geo(1/3, 1/4)"], 0),
    # a 1024-piece cover read through the trusted Fraction and Interval construction, in each format
    row("cover-1024-json", ["range", "geo(1/3, 1/4)", "--depth", "10"], 0, _complement),
    row("cover-1024-csv", ["range", "geo(1/3, 1/4)", "--depth", "10", "--format", "csv"], 0,
        lambda out: out.startswith("lo,hi\n") and out.count("\n") == 1 + 1024),
    row("cover-1024-svg", ["range", "geo(1/3, 1/4)", "--depth", "10", "--format", "svg"], 0, svg(1 + 1024)),
    # 2^24 pieces: refused before any term is built
    row("cantor-depth-24", ["range", "geo(2/3,1/3)", "--depth", "24"], 2,
        error("resource", "the cover fold reaches 2^24 pieces, past the bound of 65536")),
    # 2^20 points from the prefix alone: refused inside the fold
    row("finite-powers-of-a-third", ["range", ",".join(f"1/{3**k}" for k in range(1, 21)), "--depth", "20"], 2,
        error("resource", "the cover fold reaches 131072 pieces, past the bound of 65536")),
    # a prefix ahead of a Cantor tail at depth 10^9: the forward scan stops at the tail's first index
    row("prefix-before-cantor-depth-10^9", ["range", "1/2, geo(1/8, 1/3)", "--depth", "1000000000"], 2,
        error("resource", "the cover fold reaches 2^999999999 pieces, past the bound of 65536"), seconds=5),
    # one piece at any depth
    row("dyadic-depth-2000", ["range", "geo(1/2,1/2)", "--depth", "2000"], 0),
    # 8,000 copies of 1/8000: a step per term merged the whole union each time, about 20 s; the fold
    # takes the run in 13 halving steps
    row("run-of-8000-equal-terms", ["range", "--file", FILE, "--depth", "8000"], 0,
        lambda out: json.loads(out)["exact"] is True and len(json.loads(out)["intervals"]) == 8001,
        seconds=5, file=", ".join(["1/8000"] * 8000)),
    # 2^16 pieces whose second endpoint is past the digit limit: reducing every endpoint before refusing one
    # takes over 30 s of CPU. The fold holds 2^17 endpoints of about 53,000 bits (about 860 MB) before the
    # writer runs, so this child gets 1.5 GB of address space; under 512 MB the fold ends in a MemoryError
    row("cover-past-the-digit-limit", ["range", f"geo(1/2, 1/{10**1000})", "--depth", "16"], 2,
        error("resource", "output rational too large to write: 53152 bits"),
        memory=1536 * 2**20, seconds=5, marks=needs_digit_limit),
    # a million-index gaps scan is refused at its first gap too large to write, checked as it is read
    row("gaps-past-the-digit-limit", ["gaps", f"geo(1/2, 1/{10**1000})", "--depth", "1000000"], 2,
        error("resource", "output rational too large to write: 16611 bits"), seconds=5, marks=needs_digit_limit),
    # a total past the digit limit: the svg axis label is refused as json is
    row("span-10^4000", ["range", f"geo({_BIG - 1}, {_BIG - 1}/{_BIG})", "--depth", "2"], 2,
        error("resource", "output rational too large to write: 26576 bits")),
    row("svg-span-10^4000", ["range", f"geo({_BIG - 1}, {_BIG - 1}/{_BIG})", "--depth", "2", "--format", "svg"], 2,
        error("resource", "output rational too large to write: 26576 bits")),
    # 1024 pieces with endpoints of about 66,000 bits: each x is one int division on the integer grid;
    # a Fraction division per endpoint took about 12 s of CPU on this input
    row("svg-endpoints-66000-bits", ["range", HUGE_ENDPOINTS, "--depth", "10", "--format", "svg"], 0,
        svg(1 + 1024), seconds=5),
    row("digits-count-2e8", ["digits", "2", "1/3", "--count", "200000000"], 2,
        error("resource", "200000000 digits exceed the bound of 100000")),
    # 2^63 expansion steps, all inside one radix block: refused before the first
    row("expand-bits-2^63", ["expand", f"radix(1; {2**63 + 1})", "1/3", "--bits", str(2**63)], 2,
        error("resource", f"{2**63} listed entries exceed the bound of 1000000")),
    # 10^8 expansion steps: refused before the first
    row("expand-bits-10^8", ["expand", "geo(1/2,1/2)", "1/3", "--bits", "100000000"], 2,
        error("resource", "100000000 listed entries exceed the bound of 1000000")),
    # a term count past ``sys.maxsize``: stopped at the first term too large to write
    row("encode-terms-2^63", ["extreme", "encode", "2", "--terms", str(2**63)], 2,
        error("resource", "output rational too large to write: 14286 bits")),
    # 10^7 equal terms, each one small enough to write: refused past 10^6 read
    row("encode-terms-10^7", ["extreme", "encode", str(2**63 + 1), "--terms", "10000000"], 2,
        error("resource", "1000001 listed entries exceed the bound of 1000000")),
    # radix blocks of more than ``sys.maxsize`` slots, which ``itertools.repeat`` cannot count, spelled
    # without an end as no reader takes that many terms
    row("radix-2^63+1", ["extreme", "encode", str(2**63 + 1), "--terms", "3"], 0,
        field("terms", [f"1/{2**63 + 1}"] * 3)),
    row("radix-10^21-after-3", ["extreme", "encode", f"3 | {10**21}", "--terms", "4"], 0,
        field("terms", ["1/3", "1/3", f"1/{3 * 10**21}", f"1/{3 * 10**21}"])),
    # a 70-term dyadic prefix with its tail: the decoder always decides
    row("decode-dyadic-70", ["extreme", "decode", _DYADIC_70], 0, field("status", "extreme")),
    # a 99,999-term run face-embedding the radix-2 pattern: the decoder peels it as one run
    row("decode-run-99999", ["extreme", "decode", "--file", FILE], 0, field("status", "extreme"),
        file="1/100000, " * 99999 + "radix(1/100000; 2)\n"),
    # a prefix run that goes on into the tail is read as one run: a fourth 1/4 breaks the radix-4 block
    row("decode-run-into-the-tail", ["extreme", "decode", "1/4, radix(1; 4 | 2)"], 0, field("witnessIndex", 4)),
    # a word canonicalised one absorbed entry at a time, each a tuple copy, took about 15 s at 10^5
    # entries; it is absorbed in one backward pass
    row("radix-head-of-10^5", ["check", "--file", FILE], 0, field("holds", True), seconds=5,
        file="radix(1; " + "2 " * 10**5 + "| 2)"),
    # 3*10^7 atoms: refused before any atom is built
    row("vna-dim-3e7", ["vna", _algebra([(30000000, "1/1")])], 2,
        error("resource", "the merged prefix reaches 30000000 atoms, past the bound of 100000")),
    # two 40,000-dimensional factors of equal atoms merge into one run
    row("vna-two-40000-factors", ["vna", _algebra([(40000, "1/4")] * 2, ("geometric", "1/4", "1/2"))], 0),
    # a tail above the lone atom for about 115,000 terms, of about 27·j bits each: refused by
    # the count of the one tail run read past the room left, before the walk
    row("vna-slow-tail", ["vna", _algebra([(1, "1/1000000000")], ("geometric", f"{10**9 - 1}/{10**13}", "9999/10000"))],
        2, error("resource", "the merged prefix reaches 100001 atoms, past the bound of 100000"), seconds=5),
    # a ratio just under 1/2 with 150-digit terms, the total 1: the ceiling is decided by the about 20 tail
    # terms down to the lone atom, not by the term at the room of 100,000 atoms left, of about 5*10^7 bits
    row("vna-wide-ratio", ["vna", _algebra([(1, "1/1000000")], ("geometric", *map(format_rational, _WIDE_TAIL)))], 0),
    # JSON nested 10^5 deep, left open so the argument stays under the kernel's per-argument size
    row("json-nested-10^5", ["check", '{"prefix": ' + "[" * 10**5], 3,
        error("parse", "invalid JSON: nested past the interpreter's recursion limit")),
    # a field given twice is refused, not overwritten by the last
    row("json-repeated-field", ["check", '{"prefix": [1], "prefix": [2]}'], 3,
        error("parse", "invalid JSON: repeated field 'prefix'")),
    # a --file that is not UTF-8
    row("file-not-utf8", ["check", "--file", FILE], 3, file=b"\xff\xfe1/2"),
    # a malformed 10^6-character entry is quoted by a fixed window and its length, not echoed whole
    row("entry-of-10^6-characters", ["check", "--file", FILE], 3, quoted,
        file='{"prefix": ["' + "x" * 10**6 + '"]}\n'),
    # so is a 10^5-character argv entry in argparse's own message (Linux caps one argv string at 128 KiB)
    row("argv-entry-of-10^5-characters", ["check", "1/2", "x" * 10**5], 3, quoted),
    # and so is a list of 30,000 short unrecognized arguments, as argparse joins it
    row("30000-unrecognized-arguments", ["check", "1/2", *["x"] * 30000], 3, quoted),
    # argparse's search for the next option string is quadratic in their count: 50,000 took about a minute
    row("options-50000", ["check", "1/2", *["--zz"] * 50000], 2,
        error("resource", "50000 arguments starting with '-' exceed the bound of 5000"), seconds=5),
]


@pytest.mark.parametrize("row", TABLE)
def test_input_ends_in_a_typed_exit(row, tmp_path):
    proc, code = _run(_command(row, tmp_path), _launcher()[1], row.memory, row.seconds), row.code
    assert proc.returncode >= 0, f"ended by signal {-proc.returncode}"
    assert (proc.returncode, proc.stderr) == (code, ""), proc.stdout[:300]
    if code or not _asks_for_text(row.argv):
        doc = json.loads(proc.stdout)
        canonical = proc.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert canonical, f"not written as json.dumps writes it: {proc.stdout[:300]}"
        assert not code or doc["error"]["kind"] in KINDS[code], doc["error"]
    assert row.check is None or row.check(proc.stdout), proc.stdout[:300]


def test_the_launcher_runs_the_copy_under_test():
    # every row's command is built on this launcher
    command, env = _launcher()
    if FROM_CHECKOUT:
        assert command == MODULE and env["PYTHONPATH"].split(os.pathsep)[0] == str(SRC)
    else:
        # an installed copy: its console script must exist, and every row runs it
        assert command == [str(SCRIPT)] and os.access(SCRIPT, os.X_OK) and "PYTHONPATH" not in env
    assert len({param.id for param in TABLE}) == len(TABLE)


def test_a_closed_stdout_ends_without_a_traceback():
    # about 1.2 MB of terms, far past a pipe's buffer, so the child is still
    # writing when the reader goes away after 10 bytes
    command, env = _launcher()
    argv = [*command, "extreme", "encode", "2", "--terms", "2000"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, preexec_fn=_capping())
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=SECONDS) == 0
    assert stderr == b""


_HALVING = SequenceModel((), GeometricTail(Fraction(1, 2), Fraction(1, 2)))
_CANTOR = SequenceModel((), GeometricTail(Fraction(2, 3), Fraction(1, 3)))
# 10^8 listed entries, each of which ended in MemoryError under a 1 GB cap
# before the count was checked; the Cantor tail violates at every index
LISTINGS = {
    "first-terms-10^8": lambda: _HALVING.first_terms(10**8),
    "split-leading-10^8": lambda: split_leading(_HALVING, 10**8),
    "list-violations-10^8": lambda: list_violations(_CANTOR, 10**8),
}


@pytest.mark.parametrize("call", LISTINGS.values(), ids=LISTINGS.keys())
def test_a_library_count_past_the_entries_ceiling_is_refused_before_any_entry(call):
    with pytest.raises(ResourceLimitError, match="^100000000 listed entries exceed the bound of 1000000$"):
        call()


def test_a_deep_scan_with_few_violations_answers_and_a_finite_support_still_bounds_the_terms():
    assert list_violations(_HALVING, 10**8) == []
    ahead = SequenceModel((Fraction(1, 2),), GeometricTail(Fraction(1, 8), Fraction(1, 2)))
    assert list_violations(ahead, 10**8) == [(1, (Fraction(1, 4), Fraction(1, 2)))]
    finite = make_model([Fraction(1, 2), Fraction(1, 4)])
    for call in (lambda: finite.first_terms(10**8), lambda: split_leading(finite, 10**8)):
        with pytest.raises(OutOfSupportError):
            call()


@needs_digit_limit
def test_a_verdict_repr_past_the_digit_limit_is_refused_as_json_is():
    verdict = kakeya_check(SequenceModel((), GeometricTail(Fraction(1, 2), Fraction(1, 10**5000))))
    with pytest.raises(ResourceLimitError) as written:
        format_rational(verdict.gap[0])
    with pytest.raises(ResourceLimitError) as shown:
        repr(verdict)
    assert str(shown.value) == str(written.value) == "output rational too large to write: 16611 bits"


@needs_digit_limit
def test_a_record_repr_refuses_exactly_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
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


def test_run_sums_after_a_huge_denominator_stay_their_own_size():
    # a first term over 10^4000 before 10,000 distinct k/2^20 runs: each sum
    # after the first run is over 2^20; over the lcm of every run each would
    # hold 13,300 bits, for 20 times the time and 3 times the memory
    big = 10**4000
    first = Fraction(big + 1, 2 * big)
    rest = [Fraction(k, 2**20) for k in range(2**19 - 1, 2**19 - 10**4 - 1, -1)]
    model = SequenceModel((first, *rest))
    assert all(2**20 % den == 0 for _, den in model._run_sums[1:])
    assert model.tail_sum(5000) == sum(rest[4999:], Fraction(0))
    assert model.total == first + sum(rest, Fraction(0))


def test_json_nested_past_the_recursion_limit_is_a_parse_failure():
    # closed, and so too long for a child's argv; the row ``json-nested-10^5`` launches the open one
    nested = "[" * 10**5 + "]" * 10**5
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
    "repeated-field-name": ["check", '{"%s": 1, "%s": 2}' % ("f" * _LONG, "f" * _LONG)],
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
