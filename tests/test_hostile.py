"""Hostile inputs end in a typed exit, not a crash, under a memory cap.

Each input runs ``python -m tracerange`` in a child process whose address
space (about 512 MB) and CPU time (about 10 s) are capped with
``resource.setrlimit``; the limits act on the child only. An input that ran
without a bound would end by a signal (SIGXCPU, or SIGKILL past the CPU
hard limit) or as an ``"internal"`` envelope around a ``MemoryError``
instead of an answer or a typed refusal. No wall-clock time is asserted.

The ``repr`` of a record holding a rational past the int-to-text digit
limit is checked in process: it is refused by the rule the JSON writer
follows, with the same ``ResourceLimitError``.
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

resource = pytest.importorskip("resource")  # POSIX only

SRC = str(Path(__file__).resolve().parent.parent / "src")
MEMORY_BYTES = 512 * 2**20
CPU_SECONDS = 10

_BIG = 10**4000
SVG_SPAN = ["range", f"geo({_BIG - 1}, {_BIG - 1}/{_BIG})", "--depth", "2", "--format", "svg"]

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
}
# 1024 pieces with endpoints of about 66,000 bits
SVG_ENDPOINTS = ["range", HUGE_ENDPOINTS, "--depth", "10", "--format", "svg"]


def _capped(limit, value):
    hard = resource.getrlimit(limit)[1]
    if hard != resource.RLIM_INFINITY:
        value = min(value, hard)
    resource.setrlimit(limit, (value, hard))


def _cap_child():
    _capped(resource.RLIMIT_AS, MEMORY_BYTES)
    _capped(resource.RLIMIT_CPU, CPU_SECONDS)


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def _run(argv):
    return subprocess.run(
        [sys.executable, "-m", "tracerange", *argv],
        capture_output=True,
        text=True,
        env=_env(),
        preexec_fn=_cap_child,
    )


@pytest.mark.parametrize("argv", HOSTILE.values(), ids=HOSTILE.keys())
def test_input_ends_in_a_typed_exit(argv):
    proc = _run(argv)
    assert proc.returncode >= 0, f"ended by signal {-proc.returncode}"
    assert 0 <= proc.returncode <= 3, proc.stderr
    doc = json.loads(proc.stdout)
    if proc.returncode:
        assert doc["error"]["kind"] != "internal", doc["error"]


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
