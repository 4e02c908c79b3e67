"""Command line front end.

Every command reads exact rational input, works exactly, and prints a JSON
document (or CSV/SVG for ``range``). ``_COMMANDS`` maps each command (and
each mode of ``extreme``) to the one function that builds its model, runs
its engine and writes its answer. Exit codes are part of the contract, and
each error class of ``errors`` carries its own code and ``kind``:

* 0 - success
* 1 - the input parsed but was rejected (validation or domain errors)
* 2 - a resource bound was exceeded
* 3 - the input could not be parsed at all

Failures print a JSON object with a single ``error`` field carrying ``kind``,
``message``, and ``position`` (character offset for parse errors, else null),
so scripts can always dispatch on the same shape; an ``"internal"`` fault
also names its exception ``type``. Output for a given argv is byte for byte
deterministic.

Resource bounds are fixed module constants, not options: ``range`` refuses a
cover whose fold would hold more than ``range_geometry.MAX_PIECES`` pieces,
``vna`` an algebra whose merged prefix would hold more than
``sequences.MAX_ATOMS`` atoms, and ``digits`` a count above
``extreme_points.MAX_DIGITS``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from functools import lru_cache
from itertools import islice

from . import __version__
from .core import _Record, _check_writable, format_rational, parse_rational
from .dsl import parse_algebra, parse_spec, parse_word
from .errors import ParseError, ResourceLimitError, TraceRangeError
from .extreme_points import mixed_radix_digits, radix_to_sequence, sequence_to_radix
from .range_geometry import ConvexityVerdict, achievable_outer
from .representability import _violations, greedy_expand, kakeya_check
from .sequences import _check_index, from_algebra
from .serialize import (
    approximation_to_doc, convexity_to_doc, expansion_to_doc, model_to_doc,
    report_to_doc, verdict_to_doc, word_to_doc,
)


class CommandResult(_Record):
    _fields = ("exit_code", "body")

    def __init__(self, exit_code: int, body: str):
        self.__dict__.update(exit_code=exit_code, body=body)


class _Parser(argparse.ArgumentParser):
    """argparse that reports malformed argv as ParseError instead of exiting."""

    commands = None  # the action ``add_subparsers`` returned, if any

    def error(self, message):
        raise ParseError(message)


def _add_spec_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", help="sequence spec (DSL or JSON)")
    parser.add_argument("--file", help="read the spec from a file instead")


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    parser = _Parser(prog="tracerange", description="exact subset-sum ranges of trace sequences")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.commands = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="test the completeness condition")
    _add_spec_argument(check)

    expand = sub.add_parser("expand", help="greedy bit expansion of a target value")
    _add_spec_argument(expand)
    expand.add_argument("target", help="rational target, e.g. 1/3")
    expand.add_argument("--bits", type=int, default=32, help="number of bits (default 32)")

    rng = sub.add_parser("range", help="outer approximation of the achievable set")
    _add_spec_argument(rng)
    rng.add_argument(
        "--depth",
        default="8",
        help="terms to expand, comma separated for several svg bands (default 8)",
    )
    rng.add_argument("--format", choices=("json", "csv", "svg"), default="json")

    gaps = sub.add_parser("gaps", help="violating indices with their gap certificates")
    _add_spec_argument(gaps)
    gaps.add_argument("--depth", type=int, default=16, help="indices to scan (default 16)")

    vna = sub.add_parser("vna", help="convexity of an algebra's trace range")
    vna.add_argument("spec", nargs="?", help="algebra spec (JSON)")
    vna.add_argument("--file", help="read the spec from a file instead")

    extreme = sub.add_parser("extreme", help="extreme sequences and radix words")
    mode = extreme.commands = extreme.add_subparsers(dest="mode", required=True)
    encode = mode.add_parser("encode", help="the pattern sequence of a radix word")
    encode.add_argument("word", help="radix word, e.g. '3 | 2' or '2'")
    encode.add_argument("--terms", type=int, default=20, help="terms to list (default 20)")
    decode = mode.add_parser("decode", help="decode a sequence back to its radix word")
    _add_spec_argument(decode)

    digits = sub.add_parser("digits", help="mixed-radix digits of a rational")
    digits.add_argument("word", help="radix word, e.g. '3 | 2' or '2'")
    digits.add_argument("target", help="rational in [0, 1]")
    digits.add_argument("--count", type=int, default=20, help="digits to emit (default 20)")

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, stepping straight into the parser of
    each leading command name as argparse's subparser action would; any
    other argv (empty, an option first, an unknown name) takes the parser
    it has reached, so help, version and error text are unchanged."""
    for entry in argv:
        if not isinstance(entry, str):  # argparse would raise TypeError on it
            raise ParseError(f"command line entries must be str, got {type(entry).__name__}")
    parser, args = _parser(), argparse.Namespace()
    while parser.commands is not None and argv and argv[0] in parser.commands.choices:
        setattr(args, parser.commands.dest, argv[0])
        parser = parser.commands.choices[argv[0]]
        argv = argv[1:]
    return parser.parse_args(argv, args)


def _spec_text(args) -> str:
    inline = getattr(args, "spec", None)
    path = getattr(args, "file", None)
    if inline is not None and path is not None:
        raise ParseError("give the spec inline or with --file, not both")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ResourceLimitError(f"cannot read {path}: {exc.strerror}") from None
    if inline is None:
        raise ParseError("missing spec: pass it inline or with --file")
    return inline


# ``json.dumps(doc, indent=2, sort_keys=True)`` without a new encoder per
# document; each document is a fresh tree, so no cycle check is needed
_dump = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False).encode


def _parse_depths(raw: str) -> list[int]:
    depths = []
    for piece in raw.split(","):
        piece = piece.strip()
        # ``isdecimal`` holds for exactly the digits ``int`` reads: "٣" but not "²"
        if not piece or not (piece.isdecimal() or (piece[0] == "-" and piece[1:].isdecimal())):
            raise ParseError(f"--depth must be integers separated by commas, got {raw!r}")
        depths.append(int(piece))
    return depths


def _range(args) -> str:
    model = parse_spec(_spec_text(args))
    depths = _parse_depths(args.depth)
    if args.format in ("json", "csv") and len(depths) != 1:
        raise ParseError("json and csv output take a single depth")
    approxes = [achievable_outer(model, depth) for depth in depths]
    if args.format == "json":
        return _dump(approximation_to_doc(approxes[0]))
    if args.format == "csv":
        rows = ["lo,hi"]
        rows.extend(f"{lo},{hi}" for lo, hi in approxes[0].union._written_parts())
        return "\n".join(rows)
    from .svg import emit_svg  # loaded only for the one format that draws
    return emit_svg(approxes)


def _gaps(args) -> str:
    model = parse_spec(_spec_text(args))
    # each end is checked as the scan yields it, in the order it is
    # written, so a gap too large to write stops the scan there
    found = [
        (n, _check_writable(lo), _check_writable(hi))
        for n, (lo, hi) in _violations(model, args.depth)
    ]
    violations = [{"index": n, "gap": [format_rational(lo), format_rational(hi)]} for n, lo, hi in found]
    return _dump({"depth": args.depth, "violations": violations})


def _vna(args) -> str:
    model = from_algebra(parse_algebra(_spec_text(args)))
    certificate = kakeya_check(model)
    doc = convexity_to_doc(ConvexityVerdict(certificate.holds, certificate))
    doc["model"] = model_to_doc(model)
    return _dump(doc)


def _encode(args) -> str:
    model = radix_to_sequence(parse_word(args.word))
    doc = {"model": model_to_doc(model)}
    # a radix model is endless, so any count of terms is in its
    # support; each term is checked as it comes, as for ``gaps``
    count = _check_index(args.terms, 0, "count")
    terms = [_check_writable(x) for x in islice(model.iter_terms(), count)]
    doc["terms"] = [format_rational(x) for x in terms]
    return _dump(doc)


def _digits(args) -> str:
    word, target = parse_word(args.word), parse_rational(args.target)
    digits = mixed_radix_digits(word, target, args.count)
    return _dump({"word": word_to_doc(word), "target": format_rational(target), "digits": list(digits)})


# one entry per leaf parser, keyed by its name (``extreme`` by its mode);
# each entry looks its engines up in this module's globals at call time, so
# rebinding a name such as ``cli.kakeya_check`` reaches every command
_COMMANDS = {
    "check": lambda args: _dump(verdict_to_doc(kakeya_check(parse_spec(_spec_text(args))))),
    "expand": lambda args: _dump(
        expansion_to_doc(greedy_expand(parse_spec(_spec_text(args)), parse_rational(args.target), args.bits))
    ),
    "range": _range,
    "gaps": _gaps,
    "vna": _vna,
    "encode": _encode,
    "decode": lambda args: _dump(report_to_doc(sequence_to_radix(parse_spec(_spec_text(args))))),
    "digits": _digits,
}


def _failure(code: int, kind: str, exc: Exception) -> CommandResult:
    position = exc.position if isinstance(exc, ParseError) else None
    error = {"kind": kind, "message": str(exc), "position": position}
    if kind == "internal":  # a bare MemoryError has an empty message
        error["type"] = type(exc).__name__
    return CommandResult(code, _dump({"error": error}))


def run_command(argv) -> CommandResult:
    """Run one command line; never raises, never exits."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            args = _parse(list(argv))
        return CommandResult(0, _COMMANDS[getattr(args, "mode", args.command)](args))
    except SystemExit as stop:  # --help and --version land here
        return CommandResult(int(stop.code or 0), buffer.getvalue().rstrip("\n"))
    except TraceRangeError as exc:  # each class carries its exit code and kind
        return _failure(exc.exit_code, exc.kind, exc)
    except Exception as exc:  # safety net
        return _failure(1, "internal", exc)


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    try:
        if result.body:
            print(result.body, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe: devnull takes what is left of the
        # output, so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.exit_code
