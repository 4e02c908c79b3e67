"""Command line front end.

Every command reads exact rational input, works exactly, and prints a JSON
document (or CSV/SVG for ``range``). Exit codes are part of the contract:

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
from .errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .extreme_points import (
    mixed_radix_digits,
    radix_to_sequence,
    sequence_to_radix,
)
from .range_geometry import ConvexityVerdict, achievable_outer
from .representability import _violations, greedy_expand, kakeya_check
from .sequences import _check_index, from_algebra
from .serialize import (
    approximation_to_doc,
    convexity_to_doc,
    expansion_to_doc,
    model_to_doc,
    report_to_doc,
    verdict_to_doc,
    word_to_doc,
)


class CommandResult(_Record):
    _fields = ("exit_code", "body")

    def __init__(self, exit_code: int, body: str):
        self.__dict__.update(exit_code=exit_code, body=body)


class _Parser(argparse.ArgumentParser):
    """argparse that reports malformed argv as ParseError instead of exiting."""

    def error(self, message):
        raise ParseError(message)


def _add_spec_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", help="sequence spec (DSL or JSON)")
    parser.add_argument("--file", help="read the spec from a file instead")


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    parser = _Parser(prog="tracerange", description="exact subset-sum ranges of trace sequences")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

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
    mode = extreme.add_subparsers(dest="mode", required=True)
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


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _parse_depths(raw: str) -> list[int]:
    depths = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece or not (piece.isdigit() or (piece[0] == "-" and piece[1:].isdigit())):
            raise ParseError(f"--depth must be integers separated by commas, got {raw!r}")
        depths.append(int(piece))
    return depths


def _run_range(args) -> str:
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


def _dispatch(args) -> str:
    if args.command == "check":
        model = parse_spec(_spec_text(args))
        return _dump(verdict_to_doc(kakeya_check(model)))
    if args.command == "expand":
        model = parse_spec(_spec_text(args))
        target = parse_rational(args.target)
        return _dump(expansion_to_doc(greedy_expand(model, target, args.bits)))
    if args.command == "range":
        return _run_range(args)
    if args.command == "gaps":
        model = parse_spec(_spec_text(args))
        # each end is checked as the scan yields it, in the order it is
        # written, so a gap too large to write stops the scan there
        found = [
            (n, _check_writable(lo), _check_writable(hi))
            for n, (lo, hi) in _violations(model, args.depth)
        ]
        doc = {
            "depth": args.depth,
            "violations": [
                {
                    "index": n,
                    "gap": [format_rational(lo), format_rational(hi)],
                }
                for n, lo, hi in found
            ],
        }
        return _dump(doc)
    if args.command == "vna":
        model = from_algebra(parse_algebra(_spec_text(args)))
        certificate = kakeya_check(model)
        doc = convexity_to_doc(ConvexityVerdict(certificate.holds, certificate))
        doc["model"] = model_to_doc(model)
        return _dump(doc)
    if args.command == "extreme":
        if args.mode == "encode":
            word = parse_word(args.word)
            model = radix_to_sequence(word)
            doc = {"model": model_to_doc(model)}
            # a radix model is endless, so any count of terms is in its
            # support; each term is checked as it comes, as for ``gaps``
            count = _check_index(args.terms, 0, "count")
            terms = [_check_writable(x) for x in islice(model.iter_terms(), count)]
            doc["terms"] = [format_rational(x) for x in terms]
            return _dump(doc)
        model = parse_spec(_spec_text(args))
        return _dump(report_to_doc(sequence_to_radix(model)))
    assert args.command == "digits"
    word = parse_word(args.word)
    target = parse_rational(args.target)
    doc = {
        "word": word_to_doc(word),
        "target": format_rational(target),
        "digits": list(mixed_radix_digits(word, target, args.count)),
    }
    return _dump(doc)


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
            args = _parser().parse_args(list(argv))
    except SystemExit as stop:  # --help and --version land here
        return CommandResult(int(stop.code or 0), buffer.getvalue().rstrip("\n"))
    except ParseError as exc:
        return _failure(3, "parse", exc)
    try:
        return CommandResult(0, _dispatch(args))
    except ParseError as exc:
        return _failure(3, "parse", exc)
    except ResourceLimitError as exc:
        return _failure(2, "resource", exc)
    except ValidationError as exc:
        return _failure(1, "validation", exc)
    except DomainError as exc:
        return _failure(1, "domain", exc)
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
