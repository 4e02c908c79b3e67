"""Command line front end.

Every command reads exact rational input, works exactly, and prints a JSON
document (or CSV/SVG for ``range``). ``_COMMANDS`` maps each command (and
each mode of ``extreme``) to the one function that builds its model, runs
its engine and returns its answer, which ``run_command`` alone writes. Exit
codes are part of the contract, and each error class of ``errors`` carries
its own code and ``kind``:

* 0 - success
* 1 - the input parsed but was rejected (validation or domain errors)
* 2 - a resource bound was exceeded
* 3 - the input could not be parsed at all

Failures print a JSON object with a single ``error`` field carrying ``kind``,
``message``, and ``position`` (character offset for parse errors, else null),
so scripts can always dispatch on the same shape; an ``"internal"`` fault
also names its exception ``type``. Output for a given argv is byte for byte
deterministic.

Resource bounds are fixed rows of one table, ``core._CEILINGS``, not
options: ``range`` refuses a cover whose fold would hold more than 2^16
pieces, ``vna`` an algebra whose merged prefix would hold more than 100,000
atoms, ``digits`` a count above 100,000, ``expand`` more than 1,000,000
steps, ``gaps`` and ``extreme encode`` a list of more than 1,000,000
rationals, and every command a command line that argparse reads with more
than 5,000 entries starting with "-". Each command reads its engines
through the package when it runs, so a launch loads only its own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .core import (
    QUOTE_WINDOW, _Record, _check_ceiling, _quoted, _read_int, _written, format_rational, parse_rational,
)
from .dsl import parse_algebra, parse_spec, parse_word
from .errors import ParseError, ResourceLimitError, TraceRangeError
from .sequences import _check_index, from_algebra
from .serialize import (
    approximation_to_doc, convexity_to_doc, expansion_to_doc, model_to_doc,
    report_to_doc, verdict_to_doc, word_to_doc,
)

# the package, imported before any of its modules: an engine module read
# through it (``_engines.range_geometry``) is imported on its first read
_engines = sys.modules[__package__]


class CommandResult(_Record):
    _fields = ("exit_code", "body")

    def __init__(self, exit_code: int, body: str):
        self.__dict__.update(exit_code=exit_code, body=body)


class _Parser(argparse.ArgumentParser):
    """argparse that reports malformed argv as ParseError instead of exiting,
    and reads plain argv (see ``read_plain``) from its own actions."""

    commands = None  # the action ``add_subparsers`` returned, if any

    def __init__(self, *args, **kwargs):
        # what ``add_argument`` recorded (``__init__`` adds ``-h`` through it):
        # every action, the positionals in order, the one-value store options
        # by each of their strings, and whether ``read_plain`` may read argv
        self.actions, self.positionals, self.options, self.plain = [], [], {}, True
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions.append(action)
        store = kwargs.get("action") in (None, "store")
        if not action.option_strings:
            self.positionals.append(action)
            self.plain &= store and action.nargs in (None, "?")
        elif store and action.nargs is None:
            self.options.update(dict.fromkeys(action.option_strings, action))
        # argparse refuses a required option that is absent, and passes an
        # absent option's str default through its ``type``; the reader does neither
        self.plain &= not (action.option_strings and action.required)
        self.plain &= not (isinstance(action.default, str) and action.type is not None)
        return action

    def read_plain(self, argv: list[str], namespace: argparse.Namespace) -> bool:
        """Read ``argv`` into ``namespace`` as ``parse_args`` would, if it is
        plain, and say whether it was. Plain is exactly this parser's
        positionals, then ``--option value`` pairs, each option an exact
        string of a one-value store option, and no value starting with "-";
        each value must pass its action's ``type`` and ``choices``. Any other
        argv leaves ``namespace`` untouched, for argparse to answer."""
        count = len(self.positionals)
        if not self.plain or self.commands is not None or len(argv) < count or (len(argv) - count) % 2:
            return False
        pairs = [*zip(self.positionals, argv), *zip(map(self.options.get, argv[count::2]), argv[count + 1 :: 2])]
        read = []
        for action, text in pairs:
            if action is None or text[:1] == "-":
                return False
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return False
            if action.choices is not None and value not in action.choices:
                return False
            read.append((action.dest, value))
        for action in self.actions:
            dest, default = action.dest, action.default
            if dest is not argparse.SUPPRESS and default is not argparse.SUPPRESS and not hasattr(namespace, dest):
                setattr(namespace, dest, default)
        for dest, value in read:
            setattr(namespace, dest, value)
        return True

    def parse_args(self, args=None, namespace=None):
        """argparse's own parse; what ``--help`` and ``--version`` print is
        kept off stdout and carried by their ``SystemExit`` as ``printed``.
        An error quotes each entry of ``args``, and its value after "=" or
        "-x", by ``_quoted`` where argparse would echo it whole, and so the
        list of unrecognized arguments, joined as argparse joins it."""
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            try:
                namespace, extra = self.parse_known_args(args, namespace)
                if extra:
                    self.error(f"unrecognized arguments: {_quoted(' '.join(extra), str)}")
                return namespace
            except SystemExit as stop:
                stop.printed = printed.getvalue()
                raise
            except ParseError as exc:
                message = str(exc)
                texts = {text for e in args for text in (e, e.partition("=")[2], e[2:]) if len(text) > QUOTE_WINDOW}
                # the longest first, so no text is cut inside a longer one
                for text in sorted(texts, key=len, reverse=True):
                    message = message.replace(repr(text), _quoted(text)).replace(text, _quoted(text, str))
                raise ParseError(message) from None

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
    each leading command name as argparse's subparser action would. The
    parser reached reads the rest itself if it is plain; any other argv
    (empty, an option first, an unknown name, help, ``--opt=value``, ...)
    takes that parser's ``parse_args``, so help, version and error text are
    unchanged. argparse's parse is quadratic in the option strings, so argv
    with more entries starting with "-" than the options row of
    ``core._CEILINGS`` is refused before it."""
    for entry in argv:
        if not isinstance(entry, str):  # argparse would raise TypeError on it
            raise ParseError(f"command line entries must be str, got {type(entry).__name__}")
    parser, args = _parser(), argparse.Namespace()
    while parser.commands is not None and argv and argv[0] in parser.commands.choices:
        setattr(args, parser.commands.dest, argv[0])
        parser = parser.commands.choices[argv[0]]
        argv = argv[1:]
    if parser.read_plain(argv, args):
        return args
    _check_ceiling("options", sum(entry[:1] == "-" for entry in argv))
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
            raise ResourceLimitError(f"cannot read {_quoted(path, str)}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {path} as UTF-8: {exc.reason} at byte {exc.start}") from None
    if inline is None:
        raise ParseError("missing spec: pass it inline or with --file")
    return inline


def _model(args):
    return parse_spec(_spec_text(args))


def _write_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for what a document
    holds: dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and
    ``None``. Anything else raises ``TypeError``, and an ``int`` past the
    int-to-text digit limit the ``ValueError`` that ``json`` raises. ``pad``
    is the newline and indent written before the value's closing bracket."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _write_json(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_write_json(item, inner) for item in value]) + pad + "]"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# every document is written as ``json.dumps(doc, indent=2, sort_keys=True)``
# writes it. Before 3.13 ``json`` indents only in pure-Python generators, and
# ``_write_json`` writes the same bytes in about half their time; from 3.13
# ``json`` indents in C and is the faster, so there one encoder serves every
# document, with no cycle check, as each document is a fresh tree.
if sys.version_info < (3, 13):
    _dump = _write_json
else:
    _dump = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False).encode


def _parse_depths(raw: str) -> list[int]:
    depths, malformed = [], f"--depth must be integers separated by commas, got {_quoted(raw)}"
    for piece in raw.split(","):
        piece = piece.strip()
        # ``isdecimal`` holds for exactly the digits ``int`` reads: "٣" but not "²"
        if not piece or not (piece.isdecimal() or (piece[0] == "-" and piece[1:].isdecimal())):
            raise ParseError(malformed)
        depths.append(_read_int(piece, malformed))  # refused past the digit limit
    return depths


def _range(args) -> dict | str:
    model = _model(args)
    depths = _parse_depths(args.depth)
    if args.format in ("json", "csv") and len(depths) != 1:
        raise ParseError("json and csv output take a single depth")
    approxes = [_engines.range_geometry.achievable_outer(model, depth) for depth in depths]
    if args.format == "json":
        return approximation_to_doc(approxes[0])
    if args.format == "csv":
        rows = ["lo,hi"]
        rows.extend(f"{lo},{hi}" for lo, hi in approxes[0].union._written_parts())
        return "\n".join(rows)
    return _engines.svg.emit_svg(approxes)  # loaded only for the one format that draws


def _gaps(args) -> dict:
    model = _model(args)
    # ``_written`` reads the ends as the scan yields them, in the order they
    # are written, so a gap too large to write stops the scan there; the
    # indices wait in the tee until the text is built
    found, indices = itertools.tee(_engines.representability._violations(model, args.depth))
    ends = iter(_written(itertools.chain.from_iterable(gap for _, gap in found)))
    violations = [{"index": n, "gap": [lo, hi]} for (n, _), lo, hi in zip(indices, ends, ends)]
    return {"depth": args.depth, "violations": violations}


def _vna(args) -> dict:
    model = from_algebra(parse_algebra(_spec_text(args)))
    certificate = _engines.representability.kakeya_check(model)
    verdict = _engines.range_geometry.ConvexityVerdict(certificate.holds, certificate)
    return {**convexity_to_doc(verdict), "model": model_to_doc(model)}


def _encode(args) -> dict:
    model = _engines.extreme_points.radix_to_sequence(parse_word(args.word))
    doc = {"model": model_to_doc(model)}
    # a radix model is endless, so any count of terms is in its support;
    # ``_written`` checks each term as it comes, as for ``gaps``, so a count
    # past what can be written stops at the first term too large to write,
    # or once one term past the entries ceiling is read
    count = _check_index(args.terms, 0, "count")
    doc["terms"] = _written(x for _, x in zip(range(count), model.iter_terms()))
    return doc


def _digits(args) -> dict:
    word, target = parse_word(args.word), parse_rational(args.target)
    digits = _engines.extreme_points.mixed_radix_digits(word, target, args.count)
    return {"word": word_to_doc(word), "target": format_rational(target), "digits": list(digits)}


# one entry per leaf parser, keyed by its name (``extreme`` by its mode),
# that returns its answer: a document, or the csv or svg text of ``range``.
# Each reads its engines off their home modules when it runs, so a launch
# loads only its own, and a name rebound at home reaches every entry
_COMMANDS = {
    "check": lambda args: verdict_to_doc(_engines.representability.kakeya_check(_model(args))),
    "expand": lambda args: expansion_to_doc(
        _engines.representability.greedy_expand(_model(args), parse_rational(args.target), args.bits)
    ),
    "range": _range,
    "gaps": _gaps,
    "vna": _vna,
    "encode": _encode,
    "decode": lambda args: report_to_doc(_engines.extreme_points.sequence_to_radix(_model(args))),
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
    try:
        args = _parse(list(argv))
        answer = _COMMANDS[getattr(args, "mode", args.command)](args)
        return CommandResult(0, answer if type(answer) is str else _dump(answer))
    except SystemExit as stop:  # --help and --version land here, with what they printed
        return CommandResult(int(stop.code or 0), getattr(stop, "printed", "").rstrip("\n"))
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
