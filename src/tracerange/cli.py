"""Command line front end.

Every command reads exact rational input, works exactly, and prints a JSON
document (or CSV/SVG for ``range``). A plain argv is read from its row of
``_GRAMMAR``; only any other loads ``argparser``, which builds argparse from
the rows, so a plain launch loads neither (nor ``json`` and ``readers``
unless its input is JSON). The leaf row of each command (and each mode of
``extreme``) holds the one function that builds its model, runs its engine
and returns its answer, which ``run_command`` alone writes, its documents
by ``writers``; a process launch ends through ``__main__``. Exit codes are
part of the contract, and each error class of ``errors`` carries its own
code and ``kind``:

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

import itertools
import os
import sys
from _json import encode_basestring_ascii  # the C escaper that ``json.encoder`` re-exports, without ``json``
from functools import lru_cache
from types import SimpleNamespace

from . import __version__
from .core import _Record, _check_ceiling, _quoted, _read_int, _written, format_rational, parse_rational
from .dsl import parse_algebra, parse_spec, parse_word
from .errors import ParseError, ResourceLimitError, TraceRangeError
from .sequences import _check_index
from .writers import (
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


def _plain_row(arguments):
    """A row's arguments as ``_read_plain`` reads them: the positionals and
    the options by name, each as its dest (its name, less dashes), ``type``
    and ``choices``, then each dest's default; None where it cannot stand
    in: another action or ``nargs``, a required option, a typed str default."""
    readers, defaults = {}, {}
    for name, keywords in arguments:
        option, get = name[:1] == "-", keywords.get
        if (get("action", "store") != "store" or get("nargs") not in ((None,) if option else (None, "?"))
                or option and get("required") or isinstance(get("default"), str) and get("type") is not None):
            return None
        readers[name] = (name.lstrip("-"), get("type"), get("choices"))
        defaults[name.lstrip("-")] = get("default")
    positionals = [readers.pop(name) for name, _ in arguments if name[:1] != "-"]
    return positionals, readers, defaults


def _read_plain(row, argv: list[str], args) -> bool:
    """Read ``argv`` into ``args`` as argparse would by ``row`` if it is
    plain, else leave ``args`` as it was, and say which. Plain is exactly the
    positionals, then ``--option value`` pairs, each option an exact name, no
    value starting with "-", and each value passing its ``type`` and ``choices``."""
    if row is None:
        return False
    positionals, options, defaults = row
    count = len(positionals)
    if len(argv) < count or (len(argv) - count) % 2:
        return False
    read = {}
    for reader, text in [*zip(positionals, argv), *zip(map(options.get, argv[count::2]), argv[count + 1 :: 2])]:
        if reader is None or text[:1] == "-":
            return False
        dest, kind, choices = reader
        try:
            read[dest] = value = text if kind is None else kind(text)
        except (TypeError, ValueError):  # what argparse catches from a type, but its own ArgumentTypeError
            return False
        if choices is not None and value not in choices:
            return False
    vars(args).update({**defaults, **vars(args), **read})  # a default under what ``args`` already holds
    return True


@lru_cache(maxsize=1)
def _parser() -> dict:
    """The argparse parser of each row of ``_GRAMMAR``, by its path, for
    any argv but a plain one: built by ``argparser``, the one module that
    imports argparse, which no other route loads."""
    from .argparser import build
    return build(_GRAMMAR)


def _parse(argv: list[str]):
    """``_parser()[()].parse_args(argv)``: each leading command name steps
    into its row, as argparse's subcommand action would, and the row reached
    reads a plain rest; any other takes the row's parser. That parse is
    quadratic in the option strings, so more entries starting with "-" than
    the options row of ``core._CEILINGS`` are refused before it."""
    for entry in argv:
        if not isinstance(entry, str):  # argparse would raise TypeError on it
            raise ParseError(f"command line entries must be str, got {type(entry).__name__}")
    path, args = (), SimpleNamespace()
    while argv and path + (argv[0],) in _GRAMMAR:
        setattr(args, _STEPS[path], argv[0])
        path, argv = path + (argv[0],), argv[1:]
    if _read_plain(_PLAIN[path], argv, args):
        return args
    _check_ceiling("options", sum(entry[:1] == "-" for entry in argv))
    return _parser()[path].parse_args(argv, args)


def _spec_text(args) -> str:
    inline, path = getattr(args, "spec", None), getattr(args, "file", None)
    if inline is not None and path is not None:
        raise ParseError("give the spec inline or with --file, not both")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ResourceLimitError(f"cannot read {_quoted(path, str)}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {_quoted(path, str)} as UTF-8: {exc.reason} at byte {exc.start}") from None
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


# the one writer of every document, by a name apart from the one ``_write_json``
# recurses by, so a wrapper put in place of ``_dump`` sees whole documents only
_dump = _write_json


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
        return "\n".join(["lo,hi", *(f"{lo},{hi}" for lo, hi in approxes[0].union._written_parts())])
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
    model = _engines.range_geometry.from_algebra(parse_algebra(_spec_text(args)))
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


_FILE = ("--file", {"help": "read the spec from a file instead"})
_SPEC = (("spec", {"nargs": "?", "help": "sequence spec (DSL or JSON)"}), _FILE)
_WORD = ("word", {"help": "radix word, e.g. '3 | 2' or '2'"})

# the command line, one row per parser keyed by its command path: its help
# (the top level's description), its arguments, each a name and the keywords
# of its ``add_argument`` call, and on a leaf row its command, which returns
# the answer: a document, or the csv or svg text of ``range``. ``"parsers"``,
# argparse's own name for the subcommand action, marks the argument the rows
# below it fill. Each command reads its engines off their home modules when
# it runs, so a launch loads only its own, and a name rebound at home
# reaches every command
_GRAMMAR = {
    (): ("exact subset-sum ranges of trace sequences", (
        ("--version", {"action": "version", "version": f"%(prog)s {__version__}"}),
        ("command", {"action": "parsers", "required": True}),
    )),
    ("check",): ("test the completeness condition", _SPEC,
                 lambda args: verdict_to_doc(_engines.representability.kakeya_check(_model(args)))),
    ("expand",): ("greedy bit expansion of a target value", (
        *_SPEC, ("target", {"help": "rational target, e.g. 1/3"}),
        ("--bits", {"type": int, "default": 32, "help": "number of bits (default 32)"}),
    ), lambda args: expansion_to_doc(
        _engines.representability.greedy_expand(_model(args), parse_rational(args.target), args.bits)
    )),
    ("range",): ("outer approximation of the achievable set", (
        *_SPEC,
        ("--depth", {"default": "8", "help": "terms to expand, comma separated for several svg bands (default 8)"}),
        ("--format", {"choices": ("json", "csv", "svg"), "default": "json"}),
    ), _range),
    ("gaps",): ("violating indices with their gap certificates", (
        *_SPEC, ("--depth", {"type": int, "default": 16, "help": "indices to scan (default 16)"}),
    ), _gaps),
    ("vna",): ("convexity of an algebra's trace range", (
        ("spec", {"nargs": "?", "help": "algebra spec (JSON)"}), _FILE,
    ), _vna),
    ("extreme",): ("extreme sequences and radix words", (("mode", {"action": "parsers", "required": True}),)),
    ("extreme", "encode"): ("the pattern sequence of a radix word", (
        _WORD, ("--terms", {"type": int, "default": 20, "help": "terms to list (default 20)"}),
    ), _encode),
    ("extreme", "decode"): ("decode a sequence back to its radix word", _SPEC,
                            lambda args: report_to_doc(_engines.extreme_points.sequence_to_radix(_model(args)))),
    ("digits",): ("mixed-radix digits of a rational", (
        _WORD, ("target", {"help": "rational in [0, 1]"}),
        ("--count", {"type": int, "default": 20, "help": "digits to emit (default 20)"}),
    ), _digits),
}
_PLAIN = {path: _plain_row(row[1]) for path, row in _GRAMMAR.items()}
# the dest each subcommand step sets, by the path it steps from
_STEPS = {path: name for path, row in _GRAMMAR.items() for name, kw in row[1] if kw.get("action") == "parsers"}


def _failure(code: int, kind: str, exc: Exception) -> CommandResult:
    position = exc.position if isinstance(exc, ParseError) else None
    error = {"kind": kind, "message": str(exc), "position": position}
    if kind == "internal":  # a bare MemoryError has an empty message
        error["type"] = type(exc).__name__
    return CommandResult(code, _dump({"error": error}))


def run_command(argv) -> CommandResult:
    """Run one command line; never raises, never exits."""
    try:
        args, path = _parse(list(argv)), ()
        while path in _STEPS:  # the command, then the mode of ``extreme``
            path += (getattr(args, _STEPS[path]),)
        answer = _GRAMMAR[path][2](args)
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
