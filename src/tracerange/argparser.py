"""The argparse parsers of the command line, built from ``cli._GRAMMAR``.

``cli`` reads a plain command line from its row of the grammar itself and
builds these only for any other (``--help``, ``--version``, ``--opt=value``,
an abbreviated option, an argv error), so this module, and ``argparse``
with it, is loaded on that route alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re

from .core import QUOTE_WINDOW, _quoted
from .errors import ParseError


class _Parser(argparse.ArgumentParser):
    """argparse that reports malformed argv as ParseError instead of exiting,
    and wraps help at 78 columns, as it does with no terminal and no COLUMNS."""

    def parse_args(self, args=None, namespace=None):
        """argparse's own parse; what ``--help`` and ``--version`` print is
        carried off stdout by their ``SystemExit`` as ``printed``. An error
        quotes each entry of ``args``, its value after "=" or "-x", and the
        unrecognized arguments as argparse joins them, by ``_quoted``."""
        # "-hTEXT" is refused as "-h=TEXT" is on every version, where 3.13 would print help
        cut = args.index("--") if "--" in args else len(args)
        args = [re.sub(r"^-h+(?=[^-=h])", "-h=", e) if e[:2] == "-h" else e for e in args[:cut]] + args[cut:]
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

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=78)


def build(grammar: dict) -> dict:
    """The parser of each row of ``grammar``, by its path, from the row's
    first two fields: its help (the top level's description) and its
    arguments, each a name and the keywords of its ``add_argument`` call,
    where ``"parsers"`` marks the subcommand action that the rows below it
    fill."""
    parsers, commands = {}, {}
    for path, (text, arguments, *_) in grammar.items():
        parser = parsers[path] = (
            commands[path[:-1]].add_parser(path[-1], help=text) if path
            else _Parser(prog="tracerange", description=text)
        )
        for name, keywords in arguments:
            if keywords.get("action") == "parsers":
                commands[path] = parser.add_subparsers(dest=name, required=keywords.get("required", False))
            else:
                parser.add_argument(name, **keywords)
    return parsers
