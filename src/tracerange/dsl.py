"""Compact text forms for sequence specs, radix words, and algebras.

The sequence grammar:

    spec  := json-object | entries | entries ',' tailcall | tailcall
    entries := rational (',' rational)*
    tailcall := 'geo' '(' rational ',' rational ')'
              | 'radix' '(' rational ';' word ')'
    word  := int+ | int* '|' int+

so ``1/2, 1/4, 1/4`` is a finite sequence, ``geo(1/2, 1/2)`` the halving
sequence, ``1/3, 1/3, geo(1/6, 1/2)`` a prefix with a geometric tail, and
``radix(1; 3 | 2)`` the pattern of the word 3, 2, 2, 2, ... A word without
a bar is taken as fully periodic. Anything starting with '{' is parsed as
the equivalent JSON document instead, read by ``readers``, which only that
route and ``parse_algebra`` load; JSON nested past the interpreter's
recursion limit is refused as a parse failure.

Each token is read once, by one compiled pattern that reads the whitespace
before it as well; a prefix entry is one match with the comma after it. An
entry written as the one before it joins that entry's run unread.

Parse errors carry the character position where reading failed.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import _quoted, _read_int, _read_rational
from .errors import ParseError
from .sequences import (
    GeometricTail,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    TailModel,
    ZeroTail,
    _from_runs,
)

if TYPE_CHECKING:  # read only in an annotation, so the algebras' module is not loaded
    from .range_geometry import AlgebraSpec

# the package: the JSON readers are read through it (``_package.readers``),
# which imports them on their first read
_package = sys.modules[__package__]

_WS = re.compile(r"\s*")
# a rational token, with its numerator's and denominator's texts
_TOKEN = r"\s*(?P<token>(?P<num>-?\d+)(?:/(?P<den>-?\d+))?)"
_RATIONAL = re.compile(_TOKEN)
# a prefix entry: a tail call's name, or a rational token and the comma after it, if any
_ENTRY = re.compile(rf"\s*(?P<name>[A-Za-z_]+)|{_TOKEN}\s*(?P<comma>,?)")
# an item of a radix word: an integer or the bar
_WORD_ITEM = re.compile(r"\s*(?:(?P<int>\d+)|(?P<bar>\|))")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next non-whitespace character, "" at the end; the cursor moves to it."""
        self.pos = _WS.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def read(self, pattern: re.Pattern, what: str) -> re.Match:
        """The match of ``pattern`` at the cursor, which moves past it; when
        there is none, ``expected <what>`` at the first non-whitespace."""
        found = pattern.match(self.text, self.pos)
        if found is None:
            self.peek()
            raise ParseError(f"expected {what}", self.pos)
        self.pos = found.end()
        return found


def _rational(found: re.Match) -> Fraction:
    """The value of a ``_TOKEN`` match, refused at the token's start past the digit limit."""
    return _read_rational(found["num"], found["den"], "expected a rational number", found.start("token"))


def _parse_rational_token(cur: _Cursor) -> Fraction:
    return _rational(cur.read(_RATIONAL, "a rational number"))


def _parse_word_body(cur: _Cursor) -> RadixWord:
    """Integers with an optional '|' separating head from period."""
    groups: list[list[int]] = [[]]
    while (found := _WORD_ITEM.match(cur.text, cur.pos)) is not None:
        if found.lastgroup == "bar":
            if len(groups) == 2:
                raise ParseError("a word may contain only one '|'", found.start("bar"))
            groups.append([])
        else:
            groups[-1].append(_read_int(found["int"], "expected an integer", found.start("int")))
        cur.pos = found.end()
    if cur.peek().isdigit():  # a digit that ``int`` does not read, such as "²"
        raise ParseError("expected an integer", cur.pos)
    if not groups[-1]:
        raise ParseError("expected a period after '|'" if len(groups) == 2 else "expected a radix word", cur.pos)
    pre, period = groups if len(groups) == 2 else ([], groups[0])
    return RadixWord(tuple(pre), tuple(period))


# a tail call's name -> (separator, reader of its second argument, tail built from both)
_TAIL_CALLS = {"geo": (",", _parse_rational_token, GeometricTail), "radix": (";", _parse_word_body, MixedRadixTail)}


def _parse_tail_call(cur: _Cursor, name: str, name_pos: int) -> TailModel:
    if name not in _TAIL_CALLS:
        raise ParseError(f"unknown tail {_quoted(name)}", name_pos)
    separator, read_second, build = _TAIL_CALLS[name]
    cur.expect("(")
    first = _parse_rational_token(cur)
    cur.expect(separator)
    second = read_second(cur)
    cur.expect(")")
    return build(first, second)


def parse_spec(text: str) -> SequenceModel:
    """A sequence model from its DSL or JSON form."""
    if text.lstrip().startswith("{"):
        readers = _package.readers
        return readers.model_from_doc(readers._load_json(text))
    cur = _Cursor(text)
    runs: list[list] = []  # [value, count] per run of entries written alike
    token = None
    tail: TailModel = ZeroTail()
    while True:
        found = cur.read(_ENTRY, "a rational number")
        if found["name"]:
            tail = _parse_tail_call(cur, found["name"], found.start("name"))
            break
        if found["token"] == token:
            runs[-1][1] += 1
        else:
            token = found["token"]
            runs.append([_rational(found), 1])
        if not found["comma"]:
            break
    if cur.peek():
        raise ParseError("unexpected trailing input", cur.pos)
    return _from_runs(runs, tail)


def parse_word(text: str) -> RadixWord:
    """A radix word from its DSL or JSON form."""
    if text.lstrip().startswith("{"):
        readers = _package.readers
        return readers.word_from_doc(readers._load_json(text))
    cur = _Cursor(text)
    word = _parse_word_body(cur)
    if cur.peek():
        raise ParseError("unexpected trailing input", cur.pos)
    return word


def parse_algebra(text: str) -> AlgebraSpec:
    """An algebra spec; JSON only, there is no shorthand for these."""
    if not text.lstrip().startswith("{"):
        raise ParseError("an algebra spec must be a JSON object", 0)
    readers = _package.readers
    return readers.algebra_from_doc(readers._load_json(text))
