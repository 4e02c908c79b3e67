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
the equivalent JSON document instead.

Parse errors carry the character position where reading failed.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .core import _unread_integer, parse_rational
from .errors import ParseError
from .sequences import (
    AlgebraSpec,
    GeometricTail,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    TailModel,
    ZeroTail,
)
from .serialize import algebra_from_doc, model_from_doc, word_from_doc

_RATIONAL = re.compile(r"-?\d+(?:/-?\d+)?")
_INTEGER = re.compile(r"\d+")
_NAME = re.compile(r"[A-Za-z_]+")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def match(self, pattern: re.Pattern) -> Optional[str]:
        self.skip_ws()
        found = pattern.match(self.text, self.pos)
        if found is None:
            return None
        self.pos = found.end()
        return found.group()


def _parse_rational_token(cur: _Cursor):
    token = cur.match(_RATIONAL)
    if token is None:
        raise ParseError("expected a rational number", cur.pos)
    try:
        return parse_rational(token)
    except ParseError as exc:
        # a token past the interpreter's integer digit limit lands here
        raise ParseError(str(exc), cur.pos - len(token)) from None


def _parse_int_token(cur: _Cursor) -> int:
    token = cur.match(_INTEGER)
    if token is None:
        raise ParseError("expected an integer", cur.pos)
    try:
        return int(token)
    except ValueError:
        raise _unread_integer(token, "expected an integer", cur.pos - len(token)) from None


def _parse_word_body(cur: _Cursor) -> RadixWord:
    """Integers with an optional '|' separating head from period."""
    groups: list[list[int]] = [[]]
    while True:
        cur.skip_ws()
        ch = cur.peek()
        if ch == "|":
            if len(groups) == 2:
                raise ParseError("a word may contain only one '|'", cur.pos)
            cur.pos += 1
            groups.append([])
        elif ch.isdigit():
            groups[-1].append(_parse_int_token(cur))
        else:
            break
    if not groups[-1]:
        raise ParseError("expected a period after '|'" if len(groups) == 2 else "expected a radix word", cur.pos)
    pre, period = groups if len(groups) == 2 else ([], groups[0])
    return RadixWord(tuple(pre), tuple(period))


# a tail call's name -> (separator, reader of its second argument, tail built from both)
_TAIL_CALLS = {"geo": (",", _parse_rational_token, GeometricTail), "radix": (";", _parse_word_body, MixedRadixTail)}


def _parse_tail_call(cur: _Cursor, name: str, name_pos: int) -> TailModel:
    if name not in _TAIL_CALLS:
        raise ParseError(f"unknown tail '{name}'", name_pos)
    separator, read_second, build = _TAIL_CALLS[name]
    cur.expect("(")
    first = _parse_rational_token(cur)
    cur.expect(separator)
    second = read_second(cur)
    cur.expect(")")
    return build(first, second)


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _unread_integer(text, f"malformed integer {text!r}") from None


def _load_json(text: str):
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None


def parse_spec(text: str) -> SequenceModel:
    """A sequence model from its DSL or JSON form."""
    if text.lstrip().startswith("{"):
        return model_from_doc(_load_json(text))
    cur = _Cursor(text)
    prefix = []
    tail: TailModel = ZeroTail()
    while True:
        cur.skip_ws()
        name_pos = cur.pos
        name = cur.match(_NAME)
        if name is not None:
            tail = _parse_tail_call(cur, name, name_pos)
            break
        prefix.append(_parse_rational_token(cur))
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            continue
        break
    if not cur.at_end():
        raise ParseError("unexpected trailing input", cur.pos)
    return SequenceModel(tuple(prefix), tail)


def parse_word(text: str) -> RadixWord:
    """A radix word from its DSL or JSON form."""
    if text.lstrip().startswith("{"):
        return word_from_doc(_load_json(text))
    cur = _Cursor(text)
    word = _parse_word_body(cur)
    if not cur.at_end():
        raise ParseError("unexpected trailing input", cur.pos)
    return word


def parse_algebra(text: str) -> AlgebraSpec:
    """An algebra spec; JSON only, there is no shorthand for these."""
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        raise ParseError("an algebra spec must be a JSON object", 0)
    return algebra_from_doc(_load_json(text))
