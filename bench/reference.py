"""Independent reference math for checking benchmark answers.

Nothing here imports tracerange. Every answer the benchmark checks is
recomputed by a route that shares no code with the engine under test:
closed forms that jump whole radix periods instead of walking blocks,
set-based subset sums instead of the sorted merge, integer-only digit
expansion, and a plain greedy loop. The checkers raise ``Mismatch`` for a
wrong answer and ``Failure`` when the program gave no answer at all.
"""

from __future__ import annotations

import contextlib
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


class Mismatch(Exception):
    """The program answered, and the answer is wrong."""


class Failure(Exception):
    """The program gave no answer where one was due (an internal fault)."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@contextlib.contextmanager
def unlimited_digits():
    """Lift CPython's int/str digit limit for a check, restoring it after.

    Only checks run under this; the program under test always runs with the
    interpreter's default limit, so its own handling of huge rationals shows.
    """
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def word_text(pre: tuple, period: tuple) -> str:
    body = " ".join(map(str, period))
    return f"{' '.join(map(str, pre))} | {body}" if pre else body


@dataclass(frozen=True)
class Seq:
    """A sequence as the benchmark generates it: explicit prefix plus a tail
    given as ("zero",), ("geo", first, ratio) or ("radix", scale, pre, period)."""

    prefix: tuple = ()
    tail: tuple = ("zero",)

    def spec(self) -> str:
        """The sequence in the inline spec grammar."""
        parts = [fmt(x) for x in self.prefix]
        kind = self.tail[0]
        if kind == "geo":
            parts.append(f"geo({fmt(self.tail[1])}, {fmt(self.tail[2])})")
        elif kind == "radix":
            _, scale, pre, period = self.tail
            parts.append(f"radix({fmt(scale)}; {word_text(pre, period)})")
        return ", ".join(parts)

    @property
    def finite(self) -> bool:
        return self.tail[0] == "zero"


def word_entry(pre: tuple, period: tuple, n: int) -> int:
    if n <= len(pre):
        return pre[n - 1]
    return period[(n - len(pre) - 1) % len(period)]


def word_entries(pre: tuple, period: tuple, count: int) -> list:
    return [word_entry(pre, period, n) for n in range(1, count + 1)]


def _radix_block(pre: tuple, period: tuple, j: int):
    """For local index j of a radix tail: (product of radices up to and
    including j's block, slots of that block left after j), by jumping
    whole periods."""
    prod = 1
    for k in pre:
        if j <= k - 1:
            return prod * k, k - 1 - j
        j -= k - 1
        prod *= k
    slots = sum(k - 1 for k in period)
    whole = (j - 1) // slots
    prod_period = 1
    for k in period:
        prod_period *= k
    prod *= prod_period**whole
    j -= whole * slots
    for k in period:
        if j <= k - 1:
            return prod * k, k - 1 - j
        j -= k - 1
        prod *= k
    raise AssertionError("unreachable")


def total(seq: Seq) -> Fraction:
    kind = seq.tail[0]
    rest = ZERO
    if kind == "geo":
        rest = seq.tail[1] / (1 - seq.tail[2])
    elif kind == "radix":
        rest = seq.tail[1]
    return sum(seq.prefix, ZERO) + rest


def term(seq: Seq, n: int):
    """Term n (1-based), or None past the end of a finite sequence."""
    if n <= len(seq.prefix):
        return seq.prefix[n - 1]
    j = n - len(seq.prefix)
    kind = seq.tail[0]
    if kind == "geo":
        return seq.tail[1] * seq.tail[2] ** (j - 1)
    if kind == "radix":
        _, scale, pre, period = seq.tail
        return scale / _radix_block(pre, period, j)[0]
    return None


def tail_sum(seq: Seq, n: int) -> Fraction:
    """Sum of the terms after index n."""
    if n <= len(seq.prefix):
        return sum(seq.prefix[n:], ZERO) + total(Seq((), seq.tail))
    j = n - len(seq.prefix)
    kind = seq.tail[0]
    if kind == "geo":
        first, ratio = seq.tail[1], seq.tail[2]
        return first * ratio**j / (1 - ratio)
    if kind == "radix":
        _, scale, pre, period = seq.tail
        prod, left = _radix_block(pre, period, j)
        return (left + 1) * scale / prod
    return ZERO


def terms(seq: Seq, count: int) -> list:
    """The first ``count`` terms (fewer on a finite sequence)."""
    out = list(seq.prefix[:count])
    kind = seq.tail[0]
    if kind == "geo":
        value = seq.tail[1]
        while len(out) < count:
            out.append(value)
            value *= seq.tail[2]
    elif kind == "radix":
        _, scale, pre, period = seq.tail
        n = 1
        prod = 1
        while len(out) < count:
            k = word_entry(pre, period, n)
            prod *= k
            out.extend([scale / prod] * min(k - 1, count - len(out)))
            n += 1
    return out


def pattern_prefix(pre: tuple, period: tuple, blocks: int, scale=Fraction(1)):
    """Explicit terms of the first ``blocks`` blocks of a radix pattern, and
    the word and scale of the pattern that continues after them."""
    out = []
    prod = 1
    for n in range(1, blocks + 1):
        k = word_entry(pre, period, n)
        prod *= k
        out.extend([scale / prod] * (k - 1))
    if blocks <= len(pre):
        rest = (pre[blocks:], period)
    else:
        offset = (blocks - len(pre)) % len(period)
        rest = ((), period[offset:] + period[:offset])
    return out, scale / prod, rest


def first_violation(seq: Seq):
    """Least n with term(n) > tail_sum(n), or None when there is none."""
    for n in range(1, len(seq.prefix) + 1):
        if seq.prefix[n - 1] > tail_sum(seq, n):
            return n
    if seq.tail[0] == "geo" and seq.tail[2] < Fraction(1, 2):
        return len(seq.prefix) + 1
    return None


def violations(seq: Seq, depth: int) -> list:
    """Every n <= depth (within the support) with term(n) > tail_sum(n)."""
    limit = min(depth, len(seq.prefix)) if seq.finite else depth
    found = []
    for n in range(1, limit + 1):
        a, rest = term(seq, n), tail_sum(seq, n)
        if a > rest:
            found.append((n, rest, a))
    return found


def cover_cut(seq: Seq, depth: int) -> int:
    return min(depth, len(seq.prefix)) if seq.finite else depth


def cover(seq: Seq, depth: int) -> list:
    """Union of [s, s + tail] over the distinct subset sums s of the first
    terms, as sorted, merged (lo, hi) pairs."""
    cut = cover_cut(seq, depth)
    sums = {ZERO}
    for a in terms(seq, cut):
        sums |= {s + a for s in sums}
    slack = tail_sum(seq, cut)
    merged: list = []
    for s in sorted(sums):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s + slack)
        else:
            merged.append([s, s + slack])
    return [(lo, hi) for lo, hi in merged]


def cover_exact(seq: Seq, depth: int) -> bool:
    """Whether the cover at this depth is the whole achievable set: the
    sequence left after the cut satisfies the condition on its own."""
    cut = cover_cut(seq, depth)
    if cut <= len(seq.prefix):
        rest = Seq(seq.prefix[cut:], seq.tail)
        return (not rest.prefix and rest.finite) or first_violation(rest) is None
    if seq.tail[0] == "geo":
        return seq.tail[2] >= Fraction(1, 2)
    # a radix pattern cut anywhere meets term <= sum after, with equality at
    # block ends
    return True


def member(pieces: list, point) -> bool:
    idx = bisect_right([lo for lo, _ in pieces], point) - 1
    return idx >= 0 and pieces[idx][1] >= point


def gaps_within(pieces: list, lo, hi) -> list:
    """Closure of [lo, hi] minus the pieces; gaps that meet at an isolated
    point coalesce across it."""
    out: list = []
    cursor = lo
    for a, b in pieces + [(hi, hi)]:
        if cursor < a:
            if out and out[-1][1] == cursor:
                out[-1] = (out[-1][0], a)
            else:
                out.append((cursor, a))
        cursor = b
    return out


def greedy_bits(values: list, target: Fraction) -> list:
    bits = []
    residual = target
    for a in values:
        take = residual >= a
        bits.append(int(take))
        if take:
            residual -= a
    return bits


def digits(pre: tuple, period: tuple, target: Fraction, count: int) -> list:
    """Greedy mixed-radix digits in integer arithmetic only."""
    num, den = target.numerator, target.denominator
    out = []
    for n in range(1, count + 1):
        k = word_entry(pre, period, n)
        num *= k
        d = min(num // den, k - 1)
        num -= d * den
        out.append(d)
    return out


def same_stream(a: tuple, b: tuple) -> bool:
    """Two eventually periodic words (pre, period) denote the same stream.

    Past both heads, the streams repeat with period lcm(p, q) <= p * q, so
    comparing that many entries beyond the longer head decides it.
    """
    length = max(len(a[0]), len(b[0])) + len(a[1]) * len(b[1]) * 2
    return word_entries(*a, length) == word_entries(*b, length)
