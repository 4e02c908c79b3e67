"""Pieces shared by the workload generators.

Each workload module exposes ``build(seed)``, which returns its seeded op
list, and ``run(op)`` / ``check(op, result)``: ``run`` is the timed call
sequence into tracerange, ``check`` verifies the result by an independent
route outside the timed region. The op lists are built in rounds: every
round holds each (kind, size level) cell of the workload once, shuffled, so
any stretch of the list has the same mix whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from reference import Seq


@dataclass(frozen=True)
class Op:
    kind: str
    inputs: Any


@dataclass(frozen=True)
class Result:
    text: str  # the serialized output the op produced
    value: Any = None


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def in_rounds(rng: random.Random, cells: list, make: Callable, count: int) -> list:
    """At least ``count`` ops: whole shuffled rounds of ``make(rng, *cell)``."""
    ops: list = []
    while len(ops) < count:
        batch = [make(rng, *cell) for cell in cells]
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def jitter(rng: random.Random, level: int) -> int:
    """A size in [level, 1.25 * level]."""
    return level + rng.randrange(level // 4 + 1)


def unit_share(rng: random.Random) -> Fraction:
    """A rational in [0, 1] with a six-digit denominator."""
    return Fraction(rng.randrange(0, 10**6 + 1), 10**6)


def small_positive(rng: random.Random) -> Fraction:
    """A rational in (0, 1]."""
    den = rng.randint(1, 9)
    return Fraction(rng.randint(1, den), den)


def random_word(rng: random.Random, lo: int = 2, hi: int = 9) -> tuple:
    pre = tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, 2)))
    period = tuple(rng.randint(lo, hi) for _ in range(rng.randint(1, 3)))
    return pre, period


def dyadic_seq(rng: random.Random) -> Seq:
    """Geometric with ratio 1/2: complete, so every cover is one piece."""
    k = rng.randint(0, 5)
    return Seq((), ("geo", Fraction(rng.randrange(1, 2**k + 1, 2) if k else 1, 2**k), Fraction(1, 2)))


def radix_seq(rng: random.Random) -> Seq:
    """A mixed-radix pattern: complete, and equal terms inside each block."""
    pre, period = random_word(rng, 2, 6)
    return Seq((), ("radix", small_positive(rng), pre, period))


def cantor_seq(rng: random.Random) -> Seq:
    """Geometric with ratio below 1/2: every bracket stays its own piece."""
    q = rng.randint(3, 9)
    return Seq((), ("geo", small_positive(rng), Fraction(rng.randint(1, (q - 1) // 2), q)))


def complete_geo_seq(rng: random.Random) -> Seq:
    """Geometric with ratio in [1/2, 1) and a denominator of at most 9."""
    q = rng.randint(2, 9)
    return Seq((), ("geo", small_positive(rng), Fraction(rng.randint((q + 1) // 2, q - 1), q)))


def colliding_seq(rng: random.Random, length: int) -> Seq:
    """A finite list of multiples of 1/d, so many subset sums coincide."""
    d = rng.choice((6, 8, 10, 12))
    values = sorted((Fraction(rng.randint(1, d), d) for _ in range(length)), reverse=True)
    return Seq(tuple(values))
