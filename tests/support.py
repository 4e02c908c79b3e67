"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

import hypothesis.strategies as st

from tracerange import (
    AlgebraSpec,
    GeometricTail,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    ZeroTail,
    face_embed,
    from_algebra,
)
from tracerange import core

HALF = Fraction(1, 2)
# a cover of 2^N pieces at depth N, with endpoints of tens of thousands of
# bits and a span of 1
HUGE_ENDPOINTS = f"1/2, 4/10, geo(9/{10**4000 - 1}, 1/{10**2000})"


def set_ceiling(monkeypatch, row: str, ceiling: int) -> None:
    """Patch the ceiling of row ``row`` of ``core._CEILINGS`` for one test,
    keeping its refusal text."""
    monkeypatch.setitem(core._CEILINGS, row, (ceiling, core._CEILINGS[row][1]))


def dyadic() -> SequenceModel:
    """1/2, 1/4, 1/8, ... as a geometric tail."""
    return SequenceModel((), GeometricTail(HALF, HALF))


def all_threes() -> SequenceModel:
    """1/3, 1/3, 1/9, 1/9, 1/27, ... as a radix tail."""
    return SequenceModel((), MixedRadixTail(Fraction(1), RadixWord((), (3,))))


def cantor_like() -> SequenceModel:
    """2/3, 2/9, 2/27, ...: every term overshoots what follows it."""
    return SequenceModel((), GeometricTail(Fraction(2, 3), Fraction(1, 3)))


def scale_model(model: SequenceModel, factor: Fraction) -> SequenceModel:
    """Multiply every term by a positive factor."""
    tail = model.tail
    if isinstance(tail, GeometricTail):
        tail = GeometricTail(tail.first * factor, tail.ratio)
    elif isinstance(tail, MixedRadixTail):
        tail = MixedRadixTail(tail.scale * factor, tail.radices)
    return SequenceModel(tuple(x * factor for x in model.prefix), tail)


def random_fraction(rng: random.Random, lo: Fraction, hi: Fraction, grain: int = 16) -> Fraction:
    """A rational between lo and hi on a grid of ``grain`` steps."""
    return lo + (hi - lo) * Fraction(rng.randint(0, grain), grain)


def random_complete_model(rng: random.Random, max_prepend: int = 4) -> SequenceModel:
    """A model satisfying the completeness condition, built backwards.

    Start from a tail that satisfies the condition on its own (geometric with
    ratio at least 1/2, or any radix pattern), then repeatedly prepend a term
    between the current first term and the current total. Each prepend keeps
    the condition: the new term is at most the sum of everything after it.
    """
    kind = rng.randrange(3)
    if kind == 0:
        ratio = rng.choice([HALF, Fraction(2, 3), Fraction(3, 4), Fraction(3, 5)])
        first = Fraction(1, rng.randint(1, 6))
        model = SequenceModel((), GeometricTail(first, ratio))
    elif kind == 1:
        word = random_word(rng)
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        model = SequenceModel((), MixedRadixTail(scale, word))
    else:
        model = SequenceModel((), GeometricTail(HALF, HALF))
    for _ in range(rng.randrange(max_prepend + 1)):
        first = model.first_terms(1)[0]
        term = random_fraction(rng, first, model.total, grain=8)
        model = SequenceModel((term,) + model.prefix, model.tail)
    return model


def random_unit_admissible_model(rng: random.Random) -> SequenceModel:
    """A model with total exactly 1 in which every term fits under what
    remains of 1: a complete model rescaled to total 1."""
    model = random_complete_model(rng)
    return scale_model(model, 1 / model.total)


def random_word(rng: random.Random, max_pre: int = 3, max_period: int = 3, max_entry: int = 5) -> RadixWord:
    pre = tuple(rng.randint(2, max_entry) for _ in range(rng.randrange(max_pre + 1)))
    period = tuple(rng.randint(2, max_entry) for _ in range(rng.randint(1, max_period)))
    return RadixWord(pre, period)


def random_finite_model(rng: random.Random, min_terms: int = 1, max_terms: int = 8) -> SequenceModel:
    count = rng.randint(min_terms, max_terms)
    terms = sorted(
        (Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(count)),
        reverse=True,
    )
    return SequenceModel(tuple(terms), ZeroTail())


def random_colliding_model(rng: random.Random, max_terms: int = 12) -> SequenceModel:
    """A finite model drawn from a few unit fractions, so many subset sums
    coincide."""
    values = [Fraction(1, d) for d in (2, 3, 4, 6, 12)]
    terms = sorted((rng.choice(values) for _ in range(rng.randint(1, max_terms))), reverse=True)
    return SequenceModel(tuple(terms), ZeroTail())


def random_cantor_model(rng: random.Random) -> SequenceModel:
    """A geometric model with ratio below 1/2: every term overshoots what
    follows it, so covers keep splitting."""
    ratio = rng.choice([Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(3, 7)])
    return SequenceModel((), GeometricTail(Fraction(1, rng.randint(1, 6)), ratio))


def random_radix_model(rng: random.Random) -> SequenceModel:
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    return SequenceModel((), MixedRadixTail(scale, random_word(rng)))


def random_prefixed_model(rng: random.Random, max_prefix: int = 4) -> SequenceModel:
    """A short prefix lifted above the first term of a Cantor-like or radix
    tail, so the junction holds but the condition may fail anywhere."""
    tail = rng.choice([random_cantor_model, random_radix_model])(rng).tail
    floor = tail.term(1)
    raw = [random_fraction(rng, Fraction(0), Fraction(2), grain=12) for _ in range(rng.randint(1, max_prefix))]
    return SequenceModel(tuple(sorted((x + floor for x in raw), reverse=True)), tail)


REFEREE_MODELS = (
    random_complete_model,
    lambda rng: random_finite_model(rng, max_terms=12),
    random_colliding_model,
    random_cantor_model,
    random_radix_model,
    random_prefixed_model,
)


def _embeddable(rng: random.Random) -> SequenceModel:
    """A referee model, scaled down to a leading term of 1 when it opens above 1."""
    model = REFEREE_MODELS[rng.randrange(len(REFEREE_MODELS))](rng)
    lead = model.first_terms(1)[0]
    return scale_model(model, 1 / lead) if lead > 1 else model


def random_embedded_model(rng: random.Random) -> SequenceModel:
    """A face embedding at radix 2 to 40: a run of radix - 1 equal terms
    before the scaled referee model."""
    return face_embed(_embeddable(rng), rng.randint(2, 40))


def random_nested_embedding(rng: random.Random) -> SequenceModel:
    """Two or three face embeddings in a row, a run from each."""
    model = _embeddable(rng)
    for _ in range(rng.randint(2, 3)):
        model = face_embed(model, rng.randint(2, 40))
    return model


def random_algebra_merge(rng: random.Random) -> SequenceModel:
    """``from_algebra`` over one to three factors of dims 2 to 50, whose atoms
    may repeat across factors, and a tail holding the rest of the trace."""
    factors = [MatrixFactor(rng.randint(2, 50), Fraction(1, rng.choice((4, 8, 12)))) for _ in range(rng.randint(1, 3))]
    rest = 1 - sum(f.weight for f in factors)
    tail = rng.choice(
        [
            GeometricTail(rest / 2, HALF),
            GeometricTail(rest / 3, Fraction(2, 3)),
            MixedRadixTail(rest, random_word(rng)),
        ]
    )
    return from_algebra(AlgebraSpec(tuple(factors), tail))


# models whose prefixes hold long runs, built from runs; apart from
# REFEREE_MODELS, so the seeds that draw those keep their models
RUN_FORM_MODELS = (random_embedded_model, random_nested_embedding, random_algebra_merge)


def run_cuts(model: SequenceModel, rng: random.Random) -> list[int]:
    """Cuts at each prefix run's end, one before and one after it, one at a
    random slot inside it, and a few past the prefix/tail junction."""
    cuts, start = {0}, 0
    for _, count in model._runs:
        end = start + count
        cuts |= {end - 1, end, end + 1, rng.randint(start + 1, end)}
        start = end
    return sorted(cuts | {start + 2, start + 7})


def fraction_terms(model: SequenceModel, count: int) -> list[Fraction]:
    """The first ``count`` terms by a plain ``Fraction`` loop: the prefix,
    then a geometric tail multiplied by its ratio term by term, or a radix
    tail's scale divided by the running product of its radices, each block
    repeated radix - 1 times."""
    terms = list(model.prefix)
    tail = model.tail
    if isinstance(tail, GeometricTail):
        x = tail.first
        while len(terms) < count:
            terms.append(x)
            x = x * tail.ratio
    elif isinstance(tail, MixedRadixTail):
        prod = 1
        for k in tail.radices.iter_entries():
            if len(terms) >= count:
                break
            prod *= k
            terms.extend([tail.scale / prod] * (k - 1))
    return terms[:count]


def fraction_decode(model: SequenceModel, count: int) -> tuple[list[int], Optional[int]]:
    """The decoder stepped over the first ``count`` terms of
    ``fraction_terms``, one term at a time: the radices of the blocks peeled
    whole inside them, and the first index where no pattern matches, or None
    when there is none among them.

    A block opens at a term a with a * mult = 1/k for an integer k >= 2,
    mult the product of the radices before it, and holds k - 1 copies of a;
    a run longer than that breaks at the next block's first term, whose
    rescaled value is 1."""
    terms = fraction_terms(model, count)
    radices, mult, n = [], 1, 1  # n is the index read next
    while n <= count:
        if n > len(terms):
            return radices, n
        a = terms[n - 1]
        k = 1 / (a * mult)
        if k.denominator != 1 or k < 2:
            return radices, n
        for _ in range(int(k) - 1):
            if n > count:
                return radices, None
            if n > len(terms) or terms[n - 1] != a:
                return radices, n
            n += 1
        radices.append(int(k))
        mult *= int(k)
    return radices, None


def fraction_greedy(model: SequenceModel, target: Fraction, bit_count: int):
    """The greedy rule stepped over ``Fraction`` terms: (bits, achieved,
    residual, tail left after the last step)."""
    residual, remaining, achieved = Fraction(target), model.total, Fraction(0)
    bits = []
    for a in itertools.islice(model.iter_terms(), bit_count):
        remaining -= a
        take = residual >= a
        if take:
            residual -= a
            achieved += a
        bits.append(int(take))
    return tuple(bits), achieved, residual, remaining


def fraction_verify(model: SequenceModel, bits, target: Fraction) -> Fraction:
    """|target - sum of the terms the bits select|, summed as ``Fraction``s."""
    chosen = sum((a for a, b in zip(model.iter_terms(), bits) if b), Fraction(0))
    return abs(Fraction(target) - chosen)


def fraction_digits(word: RadixWord, target: Fraction, count: int) -> tuple[int, ...]:
    """Mixed-radix digits by a ``Fraction`` floor at each place value."""
    residual, prod, digits = Fraction(target), 1, []
    for k in itertools.islice(word.iter_entries(), count):
        prod *= k
        d = min(math.floor(residual * prod), k - 1)
        residual -= Fraction(d, prod)
        digits.append(d)
    return tuple(digits)


def fraction_violations(model: SequenceModel, depth: int, sigma=0):
    """``(n, (sigma + tail after n, a_n))`` for each n <= depth with a_n
    above sigma plus the tail after it, stepped over ``Fraction`` terms."""
    found, remaining = [], model.total
    for n, a in enumerate(itertools.islice(model.iter_terms(), depth), start=1):
        remaining -= a
        if a > sigma + remaining:
            found.append((n, (sigma + remaining, a)))
    return found


def fraction_coalesce(pairs) -> list[tuple[Fraction, Fraction]]:
    """Closed ``(lo, hi)`` pairs sorted, with overlapping or touching ones
    merged, over ``Fraction``s."""
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def fraction_fold(model: SequenceModel, cut: int) -> list[tuple[Fraction, Fraction]]:
    """The cover at ``cut`` by every fold step, from the cut down to 1, over
    ``Fraction``s: start from [0, tail after the cut] and merge in a copy
    shifted by each term."""
    pieces = [(Fraction(0), model.tail_sum(cut))]
    for a in reversed(model.first_terms(cut)):
        pieces = fraction_coalesce(pieces + [(lo + a, hi + a) for lo, hi in pieces])
    return pieces


def fraction_complement(pieces, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Closure of [lo, hi] minus coalesced ``pieces``: scan for the open
    gaps, then coalesce them."""
    gaps, cursor = [], lo
    for a, b in pieces:
        if cursor < a:
            gaps.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        gaps.append((cursor, hi))
    return fraction_coalesce(gaps)


def fraction_member(pieces, point: Fraction) -> bool:
    return any(a <= point <= b for a, b in pieces)


def fraction_length(pieces) -> Fraction:
    return sum((b - a for a, b in pieces), Fraction(0))


mixed_grid_points = st.builds(
    Fraction, st.integers(min_value=0, max_value=12), st.sampled_from([1, 2, 3, 4, 6, 7])
)


@st.composite
def interval_pairs(draw, max_size: int = 10) -> list[tuple[Fraction, Fraction]]:
    """Closed ``(lo, hi)`` pairs whose endpoints come from a small pool of
    mixed-denominator points, so endpoints repeat and points occur."""
    pool = draw(st.lists(mixed_grid_points, min_size=1, max_size=6))
    ends = st.sampled_from(pool)
    drawn = draw(st.lists(st.tuples(ends, ends), max_size=max_size))
    return [(min(a, b), max(a, b)) for a, b in drawn]


fractions_positive = st.builds(
    Fraction, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=9)
)

fractions_nonnegative = st.builds(
    Fraction, st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=9)
)

radix_words = st.builds(
    RadixWord,
    st.lists(st.integers(min_value=2, max_value=5), max_size=3).map(tuple),
    st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3).map(tuple),
)

geometric_ratios = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(2, 5)]
)

tails = st.one_of(
    st.just(ZeroTail()),
    st.builds(GeometricTail, fractions_positive, geometric_ratios),
    st.builds(MixedRadixTail, fractions_positive, radix_words),
)


@st.composite
def models(draw) -> SequenceModel:
    """Arbitrary valid models: tail first, then a prefix lifted above the
    tail's first term so the junction always holds."""
    tail = draw(tails)
    if isinstance(tail, ZeroTail):
        floor = Fraction(0)
    elif isinstance(tail, GeometricTail):
        floor = tail.first
    else:
        floor = tail.term(1)
    raw = draw(st.lists(fractions_nonnegative, max_size=4))
    prefix = tuple(sorted((x + floor for x in raw), reverse=True))
    if isinstance(tail, ZeroTail):
        prefix = tuple(x for x in prefix if x > 0)
    return SequenceModel(prefix, tail)


@st.composite
def finite_models(draw) -> SequenceModel:
    raw = draw(st.lists(fractions_positive, min_size=1, max_size=8))
    return SequenceModel(tuple(sorted(raw, reverse=True)), ZeroTail())
