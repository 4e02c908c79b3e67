"""The ``cover`` workload: one outer-cover request per op.

Each op parses a spec, builds the depth-N cover, serializes it, then asks a
few point queries and one gap listing. Four model kinds are mixed in equal
shares: complete dyadic geometric and radix models, whose 2^N brackets
collapse to one piece; Cantor-like geometric models (ratio below 1/2), whose
2^N brackets stay 2^N pieces; and finite lists with colliding sums. Depths
stay within the default 24-term bound.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref
from reference import expect
from tracerange import core, dsl, range_geometry, serialize

from .common import (
    Op,
    Result,
    cantor_seq,
    colliding_seq,
    dyadic_seq,
    in_rounds,
    make_rng,
    radix_seq,
    unit_share,
)

NAME = "cover"
KINDS = ("dyadic", "radix", "cantor", "finite")
DEPTHS = tuple(range(2, 11))
CELLS = tuple((kind, depth) for kind in KINDS for depth in DEPTHS)
ROUND_LENGTH = len(CELLS)
OP_COUNT = 3000


def _make(rng, kind: str, depth: int) -> Op:
    if kind == "dyadic":
        seq = dyadic_seq(rng)
    elif kind == "radix":
        seq = radix_seq(rng)
    elif kind == "cantor":
        seq = cantor_seq(rng)
    else:
        # depth runs past the support now and then, which the engine clamps
        seq = colliding_seq(rng, depth + 2)
        depth += rng.randint(0, 2)
    values = ref.terms(seq, ref.cover_cut(seq, depth))
    total = ref.total(seq)
    points = [sum((a for a in values if rng.random() < 0.5), Fraction(0)) for _ in range(2)]
    points.append(total * unit_share(rng))
    if kind == "cantor":
        points.append((ref.tail_sum(seq, 1) + values[0]) / 2)  # inside the first gap
    return Op(kind, (seq, seq.spec(), depth, tuple(points)))


def build(seed: int) -> list:
    rng = make_rng(NAME, seed)
    return in_rounds(rng, CELLS, _make, OP_COUNT)


def run(op: Op) -> Result:
    _, spec, depth, points = op.inputs
    model = dsl.parse_spec(spec)
    approx = range_geometry.achievable_outer(model, depth)
    text = json.dumps(serialize.approximation_to_doc(approx))
    hits = [approx.union.contains(p) for p in points]
    gaps = approx.union.complement(core.Interval(0, model.total))
    return Result(text, (hits, [(g.lo, g.hi) for g in gaps]))


def check(op: Op, result: Result) -> None:
    seq, _, depth, points = op.inputs
    doc = json.loads(result.text)
    pieces = [(Fraction(lo), Fraction(hi)) for lo, hi in doc["intervals"]]
    expected = ref.cover(seq, depth)
    expect(pieces == expected, f"cover of {seq.spec()} at depth {depth} differs")
    expect(doc["depth"] == depth, "depth not echoed")
    expect(doc["exact"] == ref.cover_exact(seq, depth), "wrong exactness flag")
    expect(Fraction(doc["totalLength"]) == sum(hi - lo for lo, hi in expected), "wrong total length")
    hits, gaps = result.value
    expect(hits == [ref.member(expected, p) for p in points], "wrong point membership")
    expect(gaps == ref.gaps_within(expected, Fraction(0), ref.total(seq)), "wrong gap listing")
