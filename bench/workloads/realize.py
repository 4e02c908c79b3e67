"""The ``realize`` workload: point questions on deep sequences.

Sequences come from seeded radix words and geometric tails. Five op kinds
share the list equally, each at five size levels and four shapes:

* ``expand``: greedy expansion of a random target over 50 to 1000 bits,
  re-checked by ``verify_expansion``;
* ``locate``: ``term``, ``tail_sum`` and ``split_leading`` at deep indices;
* ``digits``: mixed-radix digits and the digits/bits round trip;
* ``decode``: ``sequence_to_radix`` on face-embedded models, intact or with
  one term perturbed;
* ``oracle``: ``SubsetSumOracle.witness`` on 17 to 22 terms, which takes
  the meet-in-the-middle path.

Every op serializes its result. Sizes keep emitted rationals under
CPython's 4300-digit int/str limit, so no op here is expected to fail.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref
from reference import expect
from tracerange import core, extreme_points, range_geometry, representability, sequences, serialize

from .common import (
    Op,
    Result,
    in_rounds,
    jitter,
    make_rng,
    random_word,
    small_positive,
    unit_share,
)

NAME = "realize"
KINDS = ("expand", "locate", "digits", "decode", "oracle")
LEVELS = (0, 1, 2, 3, 4)
# Each shape fixes what drives an op's cost beyond its size level (ratio,
# radix range, denominator), so every seed gets the same cost profile.
SHAPES = (0, 1, 2, 3)
CELLS = tuple((kind, level, shape) for kind in KINDS for level in LEVELS for shape in SHAPES)
ROUND_LENGTH = len(CELLS)
OP_COUNT = 3000
_EXPAND_BITS = (50, 100, 200, 400, 800)
_EXPAND_RATIOS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
_LOCATE_INDEX = (100, 200, 400, 800, 1600)
_DIGIT_COUNT = (25, 50, 100, 200, 400)
_DECODE_BLOCKS = (2, 4, 8, 16, 24)
_ORACLE_TERMS = ((17, 18), (18, 19), (19, 20), (20, 21), (21, 22))
_ORACLE_DENOMINATORS = (24, 36, 48, 60)
_RADIX_RANGES = ((2, 3), (2, 5), (4, 7), (6, 9))


def _model(seq: ref.Seq):
    """The library model of a generated sequence (built during set-up)."""
    kind = seq.tail[0]
    if kind == "geo":
        tail = sequences.GeometricTail(seq.tail[1], seq.tail[2])
    elif kind == "radix":
        _, scale, pre, period = seq.tail
        tail = sequences.MixedRadixTail(scale, sequences.RadixWord(pre, period))
    else:
        tail = sequences.ZeroTail()
    return sequences.SequenceModel(seq.prefix, tail)


def _make(rng, kind: str, level: int, shape: int) -> Op:
    pre, period = random_word(rng, *_RADIX_RANGES[shape])
    radix = ref.Seq((), ("radix", Fraction(1), pre, period))
    if kind == "expand":
        if shape < len(_EXPAND_RATIOS):
            seq = ref.Seq((), ("geo", small_positive(rng), _EXPAND_RATIOS[shape]))
        else:
            seq = radix
        target = ref.total(seq) * unit_share(rng)
        return Op(kind, (seq, _model(seq), target, jitter(rng, _EXPAND_BITS[level])))
    if kind == "locate":
        if shape == 0:
            q = rng.randint(2, 9)
            seq = ref.Seq((), ("geo", small_positive(rng), Fraction(rng.randint(1, q - 1), q)))
        else:
            seq = radix
        return Op(kind, (seq, _model(seq), jitter(rng, _LOCATE_INDEX[level])))
    if kind == "digits":
        word = sequences.RadixWord(pre, period)
        return Op(kind, ((pre, period), word, unit_share(rng), jitter(rng, _DIGIT_COUNT[level])))
    if kind == "decode":
        blocks = jitter(rng, _DECODE_BLOCKS[level])
        values, scale, (rest_pre, rest_period) = ref.pattern_prefix(pre, period, blocks)
        face = rng.randint(2, 9)
        witness = None
        if shape % 2:
            block = rng.randint(1, blocks)
            last = sum(k - 1 for k in ref.word_entries(pre, period, block))
            values[last - 1] *= Fraction(999, 1000)
            witness = face - 1 + last
        seq = ref.Seq(tuple(values), ("radix", scale, rest_pre, rest_period))
        return Op(kind, (_model(seq), face, ((face,) + pre, period), witness))
    low, high = _ORACLE_TERMS[level]
    den = _ORACLE_DENOMINATORS[shape]
    values = sorted((Fraction(rng.randint(1, den), den) for _ in range(rng.randint(low, high))), reverse=True)
    target = sum((a for a in values if rng.random() < 0.5), Fraction(0))
    representable = rng.random() < 0.5
    if not representable:
        target += Fraction(1, 1009)  # no sum of multiples of 1/den has 1009 in its denominator
    return Op(kind, (tuple(values), target, representable))


def build(seed: int) -> list:
    rng = make_rng(NAME, seed)
    return in_rounds(rng, CELLS, _make, OP_COUNT)


def run(op: Op) -> Result:
    if op.kind == "expand":
        _, model, target, bits = op.inputs
        expansion = representability.greedy_expand(model, target, bits)
        residual = representability.verify_expansion(model, expansion.bits, target)
        text = json.dumps(serialize.expansion_to_doc(expansion))
        return Result(text, residual)
    if op.kind == "locate":
        _, model, n = op.inputs
        a = model.term(n)
        rest_sum = model.tail_sum(n)
        taken, rest = sequences.split_leading(model, n)
        doc = {
            "term": core.format_rational(a),
            "tailSum": core.format_rational(rest_sum),
            "rest": serialize.model_to_doc(rest),
        }
        return Result(json.dumps(doc), (len(taken), taken[-1]))
    if op.kind == "digits":
        _, word, target, count = op.inputs
        digits = extreme_points.mixed_radix_digits(word, target, count)
        bits = extreme_points.digits_to_bits(digits, word)
        back = extreme_points.bits_to_digits(bits, word)
        doc = {"word": serialize.word_to_doc(word), "digits": list(digits)}
        return Result(json.dumps(doc), back)
    if op.kind == "decode":
        model, radix, _, _ = op.inputs
        embedded = extreme_points.face_embed(model, radix)
        report = extreme_points.sequence_to_radix(embedded)
        return Result(json.dumps(serialize.report_to_doc(report)))
    values, target, _ = op.inputs
    witness = range_geometry.SubsetSumOracle(values).witness(target)
    doc = {"target": core.format_rational(target), "witness": None if witness is None else list(witness)}
    return Result(json.dumps(doc))


def _seq_from_doc(doc: dict) -> ref.Seq:
    prefix = tuple(Fraction(x) for x in doc["prefix"])
    tail = doc["tail"]
    if tail["kind"] == "geometric":
        return ref.Seq(prefix, ("geo", Fraction(tail["first"]), Fraction(tail["ratio"])))
    if tail["kind"] == "radix":
        return ref.Seq(prefix, ("radix", Fraction(tail["scale"]), tuple(tail["pre"]), tuple(tail["period"])))
    return ref.Seq(prefix)


def check(op: Op, result: Result) -> None:
    doc = json.loads(result.text)
    if op.kind == "expand":
        seq, _, target, bits = op.inputs
        values = ref.terms(seq, bits)
        expected = ref.greedy_bits(values, target)
        achieved = sum((a for a, b in zip(values, expected) if b), Fraction(0))
        expect(doc["bits"] == expected, "greedy bits differ")
        expect(Fraction(doc["achieved"]) == achieved, "wrong achieved sum")
        expect(Fraction(doc["residual"]) == target - achieved, "wrong residual")
        expect(Fraction(doc["residualBound"]) == ref.tail_sum(seq, bits), "wrong residual bound")
        expect(result.value == target - achieved, "verify_expansion disagrees with the residual")
    elif op.kind == "locate":
        seq, _, n = op.inputs
        a = ref.term(seq, n)
        expect(Fraction(doc["term"]) == a, f"wrong term({n})")
        expect(Fraction(doc["tailSum"]) == ref.tail_sum(seq, n), f"wrong tail_sum({n})")
        expect(result.value == (n, a), "split_leading took the wrong terms")
        rest = _seq_from_doc(doc["rest"])
        expect(ref.total(rest) == ref.tail_sum(seq, n), "split remainder has the wrong total")
        expect(ref.term(rest, 1) == ref.term(seq, n + 1), "split remainder starts at the wrong term")
    elif op.kind == "digits":
        (pre, period), _, target, count = op.inputs
        expected = ref.digits(pre, period, target, count)
        expect(doc["digits"] == expected, "wrong digits")
        expect(list(result.value) == expected, "digits/bits round trip changed the digits")
    elif op.kind == "decode":
        _, _, word, witness = op.inputs
        if witness is None:
            expect(doc["status"] == "extreme", f"expected extreme, got {doc['status']}")
            got = (tuple(doc["word"]["pre"]), tuple(doc["word"]["period"]))
            expect(ref.same_stream(got, word), "decoded the wrong word")
        else:
            expect(doc["status"] == "non_extreme", f"expected non_extreme, got {doc['status']}")
            expect(doc["witnessIndex"] == witness, "wrong witness index")
    else:
        values, target, representable = op.inputs
        witness = doc["witness"]
        expect(Fraction(doc["target"]) == target, "target not echoed")
        expect((witness is not None) == representable, "wrong representability")
        if witness is not None:
            expect(sum((a for a, b in zip(values, witness) if b), Fraction(0)) == target, "witness misses the target")
