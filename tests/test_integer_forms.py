"""Sums, closed forms and order tests made on integers.

The request path adds, multiplies and compares rationals on their integer
numerators and denominators and builds each answer value once, in lowest
terms. A seeded referee holds every such value to the plain ``Fraction``
arithmetic of ``bench/reference.py`` over the model's document, and three
counter contracts pin that cover, realize and command-line requests call
no ``Fraction`` operator from the package at all.
"""

import functools
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tracerange import (
    Interval,
    RadixWord,
    SequenceModel,
    SubsetSumOracle,
    achievable_outer,
    bits_to_digits,
    digits_to_bits,
    face_embed,
    greedy_expand,
    mixed_radix_digits,
    parse_spec,
    radix_to_sequence,
    run_command,
    sequence_to_radix,
    verify_expansion,
)
from tracerange.serialize import approximation_to_doc, expansion_to_doc, report_to_doc, word_to_doc

from support import REFEREE_MODELS, RUN_FORM_MODELS, document_seq, random_word, reference, run_cuts

F = Fraction


def same(got, want: Fraction) -> bool:
    """The same value, in lowest terms with a positive denominator, as
    plain ``Fraction`` arithmetic keeps it."""
    return type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)


class TestIntegerFormsReferee:
    @pytest.mark.parametrize("seed", range(4))
    def test_sums_and_terms_match_plain_fraction_arithmetic(self, seed):
        rng = random.Random(f"integer-forms:{seed}")
        for build in (*REFEREE_MODELS, *RUN_FORM_MODELS) * 5:
            model = build(rng)
            cuts = run_cuts(model, rng)
            seq = document_seq(model)
            terms, total = reference.terms(seq, max(cuts) + 1), reference.total(seq)
            assert same(model.total, total), model
            for n in cuts:
                head = sum(terms[:n], F(0))
                assert same(model.tail_sum(n), total - head), (model, n)
                assert same(model.partial_sum(n), head), (model, n)
                if 0 < n <= len(terms):
                    assert same(model.term(n), terms[n - 1]), (model, n)

    def test_tail_closed_forms_match_plain_fraction_arithmetic(self):
        rng = random.Random("tail-closed-forms")
        for build in (*REFEREE_MODELS, *RUN_FORM_MODELS) * 20:
            tail = build(rng).tail
            seq = document_seq(SequenceModel((), tail))
            if seq.finite:
                continue
            terms, total = reference.terms(seq, 41), reference.total(seq)
            assert same(tail.total, total), tail
            for j in (0, 1, 2, 3, 7, rng.randint(8, 39), rng.randint(1, 30)):
                # the sum after j by subtraction and by the reference's closed form
                after = total - sum(terms[:j], F(0))
                assert same(tail.sum_after(j), after), (tail, j)
                assert same(tail.sum_after(j), reference.tail_sum(seq, j)), (tail, j)
                assert same(tail.rest(j).total, after), (tail, j)
                assert same(tail.rest(j).term(1), terms[j]), (tail, j)
                if j:
                    assert same(tail.term(j), terms[j - 1]), (tail, j)


# Fraction's arithmetic, ordering and equality operators, with their reflections, and abs and unary minus
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__pow__", "__rpow__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__abs__", "__neg__",
)


def cover_specs(rng: random.Random) -> list[str]:
    """Cover-shaped specs: dyadic geometric, radix, finite lists of
    multiples of 1/d whose sums collide, Cantor-like geometric, and a
    prefix above a geometric tail."""
    specs = []
    for _ in range(6):
        k = rng.randint(0, 5)
        specs.append(f"geo({rng.randrange(1, 2**k + 1, 2)}/{2**k}, 1/2)")
        period = " ".join(str(rng.randint(2, 6)) for _ in range(rng.randint(1, 3)))
        specs.append(f"radix({rng.randint(1, 9)}/{rng.randint(1, 9)}; {rng.randint(2, 6)} | {period})")
        d = rng.choice((6, 8, 10, 12))
        values = sorted((F(rng.randint(1, d), d) for _ in range(rng.randint(4, 12))), reverse=True)
        specs.append(", ".join(f"{v.numerator}/{v.denominator}" for v in values))
        q = rng.randint(3, 9)
        specs.append(f"geo({rng.randint(1, 9)}/{rng.randint(1, 9)}, {rng.randint(1, (q - 1) // 2)}/{q})")
        specs.append(f"1, 1, 2/3, geo({rng.randint(1, 4)}/{rng.randint(7, 9)}, {rng.randint(1, 3)}/4)")
    return specs


def package_operator_calls(monkeypatch, requests) -> Counter:
    """The ``Fraction`` operator calls made from package frames while each
    callable of ``requests`` runs, by caller module and operator, once a
    first check has seen the spy count a call from ``Interval.length``."""
    calls = Counter()

    def counted(name, original):
        def spy(*args):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("tracerange."):
                calls[name, caller] += 1
            return original(*args)

        return spy

    # the spy does count: ``Interval.length`` subtracts in a package frame
    monkeypatch.setattr(Fraction, "__sub__", counted("__sub__", Fraction.__sub__))
    assert Interval(1, 3).length() == 2 and calls == {("__sub__", "tracerange.core"): 1}
    monkeypatch.undo()
    calls.clear()

    for name in OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    try:
        for request in requests:
            request()
    finally:
        monkeypatch.undo()
    return calls


def cover_request(spec: str, depth: int, points) -> None:
    model = parse_spec(spec)
    approx = achievable_outer(model, depth)
    approximation_to_doc(approx)
    [approx.union.contains(p) for p in points]
    gaps = approx.union.complement(Interval(0, model.total))
    [(part.lo, part.hi) for part in gaps]


class TestCoverCallsNoFractionOperator:
    """Counts, not times: a cover request, from its spec to its document,
    its point queries and its gaps, makes its sums and comparisons on
    integers, so no ``Fraction`` operator runs from a package frame."""

    def test_cover_requests_call_no_fraction_operator(self, monkeypatch):
        rng = random.Random("cover-counter")
        requests = []
        for spec in cover_specs(rng):
            for depth in range(2, 11):
                points = (F(0), F(rng.randint(0, 60), rng.randint(1, 30)), F(1, 3))
                requests.append(functools.partial(cover_request, spec, depth, points))
        calls = package_operator_calls(monkeypatch, requests)
        assert not calls, dict(calls)


def expand_request(model, target: Fraction, count: int) -> None:
    expansion = greedy_expand(model, target, count)
    verify_expansion(model, expansion.bits, target)
    expansion_to_doc(expansion)


def digits_request(word: RadixWord, target: Fraction, count: int) -> None:
    digits = mixed_radix_digits(word, target, count)
    bits_to_digits(digits_to_bits(digits, word), word)
    word_to_doc(word)


def decode_request(model, radix: int) -> None:
    report_to_doc(sequence_to_radix(face_embed(model, radix)))


def oracle_request(terms, targets) -> None:
    oracle = SubsetSumOracle(terms)
    for target in targets:
        oracle.witness(target)
        oracle.representable(target)


def realize_requests(rng: random.Random) -> list:
    """Realize-shaped requests: greedy expansions re-checked by
    ``verify_expansion`` over every referee and run-form model, mixed-radix
    digits and their bits, decodes of face embeddings (intact and with one
    term bent) and subset-sum oracle queries, hits, misses and off-lattice
    targets; each input is built before the spy is on."""
    requests = []
    for build in (*REFEREE_MODELS, *RUN_FORM_MODELS) * 6:
        model = build(rng)
        target = model.total * F(rng.randint(0, 1000), 1000)
        requests.append(functools.partial(expand_request, model, target, rng.randint(1, 80)))
    for _ in range(30):
        word = random_word(rng)
        requests.append(functools.partial(digits_request, word, F(rng.randint(0, 999), 999), rng.randint(1, 60)))
        model = radix_to_sequence(word)
        if rng.random() < 0.5:  # a block's last term bent, so the decoder finds a witness
            cut = sum(k - 1 for k in word.entries(rng.randint(1, 4)))
            terms = list(model.first_terms(cut))
            terms[-1] *= F(999, 1000)
            model = SequenceModel(tuple(terms), model.tail.rest(cut))
        requests.append(functools.partial(decode_request, model, rng.randint(2, 9)))
    for _ in range(30):
        den = rng.choice((24, 36, 48, 60))
        terms = sorted((F(rng.randint(1, den), den) for _ in range(rng.randint(4, 14))), reverse=True)
        hit = sum((a for a in terms if rng.random() < 0.5), F(0))
        targets = (hit, hit + F(1, 1009), sum(terms, F(1, den)), hit)
        requests.append(functools.partial(oracle_request, terms, targets))
    return requests


class TestRealizeCallsNoFractionOperator:
    """The same spy over realize-shaped requests: expansions and their
    check, digits, decodes and the subset-sum oracle build each value on
    integers too."""

    def test_realize_requests_call_no_fraction_operator(self, monkeypatch):
        requests = realize_requests(random.Random("realize-counter"))
        calls = package_operator_calls(monkeypatch, requests)
        assert not calls, dict(calls)


def word_text(word: RadixWord) -> str:
    pre, period = (" ".join(map(str, part)) for part in (word.pre, word.period))
    return f"{pre} | {period}" if pre else period


def algebra_text(rng: random.Random) -> str:
    """An algebra spec whose factor weights and tail sum to 1: one to four
    factors of random dimension sharing 1 - t, and a tail of total t that
    is geometric, a radix pattern or absent, so tail atoms fall both above
    and below the smallest factor atom."""
    t = rng.choice((F(0), F(1, 4), F(1, 3), F(1, 2)))
    shares = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
    factors = [
        {"dim": rng.randint(1, 9), "weight": str((1 - t) * share / sum(shares))} for share in shares
    ]
    doc = {"factors": factors}
    if t and rng.random() < 0.5:
        ratio = F(1, rng.randint(2, 5))
        first = t * (1 - ratio)
        doc["abelianTail"] = {"kind": "geometric", "first": str(first), "ratio": str(ratio)}
    elif t:
        word = random_word(rng)
        doc["abelianTail"] = {"kind": "radix", "scale": str(t), "pre": list(word.pre), "period": list(word.period)}
    return json.dumps(doc)


def cli_requests(rng: random.Random) -> list:
    """Command lines of all eight commands, each built before the spy is on:
    the cover specs through check, expand, range in json, csv and svg,
    gaps and decode (one also as its JSON document), radix words through
    encode and digits, and algebra specs through vna; each must succeed."""
    argvs = []
    for spec in cover_specs(rng)[:15]:
        depth = str(rng.randint(3, 8))
        argvs += [
            ["check", spec], ["expand", spec, str(parse_spec(spec).total * F(rng.randint(0, 9), 9)), "--bits", "12"],
            ["range", spec, "--depth", depth], ["range", spec, "--depth", depth, "--format", "csv"],
            ["range", spec, "--depth", f"2,{depth}", "--format", "svg"], ["gaps", spec, "--depth", "10"],
            ["extreme", "decode", spec],
        ]
    argvs.append(["check", '{"prefix": ["1/2", "1/3"], "tail": {"kind": "geometric", "first": "1/6", "ratio": "1/2"}}'])
    for _ in range(10):
        word = word_text(random_word(rng))
        argvs += [["extreme", "encode", word, "--terms", "12"], ["digits", word, f"{rng.randint(0, 7)}/7"]]
        argvs.append(["vna", algebra_text(rng)])
    return [functools.partial(cli_request, argv) for argv in argvs]


def cli_request(argv) -> None:
    result = run_command(argv)
    assert result.exit_code == 0, (argv, result.body)


class TestCliCallsNoFractionOperator:
    """The same spy over ``run_command``: every command, ``vna``'s algebra
    merge and the svg axis span included, builds its answer on integers."""

    def test_cli_requests_call_no_fraction_operator(self, monkeypatch):
        requests = cli_requests(random.Random("cli-counter"))
        calls = package_operator_calls(monkeypatch, requests)
        assert not calls, dict(calls)
