"""The ``cli`` workload: small requests through ``cli.run_command``.

All 8 commands run in process at default-sized arguments, including
``range --format svg``. One request in 32 is a malformed spec (must exit
3), one an over-bound depth (must exit 2) and one a valid request whose
answer holds huge rationals, such as
``gaps "geo(1/2, 1/10^1000)" --depth 6``. That last one must end in an exact
answer or a ``resource`` refusal; an ``internal`` envelope counts as a
failed op. The engines do little here, so argument parsing, the spec
grammar, serialization and the import dominate.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref
from reference import Failure, Seq, expect, fmt, unlimited_digits, word_text
from tracerange import cli as trcli

from .common import (
    Op,
    Result,
    cantor_seq,
    colliding_seq,
    complete_geo_seq,
    dyadic_seq,
    in_rounds,
    make_rng,
    radix_seq,
    random_word,
    unit_share,
)

NAME = "cli"
OP_COUNT = 6000
FAMILIES = 6  # model families of _any_seq
RANGE_DEPTHS = (2, 4, 6, 8)
# (command, variant) cells of one round; the variant fixes the model family
# (and the depth of a json range), so every seed has the same share of
# heavy requests and the same tail
ROUND = tuple(
    (kind, variant)
    for kind, count in (
        ("check", 32), ("expand", 32), ("range", 24), ("range_csv", 8), ("range_svg", 8),
        ("gaps", 24), ("vna", 24), ("encode", 24), ("decode", 24), ("digits", 32),
        ("malformed", 8), ("overbound", 8), ("huge", 8),
    )
    for variant in range(count)
)
ROUND_LENGTH = len(ROUND)
DEFAULT_DEPTH = 8
DEFAULT_GAPS_DEPTH = 16
DEFAULT_BITS = 32
DEFAULT_TERMS = 20
DEFAULT_COUNT = 20


def _any_seq(rng, family: int) -> Seq:
    if family == 0:
        return dyadic_seq(rng)
    if family == 1:
        return radix_seq(rng)
    if family == 2:
        return cantor_seq(rng)
    if family == 3:
        return complete_geo_seq(rng)
    if family == 4:
        return colliding_seq(rng, rng.randint(4, 10))
    tail = complete_geo_seq(rng).tail
    lead = tuple(sorted((tail[1] * (1 + unit_share(rng)) for _ in range(rng.randint(1, 3))), reverse=True))
    return Seq(lead, tail)


def _algebra(rng):
    """A factor spec (JSON text) and its merged atom sequence, by hand."""
    den = rng.choice((12, 24, 30))
    with_tail = rng.random() < 0.75
    parts = rng.randint(1, 3)
    budget = den - 1 if with_tail else den
    cuts = sorted(rng.sample(range(1, budget), parts - 1)) if parts > 1 else []
    shares = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
    factors = [(rng.randint(1, 4), Fraction(s, den)) for s in shares]
    atoms = [w / d for d, w in factors for _ in range(d)]
    doc = {"factors": [{"dim": d, "weight": fmt(w)} for d, w in factors], "abelianTail": None}
    if not with_tail:
        return json.dumps(doc), Seq(tuple(sorted(atoms, reverse=True)))
    q = rng.randint(2, 6)
    ratio = Fraction(rng.randint(1, q - 1), q)
    value = (1 - sum(w for _, w in factors)) * (1 - ratio)
    doc["abelianTail"] = {"kind": "geometric", "first": fmt(value), "ratio": fmt(ratio)}
    smallest = min(atoms)
    while value >= smallest:
        atoms.append(value)
        value *= ratio
    return json.dumps(doc), Seq(tuple(sorted(atoms, reverse=True)), ("geo", value, ratio))


def _malformed(spec: str, rng) -> str:
    pick = rng.randrange(3)
    if pick == 0:
        return spec + " )"
    if pick == 1:
        return ", " + spec
    return spec.replace("(", "[", 1) if "(" in spec else spec + "/"


def _make(rng, kind: str, variant: int) -> Op:
    seq = _any_seq(rng, variant % FAMILIES)
    spec = seq.spec()
    if kind == "check":
        return Op(kind, (["check", spec], seq))
    if kind == "expand":
        target = ref.total(seq) * unit_share(rng)
        return Op(kind, (["expand", spec, fmt(target)], (seq, target)))
    if kind in ("range", "range_csv"):
        depth = RANGE_DEPTHS[variant // FAMILIES] if kind == "range" else DEFAULT_DEPTH
        argv = ["range", spec] + ([] if depth == DEFAULT_DEPTH else ["--depth", str(depth)])
        if kind == "range_csv":
            argv += ["--format", "csv"]
        return Op(kind, (argv, (seq, depth)))
    if kind == "range_svg":
        depths = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
        argv = ["range", spec, "--depth", ",".join(map(str, depths)), "--format", "svg"]
        return Op(kind, (argv, (seq, depths)))
    if kind == "gaps":
        return Op(kind, (["gaps", spec], (seq, DEFAULT_GAPS_DEPTH)))
    if kind == "vna":
        text, merged = _algebra(rng)
        return Op(kind, (["vna", text], merged))
    if kind == "encode":
        word = random_word(rng)
        return Op(kind, (["extreme", "encode", word_text(*word)], word))
    if kind == "decode":
        pre, period = random_word(rng)
        pick = rng.randrange(3)
        if pick == 0:
            return Op(kind, (["extreme", "decode", Seq((), ("radix", Fraction(1), pre, period)).spec()], ((pre, period), None)))
        if pick == 1:
            radix = rng.randint(2, 9)
            unit = Fraction(1, radix)
            face = Seq((unit,) * (radix - 1), ("radix", unit, pre, period))
            return Op(kind, (["extreme", "decode", face.spec()], (((radix,) + pre, period), None)))
        blocks = rng.randint(2, 6)
        values, scale, rest = ref.pattern_prefix(pre, period, blocks)
        last = sum(k - 1 for k in ref.word_entries(pre, period, rng.randint(1, blocks)))
        values[last - 1] *= Fraction(999, 1000)
        bent = Seq(tuple(values), ("radix", scale) + rest)
        return Op(kind, (["extreme", "decode", bent.spec()], (None, last)))
    if kind == "digits":
        word = random_word(rng)
        target = unit_share(rng)
        return Op(kind, (["digits", word_text(*word), fmt(target)], (word, target)))
    if kind == "malformed":
        command = rng.choice(("check", "range", "gaps", "extreme"))
        argv = [command, _malformed(spec, rng)]
        if command == "extreme":
            argv.insert(1, "decode")
        return Op(kind, (argv, None))
    if kind == "overbound":
        return Op(kind, (["range", cantor_seq(rng).spec(), "--depth", str(rng.randint(25, 40))], None))
    assert kind == "huge"
    ratio = Fraction(1, 10 ** rng.randint(900, 1200))
    depth = rng.randint(6, 8)
    huge = Seq((), ("geo", Fraction(1, 2), ratio))
    return Op(kind, (["gaps", huge.spec(), "--depth", str(depth)], (huge, depth)))


def build(seed: int) -> list:
    rng = make_rng(NAME, seed)
    return in_rounds(rng, ROUND, _make, OP_COUNT)


def run(op: Op) -> Result:
    outcome = trcli.run_command(op.inputs[0])
    return Result(outcome.body, outcome.exit_code)


def launch_result(stdout: str, exit_code: int) -> Result:
    """The Result of a ``python -m tracerange`` launch, for ``check``."""
    return Result(stdout.rstrip("\n"), exit_code)


_REFUSALS = {"malformed": (3, "parse"), "overbound": (2, "resource")}


def check(op: Op, result: Result) -> None:
    code = result.value
    if code != 0:
        kind = json.loads(result.text)["error"]["kind"]
        if kind == "internal":
            raise Failure(f"{op.inputs[0][0]} ended as an internal error")
        expected = _REFUSALS.get(op.kind, (2, "resource") if op.kind == "huge" else None)
        expect((code, kind) == expected, f"{op.kind}: unexpected refusal {code}/{kind}")
        return
    expect(op.kind not in _REFUSALS, f"{op.kind}: expected a refusal, got exit 0")
    with unlimited_digits():
        _CHECKS[op.kind](op.inputs[1], result.text)


def _check_check(seq: Seq, body: str) -> None:
    doc = json.loads(body)
    n = ref.first_violation(seq)
    expect(doc["holds"] == (n is None), "wrong verdict")
    expect(doc["firstViolation"] == n, "wrong first violation")
    if n is not None:
        gap = [Fraction(x) for x in doc["gap"]]
        expect(gap == [ref.tail_sum(seq, n), ref.term(seq, n)], "wrong gap")


def _check_expand(data, body: str) -> None:
    seq, target = data
    values = ref.terms(seq, DEFAULT_BITS)
    bits = ref.greedy_bits(values, target)
    achieved = sum((a for a, b in zip(values, bits) if b), Fraction(0))
    doc = json.loads(body)
    expect(doc["bits"] == bits, "greedy bits differ")
    expect(Fraction(doc["achieved"]) == achieved, "wrong achieved sum")
    expect(Fraction(doc["residual"]) == target - achieved, "wrong residual")
    expect(Fraction(doc["residualBound"]) == ref.tail_sum(seq, len(values)), "wrong residual bound")


def _check_range(data, body: str) -> None:
    seq, depth = data
    doc = json.loads(body)
    pieces = [(Fraction(lo), Fraction(hi)) for lo, hi in doc["intervals"]]
    expect(doc["depth"] == depth, "depth not echoed")
    expect(pieces == ref.cover(seq, depth), "wrong cover")
    expect(doc["exact"] == ref.cover_exact(seq, depth), "wrong exactness flag")


def _check_range_csv(data, body: str) -> None:
    seq, depth = data
    rows = body.split("\n")
    expect(rows[0] == "lo,hi", "missing csv header")
    pieces = [tuple(Fraction(x) for x in row.split(",")) for row in rows[1:]]
    expect(pieces == ref.cover(seq, depth), "wrong csv cover")


def _check_range_svg(data, body: str) -> None:
    seq, depths = data
    expect(body.startswith("<svg") and body.endswith("</svg>"), "not an svg document")
    expect(body.count("<rect") == 1 + sum(len(ref.cover(seq, d)) for d in depths), "wrong number of pieces drawn")
    for d in depths:
        tag = "exact" if ref.cover_exact(seq, d) else "outer"
        expect(f"depth {d} ({tag})" in body, f"band for depth {d} not marked {tag}")


def _check_gaps(data, body: str) -> None:
    seq, depth = data
    doc = json.loads(body)
    got = [(v["index"], Fraction(v["gap"][0]), Fraction(v["gap"][1])) for v in doc["violations"]]
    expect(doc["depth"] == depth, "depth not echoed")
    expect(got == ref.violations(seq, depth), "wrong violations")


def _check_vna(merged: Seq, body: str) -> None:
    doc = json.loads(body)
    n = ref.first_violation(merged)
    expect(doc["convex"] == (n is None), "wrong convexity")
    expect(doc["certificate"]["firstViolation"] == n, "wrong certificate")
    model = doc["model"]
    expect([Fraction(x) for x in model["prefix"]] == list(merged.prefix), "wrong merged atoms")
    tail = model["tail"]
    if merged.finite:
        expect(tail["kind"] == "zero", "expected no tail")
    else:
        expect((tail["kind"], Fraction(tail["first"]), Fraction(tail["ratio"])) == ("geometric",) + merged.tail[1:], "wrong re-anchored tail")


def _check_encode(word, body: str) -> None:
    doc = json.loads(body)
    expected = ref.terms(Seq((), ("radix", Fraction(1)) + word), DEFAULT_TERMS)
    expect([Fraction(x) for x in doc["terms"]] == expected, "wrong pattern terms")
    model = doc["model"]
    tail = model["tail"]
    expect(not model["prefix"] and tail["kind"] == "radix" and Fraction(tail["scale"]) == 1, "wrong model")
    expect(ref.same_stream((tuple(tail["pre"]), tuple(tail["period"])), word), "wrong model word")


def _check_decode(data, body: str) -> None:
    word, witness = data
    doc = json.loads(body)
    if witness is None:
        expect(doc["status"] == "extreme", f"expected extreme, got {doc['status']}")
        got = (tuple(doc["word"]["pre"]), tuple(doc["word"]["period"]))
        expect(ref.same_stream(got, word), "decoded the wrong word")
    else:
        expect(doc["status"] == "non_extreme", f"expected non_extreme, got {doc['status']}")
        expect(doc["witnessIndex"] == witness, "wrong witness index")


def _check_digits(data, body: str) -> None:
    (pre, period), target = data
    doc = json.loads(body)
    expect(Fraction(doc["target"]) == target, "target not echoed")
    expect(doc["digits"] == ref.digits(pre, period, target, DEFAULT_COUNT), "wrong digits")


_CHECKS = {
    "check": _check_check,
    "expand": _check_expand,
    "range": _check_range,
    "range_csv": _check_range_csv,
    "range_svg": _check_range_svg,
    "gaps": _check_gaps,
    "huge": _check_gaps,
    "vna": _check_vna,
    "encode": _check_encode,
    "decode": _check_decode,
    "digits": _check_digits,
}


def cold_start_ops(seed: int, count: int) -> list:
    """Small valid requests for ``python -m tracerange`` launches."""
    rng = make_rng("cold-start", seed)
    kinds = ("check", "gaps", "digits", "encode")
    return [_make(rng, kinds[i % len(kinds)], i) for i in range(count)]
