"""Acceptance suite: ten end-to-end checks, one printed line each.

Run with ``pytest -s`` (the default addopts) to see the summary lines.
Every check draws from a seeded generator so reruns are identical.
"""

import json
import time
from fractions import Fraction
from random import Random

from tracerange import (
    AlgebraSpec,
    GeometricTail,
    Interval,
    IntervalUnion,
    MatrixFactor,
    MixedRadixTail,
    RadixWord,
    SequenceModel,
    SubsetSumOracle,
    achievable_outer,
    bits_to_digits,
    convexity_verdict,
    face_embed,
    face_extract,
    face_membership,
    gap_certificate,
    greedy_expand,
    kakeya_check,
    list_violations,
    make_model,
    mixed_radix_digits,
    radix_to_sequence,
    sequence_to_radix,
    subset_sums,
    verify_expansion,
)
from tracerange.cli import run_command

from support import (
    cantor_like,
    random_complete_model,
    random_finite_model,
    random_fraction,
    random_unit_admissible_model,
    random_word,
    scale_model,
)

F = Fraction
SEED = 20260818


def _report(number, detail):
    print(f"ACCEPTANCE {number} PASS: {detail}")


class _Announce:
    """Print the one-line verdict whether the block passes or raises."""

    def __init__(self, number, detail):
        self.number = number
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _report(self.number, self.detail)
        else:
            print(f"ACCEPTANCE {self.number} FAIL: {self.detail}")
        return False


def test_criterion_1_greedy_invariant():
    """Greedy expansions keep the residual inside the tail bound at every step."""
    rng = Random(SEED)
    started = time.monotonic()
    models = 0
    with _Announce(1, "greedy residual invariant on 20 models x 5 targets, 24 bits"):
        for _ in range(20):
            model = random_complete_model(rng)
            assert kakeya_check(model).holds
            targets = [model.total * F(j, 5) for j in range(5)]
            targets.append(random_fraction(rng, F(0), model.total))
            for target in targets:
                expansion = greedy_expand(model, target, 24)
                residual = target
                for n, bit in enumerate(expansion.bits, start=1):
                    if bit:
                        residual -= model.term(n)
                    assert 0 <= residual <= model.tail_sum(n)
                assert residual == expansion.residual
                assert verify_expansion(model, expansion.bits, target) == residual
            models += 1
        assert models == 20
        assert time.monotonic() - started < 10.0


def test_criterion_2_subset_sum_oracle():
    """Witnesses replay to their targets; midpoints between sums never do."""
    rng = Random(SEED + 2)
    started = time.monotonic()
    queries = 0
    with _Announce(2, "oracle witnesses and midpoint rejections on 20 finite models"):
        for _ in range(20):
            model = random_finite_model(rng, min_terms=3, max_terms=9)
            terms = list(model.prefix)
            oracle = SubsetSumOracle(terms)
            sums = subset_sums(terms)
            for _ in range(6):
                bits = tuple(rng.randint(0, 1) for _ in terms)
                target = sum((t for b, t in zip(bits, terms) if b), F(0))
                witness = oracle.witness(target)
                assert witness is not None
                assert sum((t for b, t in zip(witness, terms) if b), F(0)) == target
                queries += 1
            for lo, hi in zip(sums, sums[1:]):
                mid = (lo + hi) / 2
                assert not oracle.representable(mid)
                assert oracle.witness(mid) is None
                queries += 1
        assert queries >= 200
        assert time.monotonic() - started < 10.0


def _violating_models(rng):
    for ratio in (F(1, 3), F(1, 4), F(2, 5), F(5, 11)):
        first = random_fraction(rng, F(1, 8), F(2, 3))
        yield SequenceModel((), GeometricTail(first, ratio))
    for _ in range(6):
        terms = [random_fraction(rng, F(1, 9), F(1, 2))]
        for _ in range(rng.randint(1, 4)):
            bulk = sum(terms, F(0))
            terms.insert(0, bulk + random_fraction(rng, F(1, 16), F(1, 2)))
        yield make_model(terms)


def test_criterion_3_gap_midpoints_unreachable():
    """Certified gaps stay outside the outer cover once it is tight enough."""
    rng = Random(SEED + 3)
    checked = 0
    with _Announce(3, "gap certificates exclude their midpoints from deep covers"):
        for model in _violating_models(rng):
            violations = list_violations(model, 6)
            assert violations
            for n, gap in violations:
                assert gap_certificate(model, n) == gap
                lo, hi = gap
                assert lo == model.tail_sum(n)
                assert hi == model.term(n)
                mid = (lo + hi) / 2
                depth = next(
                    d for d in range(1, 21) if model.tail_sum(d) < (hi - lo) / 2
                )
                cover = achievable_outer(model, depth)
                assert not cover.union.contains(mid)
                checked += 1
        assert checked >= 10


def test_criterion_4_complete_ranges_are_full_intervals():
    """Condition-satisfying models cover the whole span at every depth."""
    rng = Random(SEED + 4)
    with _Announce(4, "20 complete models give exact single-interval covers"):
        for _ in range(20):
            model = random_complete_model(rng)
            full = IntervalUnion.from_intervals([Interval(F(0), model.total)])
            for depth in (4, 8, 12):
                approx = achievable_outer(model, depth)
                assert approx.exact
                assert approx.union == full


def test_criterion_5_middle_thirds_scaling():
    """The fast-decay model splits into 2^N pieces of width 3^-N."""
    model = cantor_like()
    with _Announce(5, "cover sizes match 2^N pieces of width 3^-N for N=1..10"):
        for depth in range(1, 11):
            approx = achievable_outer(model, depth)
            assert not approx.exact
            assert len(approx.union) == 2**depth
            width = F(1, 3**depth)
            assert all(part.length() == width for part in approx.union)
            assert approx.union.total_length() == F(2, 3) ** depth


def test_criterion_6_word_roundtrip_and_telescoping():
    """Encoded words decode back exactly; block boundaries telescope."""
    rng = Random(SEED + 6)
    with _Announce(6, "500 word roundtrips plus 40-block telescoping sums"):
        for _ in range(500):
            word = random_word(rng)
            model = radix_to_sequence(word)
            report = sequence_to_radix(model)
            assert report.status == "extreme"
            assert report.word == word
        for _ in range(30):
            word = random_word(rng)
            model = radix_to_sequence(word)
            boundary = 0
            product = 1
            for k in word.entries(40):
                boundary += k - 1
                product *= k
                assert model.tail_sum(boundary) == F(1, product)


def test_criterion_7_digits_match_integer_arithmetic():
    """Constant-radix digits agree with pure integer division, and grouped
    greedy bits agree with the digit stream on arbitrary words."""
    rng = Random(SEED + 7)
    width = 12
    with _Announce(7, "100 rational/base digit checks plus 30 grouped-bit checks"):
        for _ in range(100):
            base = rng.randint(2, 9)
            den = rng.randint(1, 500)
            num = rng.randint(0, den)
            scaled = min(num * base**width // den, base**width - 1)
            expected = []
            for _ in range(width):
                scaled, digit = divmod(scaled, base)
                expected.append(digit)
            expected.reverse()
            word = RadixWord((), (base,))
            assert mixed_radix_digits(word, F(num, den), width) == tuple(expected)
        for _ in range(30):
            word = random_word(rng)
            den = rng.randint(1, 60)
            target = F(rng.randint(0, den), den)
            digit_count = 5
            bit_count = sum(k - 1 for k in word.entries(digit_count))
            bits = greedy_expand(radix_to_sequence(word), target, bit_count).bits
            assert bits_to_digits(bits, word) == mixed_radix_digits(
                word, target, digit_count
            )


def _shaped_geometric(rng, ratio, length):
    first = random_fraction(rng, F(1, 40), F(1, 4))
    prefix = []
    head = first
    for _ in range(length):
        head = random_fraction(rng, head, head * 2)
        prefix.insert(0, head)
    model = SequenceModel(tuple(prefix), GeometricTail(first, ratio))
    if model.total > 1:
        model = scale_model(model, F(1, 2) / model.total)
    return model


def test_criterion_8_face_maps():
    """Embeddings invert exactly, land inside the face, and act affinely."""
    rng = Random(SEED + 8)
    with _Announce(8, "100 embed/extract roundtrips and 25 affine combinations"):
        roundtrips = 0
        while roundtrips < 100:
            model = random_unit_admissible_model(rng)
            if model.term(1) == 1:
                continue
            radix = rng.randint(2, 6)
            embedded = face_embed(model, radix)
            assert face_extract(embedded, radix) == model
            assert face_membership(embedded, radix)
            roundtrips += 1
        for _ in range(25):
            ratio = rng.choice([F(1, 2), F(2, 3), F(3, 5)])
            length = rng.randint(0, 3)
            left = _shaped_geometric(rng, ratio, length)
            right = _shaped_geometric(rng, ratio, length)
            theta = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
            combo = SequenceModel(
                tuple(
                    theta * a + (1 - theta) * b
                    for a, b in zip(left.prefix, right.prefix)
                ),
                GeometricTail(
                    theta * left.tail.first + (1 - theta) * right.tail.first, ratio
                ),
            )
            radix = rng.randint(2, 5)
            emb_combo = face_embed(combo, radix)
            emb_left = face_embed(left, radix)
            emb_right = face_embed(right, radix)
            for n in range(1, length + radix + 7):
                assert emb_combo.term(n) == theta * emb_left.term(n) + (
                    1 - theta
                ) * emb_right.term(n)
            assert emb_combo.total == theta * emb_left.total + (1 - theta) * emb_right.total


def test_criterion_9_convexity_verdicts():
    """Factor combinations produce the expected verdicts and certificates."""
    cases = [
        (
            AlgebraSpec((MatrixFactor(3, F(1)),)),
            False,
            3,
            (F(0), F(1, 3)),
        ),
        (
            AlgebraSpec((MatrixFactor(2, F(1, 2)),), GeometricTail(F(1, 4), F(1, 2))),
            True,
            None,
            None,
        ),
        (
            AlgebraSpec((MatrixFactor(1, F(2, 3)),), GeometricTail(F(1, 9), F(2, 3))),
            False,
            1,
            (F(1, 3), F(2, 3)),
        ),
        (
            AlgebraSpec(
                (MatrixFactor(2, F(2, 5)), MatrixFactor(1, F(1, 5))),
                MixedRadixTail(F(2, 5), RadixWord((), (2,))),
            ),
            True,
            None,
            None,
        ),
    ]
    with _Announce(9, "4 curated factor specs give the expected verdicts"):
        for spec, convex, index, gap in cases:
            verdict = convexity_verdict(spec)
            assert verdict.convex is convex
            assert verdict.certificate.first_violation == index
            assert verdict.certificate.gap == gap


_FUZZ_TEMPLATES = [
    "{r},,{r}",
    "{r},",
    ",",
    "",
    "geo({r}",
    "geo({r}; {r})",
    "geo()",
    "geo({r},)",
    "radix({r})",
    "radix({r}: {w})",
    "radix({r}; )",
    "radix({r}; {w} | {w} | {w})",
    "{r} {r}",
    "{name}({r}, {r})",
    "{r}, geo({r}, {r}",
    "|{w}",
    "{r}/",
]

_FUZZ_NAMES = ["wedge", "shear", "spiral", "torus", "knot", "_g", "Geo_"]


def _malformed_spec(rng):
    template = rng.choice(_FUZZ_TEMPLATES)

    def rational():
        den = rng.randint(2, 12)
        return f"{rng.randint(1, den - 1)}/{den}"

    out = []
    pieces = template.split("{")
    out.append(pieces[0])
    for piece in pieces[1:]:
        key, rest = piece.split("}", 1)
        if key == "r":
            out.append(rational())
        elif key == "w":
            out.append(" ".join(str(rng.randint(2, 9)) for _ in range(rng.randint(1, 3))))
        else:
            out.append(rng.choice(_FUZZ_NAMES))
        out.append(rest)
    return "".join(out)


def test_criterion_10_cli_determinism_and_fuzz():
    """Byte-identical reruns and a parse-only error lane for malformed input."""
    rng = Random(SEED + 10)
    argv_cases = [
        ["check", "geo(1/2, 1/2)"],
        ["check", "geo(2/3, 1/3)"],
        ["check", "1/2, 1/4, radix(1/4; 2)"],
        ["expand", "geo(1/2, 1/2)", "1/3", "--bits", "6"],
        ["range", "geo(2/3, 1/3)", "--depth", "3"],
        ["range", "geo(2/3, 1/3)", "--depth", "2", "--format", "csv"],
        ["range", "geo(2/3, 1/3)", "--depth", "1,2,3", "--format", "svg"],
        ["gaps", "3/5, 2/5", "--depth", "4"],
        ["vna", '{"factors": [{"dim": 3, "weight": "1/1"}]}'],
        ["extreme", "decode", "1/2, 1/4, geo(1/8, 1/2)"],
        ["extreme", "encode", "3 | 2", "--terms", "6"],
        ["digits", "2 | 3", "5/6", "--count", "3"],
    ]
    with _Announce(10, "12 deterministic reruns and 10000 malformed specs -> exit 3"):
        for argv in argv_cases:
            first = run_command(argv)
            second = run_command(argv)
            assert first.exit_code == 0
            assert first.body == second.body
        for _ in range(10_000):
            text = _malformed_spec(rng)
            result = run_command(["check", text])
            assert result.exit_code == 3, text
            doc = json.loads(result.body)
            assert doc["error"]["kind"] == "parse", text
            assert doc["error"]["message"]
