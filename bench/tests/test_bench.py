"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import re

import pytest

import tracerange
from reference import Failure, Mismatch
from tracing import Tracer
from worker import Tally, max_rational_bits
from workloads import cli, cover, realize
from workloads.common import Result

WORKLOADS = (cover, realize, cli)


def first_of_each_kind(workload, seed=3):
    seen = {}
    for op in workload.build(seed):
        seen.setdefault(op.kind, op)
    return seen


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_generator_is_deterministic_in_its_seed(workload):
    assert workload.build(7) == workload.build(7)
    assert workload.build(7) != workload.build(8)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_every_round_holds_every_kind(workload):
    ops = workload.build(5)
    kinds = {op.kind for op in ops}
    assert kinds == {op.kind for op in ops[: len(ops) // 10]}


def _bump(doc):
    """Change the first answer value (depth-first, keys sorted) of a JSON doc."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            changed, value = _bump(doc[key])
            if changed:
                return True, dict(doc, **{key: value})
        return False, doc
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            changed, value = _bump(item)
            if changed:
                return True, doc[:i] + [value] + doc[i + 1 :]
        return False, doc
    if isinstance(doc, bool):
        return True, not doc
    if isinstance(doc, int):
        return True, doc + 1
    if isinstance(doc, str):
        match = re.fullmatch(r"(-?\d+)/(\d+)", doc)
        if match:
            return True, f"{int(match[1]) + 1}/{match[2]}"
        if doc in ("extreme", "non_extreme"):
            return True, "undecided"
        if doc in ("parse", "resource"):
            return True, "validation"
    return False, doc


def corrupt(text: str) -> str:
    if text.startswith("<svg"):
        return text.replace("<rect", "<rct", 1)
    if text.startswith("lo,hi"):
        head, _, rest = text.partition("\n")
        return head + "\n" + "1" + rest
    changed, doc = _bump(json.loads(text))
    assert changed, text
    return json.dumps(doc)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_checkers_accept_answers_and_reject_corrupted_ones(workload):
    for kind, op in first_of_each_kind(workload).items():
        result = workload.run(op)
        if kind == "huge" and result.value != 0:
            continue  # no exact answer to corrupt while these end as errors
        if kind not in ("malformed", "overbound"):
            workload.check(op, result)
        with pytest.raises(Mismatch):
            workload.check(op, Result(corrupt(result.text), result.value))


def test_cli_checker_rejects_a_wrong_exit_code():
    ops = first_of_each_kind(cli)
    refused = cli.run(ops["malformed"])
    with pytest.raises(Mismatch):
        cli.check(ops["malformed"], Result(refused.text, 1))
    answered = cli.run(ops["check"])
    with pytest.raises(Mismatch):
        cli.check(ops["malformed"], answered)


def test_an_internal_envelope_counts_as_failed_not_wrong():
    op = first_of_each_kind(cli)["gaps"]
    body = json.dumps({"error": {"kind": "internal", "message": "boom", "position": None}})
    with pytest.raises(Failure):
        cli.check(op, Result(body, 1))
    tally = Tally(cli)
    tally.record(op, Result(body, 1), None, 0.001)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_a_raising_op_counts_as_failed():
    op = cover.build(1)[0]
    tally = Tally(cover)
    tally.record(op, None, ValueError("boom"), 0.001)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_tracer_nests_spans_and_restores_the_package():
    original = tracerange.cli.parse_spec
    tracer = Tracer()
    tracer.install()
    try:
        assert tracerange.cli.parse_spec is not original
        tracer.op = 0
        outcome = tracerange.cli.run_command(["range", "geo(1/2, 1/3)", "--depth", "3"])
    finally:
        tracer.uninstall()
    assert tracerange.cli.parse_spec is original
    assert outcome.exit_code == 0
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.range"
    assert "dsl.parse_spec" in names and "range_geometry.subset_sums" in names
    assert all(span[3] < index for index, span in enumerate(tracer.spans))
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == metrics["cli.range.calls"] == 1
    assert 0 < metrics["cli.self_s"] < metrics["cli.busy_s"]
    assert metrics["range_geometry.busy_s"] <= metrics["cli.busy_s"]
    assert tracer.counts()["range_geometry.pieces_out"] == 8


def test_max_rational_bits_reads_the_largest_part():
    assert max_rational_bits('{"a": "3/1024", "b": "-5/7"}') == 11
    assert max_rational_bits("no rationals") == 0
