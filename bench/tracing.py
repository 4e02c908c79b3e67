"""Spans at the boundaries of tracerange's modules, recorded from outside.

``install`` replaces each public function and method listed in ``LAYERS``
with a wrapper that records a span, everywhere the package holds a
reference to it (``from .dsl import parse_spec`` in ``cli`` is its own
binding), and ``uninstall`` puts the originals back. No file of the package
changes. A span is kept in memory as

    [name, start, end, parent, op, refused, outermost, child_time]

where ``parent`` is the index of the enclosing span (-1 for none), ``op``
the operation id, ``refused`` whether the call raised (for ``cli``: exited
non-zero), and ``outermost`` whether no enclosing span is of the same layer.
Self time is a span's duration minus the time its child spans cover.

Names missing from the package are skipped, so a refactor that removes one
does not break the benchmark. Per-scalar helpers (``format_rational``,
``RadixWord.entry``, ``Interval`` methods) and generators are deliberately
not wrapped, so tracing cost grows with calls between layers, not with the
size of an answer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "core": (
        "IntervalUnion.from_intervals", "IntervalUnion.insert", "IntervalUnion.complement",
        "IntervalUnion.contains", "IntervalUnion.covers", "IntervalUnion.total_length",
    ),
    "sequences": (
        "make_model", "split_leading", "same_sequence", "from_algebra",
        "SequenceModel.term", "SequenceModel.tail_sum", "SequenceModel.partial_sum",
        "SequenceModel.first_terms", "RadixWord.shift",
    ),
    "representability": (
        "kakeya_check", "greedy_expand", "verify_expansion", "gap_certificate", "list_violations",
    ),
    "range_geometry": (
        "subset_sums", "achievable_outer", "convexity_verdict", "brute_force_representable",
        "brute_force_witness", "SubsetSumOracle.__init__", "SubsetSumOracle.representable",
        "SubsetSumOracle.witness",
    ),
    "extreme_points": (
        "admissibility_check", "radix_to_sequence", "sequence_to_radix", "face_embed",
        "face_extract", "face_membership", "mixed_radix_digits", "bits_to_digits", "digits_to_bits",
    ),
    "serialize": (
        "word_to_doc", "word_from_doc", "tail_to_doc", "tail_from_doc", "model_to_doc",
        "model_from_doc", "algebra_to_doc", "algebra_from_doc", "verdict_to_doc",
        "expansion_to_doc", "approximation_to_doc", "report_to_doc", "convexity_to_doc",
    ),
    "dsl": ("parse_spec", "parse_word", "parse_algebra"),
    "svg": ("emit_svg",),
    "cli": ("run_command",),
}

CLI_COMMANDS = ("check", "expand", "range", "gaps", "vna", "extreme.encode", "extreme.decode", "digits")

def _command(argv) -> str:
    argv = list(argv)
    if argv[:1] == ["extreme"] and len(argv) > 1:
        return f"extreme.{argv[1]}"
    return argv[0] if argv else ""


class Tracer:
    """Keeps spans and the counters read off layer results."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.depth: dict = defaultdict(int)
        self.op = -1
        self.pieces = 0
        self.collapse: list = []
        self.max_index = 0
        self.bits = 0
        self.radices = 0
        self._restore: list = []

    def span(self, name: str, layer: str, fn, after=None):
        """``fn`` wrapped so each call records a span; ``after(span, args,
        result)`` may rename the span, mark it refused, or read counters."""
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, depth[layer] == 0, 0.0]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            depth[layer] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter()
                depth[layer] -= 1
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][7] += record[2] - record[1]
            if after is not None:
                after(record, args, result)
            return result

        return traced

    def _after(self, qualified: str):
        if qualified == "cli.run_command":
            def after(record, args, result):
                record[0] = f"cli.{_command(args[0])}"
                record[5] = result.exit_code != 0
            return after
        if qualified == "range_geometry.achievable_outer":
            def after(record, args, result):
                model, depth = args[0], args[1]
                cut = min(depth, len(model.prefix)) if model.finite else depth
                self.pieces += len(result.union)
                self.collapse.append(len(result.union) / 2**cut)
            return after
        if qualified in ("sequences.SequenceModel.term", "sequences.SequenceModel.tail_sum",
                         "sequences.split_leading", "sequences.SequenceModel.first_terms"):
            def after(record, args, result):
                self.max_index = max(self.max_index, args[1])
            return after
        if qualified == "representability.greedy_expand":
            def after(record, args, result):
                self.bits += len(result.bits)
            return after
        if qualified == "extreme_points.sequence_to_radix":
            def after(record, args, result):
                word = result.word
                self.radices += len(word.pre) + len(word.period) if word is not None else (result.depth or 0)
            return after
        return None

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "tracerange" or key.startswith("tracerange.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"tracerange.{layer}")
            for name in names:
                qualified = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self.span(qualified, layer, raw.__func__, self._after(qualified)))
                    else:
                        wrapped = self.span(qualified, layer, raw, self._after(qualified))
                    setattr(owner, attr, wrapped)
                    self._restore.append((owner, attr, raw))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapped = self.span(qualified, layer, original, self._after(qualified))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """``<layer>.calls/busy_s/self_s/refusals`` and ``cli.<command>.*``."""
        out = {}
        for layer in LAYERS:
            out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0, f"{layer}.self_s": 0.0, f"{layer}.refusals": 0})
        for command in CLI_COMMANDS:
            out.update({f"cli.{command}.calls": 0, f"cli.{command}.busy_s": 0.0})
        for name, start, end, _, _, refused, outermost, child in self.spans:
            layer = name.partition(".")[0]
            if layer not in LAYERS:
                continue
            duration = end - start
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child
            if outermost:
                out[f"{layer}.busy_s"] += duration
                out[f"{layer}.refusals"] += int(refused)
            if layer == "cli" and f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += duration
        return out

    def counts(self) -> dict:
        return {
            "range_geometry.pieces_out": self.pieces,
            "range_geometry.collapse_ratio": sum(self.collapse) / len(self.collapse) if self.collapse else 0.0,
            "sequences.max_index": self.max_index,
            "representability.bits": self.bits,
            "extreme_points.radices_peeled": self.radices,
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one ``[name, start, end, parent, op,
        refused]`` array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record[:6]) + "\n")
