"""The package's frozen records, and what a launch imports.

Every record compares, hashes and prints by its fields as a frozen
dataclass would, copies and pickles to an equal twin, and refuses to have
a field assigned or deleted with ``dataclasses.FrozenInstanceError``. The
records generate no code, so importing the package loads neither
``dataclasses`` nor ``inspect``, and the svg renderer is loaded only when
it is asked for. A bare ``import tracerange`` loads none of the package's
modules: each is loaded when one of its public names is first read.
"""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tracerange as t
from tracerange.cli import CommandResult
from tracerange.sequences import _from_runs

F = Fraction
R = inspect.Parameter.empty  # a parameter with no default
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _geo_model():
    return t.SequenceModel((F(1, 2), F(1, 4), F(1, 4)), t.GeometricTail(F(1, 8), F(1, 2)))


def _algebra():
    return t.AlgebraSpec((t.MatrixFactor(2, F(1, 2)),), t.GeometricTail(F(1, 4), F(1, 2)))


# (build, the fields, the constructor's parameters with their defaults, the repr)
RECORDS = {
    "Interval": (
        lambda: t.Interval(F(1, 3), F(1, 2)),
        ("lo", "hi"),
        {"lo": R, "hi": R},
        "Interval(lo=Fraction(1, 3), hi=Fraction(1, 2))",
    ),
    "IntervalUnion": (
        lambda: t.IntervalUnion.from_intervals([t.Interval(F(2, 9), F(1, 3)), t.Interval(F(0), F(1, 9))]),
        ("_den", "_ends"),
        {"parts": ()},
        "IntervalUnion(parts=(Interval(lo=Fraction(0, 1), hi=Fraction(1, 9)), "
        "Interval(lo=Fraction(2, 9), hi=Fraction(1, 3))))",
    ),
    "RadixWord": (
        lambda: t.RadixWord((3, 2), (2,)),
        ("pre", "period"),
        {"pre": (), "period": ()},
        "RadixWord(pre=(3,), period=(2,))",
    ),
    "ZeroTail": (lambda: t.ZeroTail(), (), {}, "ZeroTail()"),
    "GeometricTail": (
        lambda: t.GeometricTail(F(1, 2), F(1, 3)),
        ("first", "ratio"),
        {"first": R, "ratio": R},
        "GeometricTail(first=Fraction(1, 2), ratio=Fraction(1, 3))",
    ),
    "MixedRadixTail": (
        lambda: t.MixedRadixTail(F(1), t.RadixWord((), (3, 2))),
        ("scale", "radices"),
        {"scale": R, "radices": R},
        "MixedRadixTail(scale=Fraction(1, 1), radices=RadixWord(pre=(), period=(3, 2)))",
    ),
    "SequenceModel": (
        _geo_model,
        ("_runs", "tail"),
        {"prefix": (), "tail": t.ZeroTail()},
        "SequenceModel(prefix=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), "
        "tail=GeometricTail(first=Fraction(1, 8), ratio=Fraction(1, 2)))",
    ),
    "MatrixFactor": (
        lambda: t.MatrixFactor(2, F(1, 2)),
        ("dim", "weight"),
        {"dim": R, "weight": R},
        "MatrixFactor(dim=2, weight=Fraction(1, 2))",
    ),
    "AlgebraSpec": (
        _algebra,
        ("factors", "abelian_tail"),
        {"factors": (), "abelian_tail": None},
        "AlgebraSpec(factors=(MatrixFactor(dim=2, weight=Fraction(1, 2)),), "
        "abelian_tail=GeometricTail(first=Fraction(1, 4), ratio=Fraction(1, 2)))",
    ),
    "ConditionVerdict": (
        lambda: t.kakeya_check(t.SequenceModel((), t.GeometricTail(F(1, 2), F(1, 3)))),
        ("holds", "first_violation", "gap"),
        {"holds": R, "first_violation": None, "gap": None},
        "ConditionVerdict(holds=False, first_violation=1, gap=(Fraction(1, 4), Fraction(1, 2)))",
    ),
    "BitExpansion": (
        lambda: t.greedy_expand(t.SequenceModel((), t.GeometricTail(F(1, 2), F(1, 2))), F(1, 3), 8),
        ("bits", "achieved", "residual", "residual_bound"),
        {"bits": R, "achieved": R, "residual": R, "residual_bound": R},
        "BitExpansion(bits=(0, 1, 0, 1, 0, 1, 0, 1), achieved=Fraction(85, 256), "
        "residual=Fraction(1, 768), residual_bound=Fraction(1, 256))",
    ),
    "RangeApproximation": (
        lambda: t.achievable_outer(t.SequenceModel((), t.GeometricTail(F(2, 3), F(1, 3))), 1),
        ("depth", "union", "exact"),
        {"depth": R, "union": R, "exact": R},
        "RangeApproximation(depth=1, union=IntervalUnion(parts=(Interval(lo=Fraction(0, 1), "
        "hi=Fraction(1, 3)), Interval(lo=Fraction(2, 3), hi=Fraction(1, 1)))), exact=False)",
    ),
    "ConvexityVerdict": (
        lambda: t.convexity_verdict(_algebra()),
        ("convex", "certificate"),
        {"convex": R, "certificate": R},
        "ConvexityVerdict(convex=True, certificate=ConditionVerdict(holds=True, first_violation=None, gap=None))",
    ),
    "ExtremalityReport": (
        lambda: t.sequence_to_radix(t.radix_to_sequence(t.RadixWord((3,), (2,)))),
        ("status", "word", "witness_index", "depth"),
        {"status": R, "word": None, "witness_index": None, "depth": None},
        "ExtremalityReport(status='extreme', word=RadixWord(pre=(3,), period=(2,)), witness_index=None, depth=None)",
    ),
    "CommandResult": (
        lambda: CommandResult(0, '{"holds": true}'),
        ("exit_code", "body"),
        {"exit_code": R, "body": R},
        "CommandResult(exit_code=0, body='{\"holds\": true}')",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_equality_hash_and_repr_read_the_fields(self, name):
        build, fields, _, text = RECORDS[name]
        record, twin = build(), build()
        assert type(record).__name__ == name and record is not twin
        values = tuple(getattr(record, field) for field in fields)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert repr(record) == text
        # another class never compares equal, even with the same fields
        assert record.__eq__(values) is NotImplemented and record != values
        assert not dataclasses.is_dataclass(record)

    def test_the_constructor_keeps_its_signature(self, name):
        build, _, parameters, _ = RECORDS[name]
        signature = inspect.signature(type(build()))
        assert {p.name: p.default for p in signature.parameters.values()} == parameters
        assert list(signature.parameters) == list(parameters)
        assert {p.kind for p in signature.parameters.values()} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_copies_and_pickles_are_equal_twins(self, name):
        record = RECORDS[name][0]()
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        build, fields, _, _ = RECORDS[name]
        record = build()
        for field in fields + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, None)
        for field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field)
        assert tuple(getattr(record, field) for field in fields) == tuple(
            getattr(build(), field) for field in fields
        )


def test_a_model_compares_its_fields_not_its_cached_values():
    derived = t.face_extract(t.face_embed(_geo_model(), 3))
    # a model built from runs spells its prefix out only when it is read
    assert "prefix" not in vars(derived)
    assert derived.prefix == (F(1, 2), F(1, 4), F(1, 4)) and "prefix" in vars(derived)
    assert derived.total == F(5, 4) and {"_run_ends", "prefix", "total"} <= set(vars(derived))
    fresh = _geo_model()
    assert "total" not in vars(fresh)
    assert derived == fresh and hash(derived) == hash(fresh) and repr(derived) == repr(fresh)


def test_models_built_three_ways_compare_and_hash_equal():
    tail = t.GeometricTail(F(1, 8), F(1, 2))
    built = _geo_model()
    # equal runs handed over split are merged into the canonical runs
    split = _from_runs([(F(1, 2), 1), (F(1, 4), 1), (F(1, 4), 1)], tail)
    round_trip = t.face_extract(t.face_embed(built, 5))
    assert built._runs == split._runs == round_trip._runs == ((F(1, 2), 1), (F(1, 4), 2))
    assert "prefix" not in vars(split) and "prefix" not in vars(round_trip)
    assert built == split == round_trip
    assert hash(built) == hash(split) == hash(round_trip)
    assert repr(built) == repr(split) == repr(round_trip)


def _twins(record) -> list:
    """``record`` through pickle at every protocol, ``copy`` and ``deepcopy``."""
    pickled = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(record), copy.deepcopy(record)]


class TestSlottedInterval:
    """``Interval`` keeps its two fields in slots and has no ``__dict__``; it
    still refuses assignment, and copies and pickles to an equal twin."""

    def _intervals(self):
        checked = t.Interval(F(1, 3), F(1, 2))
        # one built by the trusted constructors, with no ``__init__``
        trusted = t.IntervalUnion.from_intervals([checked]).parts[0]
        return checked, trusted

    def test_no_dict(self):
        for interval in self._intervals():
            assert not hasattr(interval, "__dict__")
            assert type(interval).__slots__ == ("lo", "hi")

    def test_lo_cannot_be_assigned_or_deleted(self):
        for interval in self._intervals():
            with pytest.raises(dataclasses.FrozenInstanceError):
                interval.lo = F(0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                del interval.lo
            assert interval.lo == F(1, 3)

    def test_every_pickle_protocol_and_copy_gives_an_equal_twin(self):
        assert pickle.HIGHEST_PROTOCOL >= 5
        for interval in self._intervals():
            for twin in _twins(interval):
                assert type(twin) is t.Interval and twin is not interval
                assert twin == interval and hash(twin) == hash(interval) and repr(twin) == repr(interval)
                assert not hasattr(twin, "__dict__")

    def test_a_union_with_its_lowest_terms_read_twins_one_without(self):
        def build():
            return t.achievable_outer(t.SequenceModel((), t.GeometricTail(F(2, 3), F(1, 3))), 3).union

        read, fresh = build(), build()
        read._written_parts()
        gaps = read.complement(t.Interval(F(0), F(1)))
        assert "_pairs" in vars(read) and "_pairs" in vars(gaps) and "_pairs" not in vars(fresh)
        assert "_pairs" not in repr(read) and repr(read) == repr(fresh)
        for twin in _twins(read):
            assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
            assert twin._written_parts() == fresh._written_parts() and list(twin) == list(fresh)
        assert gaps == fresh.complement(t.Interval(F(0), F(1)))


def _run_isolated(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)


def test_importing_the_package_loads_no_dataclasses_inspect_or_svg():
    code = (
        "import sys, tracerange\n"
        "loaded = {'dataclasses', 'inspect', 'tracerange.svg'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "loaded = [name for name in sys.modules if name.startswith('tracerange.')]\n"
        "assert not loaded, loaded  # nor any other module of the package\n"
        "from tracerange import emit_svg\n"
        "assert emit_svg is sys.modules['tracerange.svg'].emit_svg\n"
        "assert 'emit_svg' in tracerange.__all__\n"
    )
    proc = _run_isolated(code)
    assert proc.returncode == 0, proc.stderr


# the package's ``__all__``, in its order
PUBLIC_NAMES = """
    AlgebraSpec BitExpansion CommandResult ConditionVerdict ConvexityVerdict DomainError ExtremalityReport
    GeometricTail Interval IntervalUnion MatrixFactor MixedRadixTail OutOfSupportError ParseError RadixWord
    RangeApproximation ResourceLimitError SequenceModel SubsetSumOracle TraceRangeError UnsupportedSpecError
    ValidationError ZeroTail achievable_outer admissibility_check bits_to_digits convexity_verdict digits_to_bits
    emit_svg face_embed face_extract face_membership format_rational from_algebra gap_certificate greedy_expand
    kakeya_check list_violations main make_model mixed_radix_digits parse_algebra parse_rational parse_spec
    parse_word radix_to_sequence run_command same_sequence sequence_to_radix split_leading subset_sums
    verify_expansion __version__
""".split()


def test_a_star_import_binds_every_public_name_as_its_module_defines_it():
    code = (
        "import sys\n"
        "names = {}\n"
        "exec('from tracerange import *', names)\n"
        "del names['__builtins__']\n"
        f"assert list(names) == {PUBLIC_NAMES!r}, list(names)\n"
        "version = names.pop('__version__')\n"
        "assert version == sys.modules['tracerange'].__version__\n"
        "for name, value in names.items():\n"
        "    home = sys.modules[value.__module__]\n"
        "    assert home.__name__.startswith('tracerange.') and vars(home)[name] is value, name\n"
    )
    proc = _run_isolated(code)
    assert proc.returncode == 0, proc.stderr


def test_a_submodule_and_every_public_name_resolve_after_a_bare_import():
    code = (
        "import sys, tracerange\n"
        "assert tracerange.cli is sys.modules['tracerange.cli']\n"
        "assert tracerange.cli.run_command is tracerange.run_command\n"
        "assert vars(tracerange)['run_command'] is tracerange.run_command  # kept: a second read skips the hook\n"
        "listed = dir(tracerange)\n"
        "assert all(name in listed for name in tracerange.__all__)\n"
        "assert 'tracerange.svg' not in sys.modules\n"
    )
    proc = _run_isolated(code)
    assert proc.returncode == 0, proc.stderr


def test_parsing_a_spec_loads_no_engine_cli_or_svg():
    code = (
        "import sys\n"
        "from tracerange import parse_spec\n"
        "assert parse_spec('geo(1/2, 1/2)').total == 1\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('tracerange.'))\n"
        "assert loaded == ['tracerange.core', 'tracerange.dsl', 'tracerange.errors', 'tracerange.sequences',\n"
        "                  'tracerange.serialize'], loaded\n"
    )
    proc = _run_isolated(code)
    assert proc.returncode == 0, proc.stderr


def test_a_launch_that_draws_nothing_loads_no_svg():
    code = (
        "import sys\n"
        "from tracerange.cli import run_command\n"
        "assert run_command(['check', 'geo(1/2,1/2)']).exit_code == 0\n"
        "assert 'tracerange.svg' not in sys.modules\n"
        "assert run_command(['range', 'geo(1/3,1/4)', '--depth', '2', '--format', 'svg']).exit_code == 0\n"
        "assert 'tracerange.svg' in sys.modules and 'dataclasses' not in sys.modules\n"
    )
    proc = _run_isolated(code)
    assert proc.returncode == 0, proc.stderr


def test_an_unknown_package_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        t.nothing_here
