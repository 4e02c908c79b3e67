"""The tail families own their closed forms, so the package tests a tail's
type only where it must: to write a tail's document, to check that a value
is a tail at all, and to say whether a model is finite. Every other caller
goes through the tail's methods; this walk keeps new type switches out."""

import ast
from pathlib import Path

import tracerange

TAIL_CLASSES = {"ZeroTail", "GeometricTail", "MixedRadixTail"}

# (module, qualified name of the enclosing function) of each allowed test
ALLOWED = {
    ("serialize", "tail_to_doc"),
    ("sequences", "_checked_tail"),
    ("sequences", "SequenceModel.finite"),
}


class _TailTypeTests(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & TAIL_CLASSES:
                self.found.append((self.module, ".".join(self.scope), node.lineno))
        self.generic_visit(node)


def tail_type_tests() -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of every ``isinstance`` call in
    the package that names a tail class."""
    found = []
    for path in sorted(Path(tracerange.__file__).parent.glob("*.py")):
        visitor = _TailTypeTests(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found.extend(visitor.found)
    return found


def test_tail_types_are_tested_only_where_they_must_be():
    stray = [site for site in tail_type_tests() if site[:2] not in ALLOWED]
    assert stray == [], f"isinstance on a tail class outside {sorted(ALLOWED)}: {stray}"


def test_at_most_four_tail_type_tests_remain():
    sites = tail_type_tests()
    assert len(sites) <= 4, sites
    # the walk sees the ones that must stay, so an empty result is no pass
    assert {site[:2] for site in sites} == ALLOWED


def test_the_walk_catches_a_new_switch():
    source = "def f(t):\n    return isinstance(t, (sequences.GeometricTail, int))\n"
    visitor = _TailTypeTests("probe")
    visitor.visit(ast.parse(source))
    assert visitor.found == [("probe", "f", 2)]


class _IntegerTermsUses(_TailTypeTests):
    """Every reference to ``_integer_terms`` (a call, or the name passed
    on) and every import of it, by enclosing scope."""

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name):
        if node.id == "_integer_terms":
            self.found.append((self.module, ".".join(self.scope), node.lineno))

    def visit_Attribute(self, node: ast.Attribute):
        if node.attr == "_integer_terms":
            self.found.append((self.module, ".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias):
        if node.name == "_integer_terms":
            self.found.append((self.module, "import", node.lineno))


def integer_terms_uses() -> list[tuple[str, str, int]]:
    found = []
    for path in sorted(Path(tracerange.__file__).parent.glob("*.py")):
        visitor = _IntegerTermsUses(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found.extend(visitor.found)
    return found


def test_only_the_referee_reads_the_common_denominator():
    # the greedy steps in units of the current term; verify_expansion
    # replays its bits over one common denominator, and stays independent
    # only while nothing else reads that route
    uses = [site[:2] for site in integer_terms_uses()]
    assert uses == [("representability", "import"), ("representability", "verify_expansion")]


def test_the_walk_catches_another_reader():
    source = (
        "from .sequences import _integer_terms\n"
        "def f(m):\n"
        "    return sequences._integer_terms(m, 3, 1)\n"
        "g = _integer_terms\n"
    )
    visitor = _IntegerTermsUses("probe")
    visitor.visit(ast.parse(source))
    assert visitor.found == [("probe", "import", 1), ("probe", "f", 3), ("probe", "", 4)]
