"""Source rules that no test of behaviour can see, checked on the syntax tree.

- No ``assert`` statement in the library: ``python -O`` strips them, and the
  invariant checks that guard solver output must still run there.
- ``derive_costs`` is called only by ``Instance.costs``, so an instance's
  derived costs are computed once and shared by every solver.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "aecover"
COSTS_OWNER = ("Instance", "costs")


def assert_statements(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def derive_costs_calls_outside_owner(tree: ast.AST) -> list[int]:
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "derive_costs" and scope != COSTS_OWNER:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


RULES = [assert_statements, derive_costs_calls_outside_owner]


def library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
def test_library_obeys(rule):
    breaches = {name: lines for name, tree in library_trees() if (lines := rule(tree))}
    assert breaches == {}


def test_derive_costs_has_its_owner():
    # The rule is vacuous if the one permitted call disappears.
    core = dict(library_trees())["core.py"]
    calls = [
        node
        for node in ast.walk(core)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "derive_costs"
    ]
    assert len(calls) == 1


BROKEN = '''
from . import core
from .core import derive_costs

class Instance:
    @property
    def costs(self):
        return derive_costs(self)

    def other(self):
        return derive_costs(self)

def solve(inst):
    assert inst.terminals, "no terminals"
    return core.derive_costs(inst)

class Helper:
    def costs(self, inst):
        return derive_costs(inst)
'''


def test_rules_catch_breaches():
    tree = ast.parse(BROKEN)
    assert assert_statements(tree) == [14]
    assert derive_costs_calls_outside_owner(tree) == [11, 15, 19]
