"""Source rules that no test of behaviour can see, checked on the syntax tree.

- No ``assert`` statement in the library: ``python -O`` strips them, and the
  invariant checks that guard solver output must still run there.
- ``derive_costs`` is called only by ``Instance.costs``, so an instance's
  derived costs are computed once and shared by every solver.
- ``json.dumps`` is called only in ``fileio``, which owns the canonical
  document layout.
- ``SolveReport`` is constructed only by ``report.solve_report``, the one
  builder, which derives the value itself; every solver passes the slope
  and the degree bound as ``theta`` and ``delta``.
- No module tests a value against an edge's ``.tu`` or ``.tv`` with ``>=``
  (or the threshold with ``<=``), the Fraction form of the activation test:
  ``core.active_at_levels``, on the integer view, is the one predicate.
- Every import names a standard-library module or the package itself, so the
  library installs and runs with no third-party package.
- No module but ``cli`` imports ``time``: a search stops on a count, never on
  the clock, so every value the library returns is the same on any machine,
  and the front end reads the clock only for the timings it prints to stderr.
- No module calls a ``.scaled`` or ``.levels`` method, and ``Instance`` has
  none: ``Instance.from_data`` makes the integer view once, every module
  reads it ready-made (``scaled_edges``, ``scaled_rows``,
  ``Instance.costs``), and a map of ``Fraction`` values is put on it only
  in the tests, so no value makes a round trip from ints to ``Fraction``
  and back.
- No module but ``generators`` holds a bench-family name as a string literal:
  ``generators.FAMILIES`` owns each family's facts, so no other module can
  branch on a family.
- No module but ``core`` and ``generators`` calls ``as_fraction``: parsing a
  threshold belongs to ``Instance.from_data``, so the loader cannot drift
  from it, and the generators convert their own costs and levels.
- ``generators`` calls ``Fraction(...)`` only at module level, never in a
  function or lambda body: a draw reuses the module's shared threshold
  constants, which ``Instance.from_data`` parses once per object, and the
  installation rule runs on integers, so no draw, pair or height builds a
  ``Fraction`` of its own.
- No module but ``core`` reads an ``.edges`` attribute: the instance holds
  its integer table, ``scaled_edges``, and builds ``Edge`` tuples only when
  a user or a test reads ``Instance.edges``, so no solve or serialization
  path builds them.
- No library class subclasses another library class unless it is an
  exception: a variant of a record is another value of the record, not a
  subclass that overrides its behaviour.
- Every top-level function and class, and every name a module-level
  assignment binds, is named by library code outside its own statement
  (``__init__.py``'s exports do not count) or in the README, and so is
  every method of such a class; dunders, which the interpreter reads, are
  not checked, and the README does not count for a method.  Code that only
  the tests read belongs with the tests.
- No top-level function or method is an alias: a body that, docstring
  aside, only calls another function with the function's own parameters in
  order adds a name and nothing else.  A decorated one is not checked, as
  its decorator adds behaviour.
"""

import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

from aecover.cli import ALGORITHMS
from aecover.core import Instance
from aecover.generators import FAMILIES

SRC = Path(__file__).resolve().parent.parent / "src" / "aecover"
README = SRC.parent.parent / "README.md"
COSTS_OWNER = ("Instance", "costs")
REPORT_BUILDER = ("solve_report",)
# "general" names an algorithm as well as a family; the algorithm's modules
# must hold it, so it is not checked.
FAMILY_NAMES = frozenset(FAMILIES) - frozenset(ALGORITHMS)


def assert_statements(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def calls_outside(tree: ast.AST, callee: str, owner: tuple[str, ...]) -> list[int]:
    """Lines that call ``callee`` (by name or attribute) outside the scope
    ``owner``, a path of class and function names from the module top."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == callee and scope != owner:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def derive_costs_calls_outside_owner(tree: ast.AST) -> list[int]:
    return calls_outside(tree, "derive_costs", COSTS_OWNER)


def solve_reports_built_outside_builder(tree: ast.AST) -> list[int]:
    return calls_outside(tree, "SolveReport", REPORT_BUILDER)


def json_dumps_uses(tree: ast.AST) -> list[int]:
    """Lines that call ``json.dumps`` or import ``dumps`` from ``json``;
    applied to every module but fileio, where the one layout lives."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "dumps":
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name == "dumps" for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def fraction_activation_tests(tree: ast.AST) -> list[int]:
    """Lines that compare ``x >= e.tu`` or ``e.tv <= x``, for any ``e``."""

    def threshold(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("tu", "tv")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, ast.GtE) and threshold(b)) or (
                    isinstance(op, ast.LtE) and threshold(a)
                ):
                    found.append(node.lineno)
    return sorted(set(found))


def absolute_imports(tree: ast.AST):
    """``(line, module names)`` of each import statement but the relative
    ones, which name the package's own modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def third_party_imports(tree: ast.AST) -> list[int]:
    """Lines that import a module from neither the standard library nor ``aecover``."""
    allowed = sys.stdlib_module_names | {"aecover"}
    return sorted(line for line, names in absolute_imports(tree)
                  if any(name.partition(".")[0] not in allowed for name in names))


def time_imports(tree: ast.AST) -> list[int]:
    """Lines that import the ``time`` module or a name from it."""
    return sorted(line for line, names in absolute_imports(tree) if "time" in names)


def integer_view_calls(tree: ast.AST) -> list[int]:
    """Lines that call a ``.scaled`` or ``.levels`` method on anything."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("scaled", "levels")
    })


def as_fraction_calls(tree: ast.AST) -> list[int]:
    """Lines that call ``as_fraction``, by name or as an attribute."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "as_fraction"
    })


def fraction_calls_in_functions(tree: ast.AST) -> list[int]:
    """Lines inside a function or lambda body that call ``Fraction``, by name
    or as an attribute; defaults and decorators run once, at definition."""
    bodies = [
        part
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for part in (fn.body if isinstance(fn.body, list) else [fn.body])
    ]
    return sorted({
        node.lineno
        for part in bodies
        for node in ast.walk(part)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
    })


def edges_reads(tree: ast.AST) -> list[int]:
    """Lines that read an ``.edges`` attribute of anything."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "edges"
        and isinstance(node.ctx, ast.Load)
    })


def family_name_literals(tree: ast.AST) -> list[int]:
    """Lines holding a string literal equal to a checked bench-family name."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in FAMILY_NAMES
    })


def names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name)
    return found


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def assigned_names(node: ast.AST) -> list[str]:
    """The names that ``node``, if an assignment, binds; dunders aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        t.id for target in targets for t in ast.walk(target)
        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store) and not is_dunder(t.id)
    ]


def unread_definitions(trees: dict[str, ast.AST], readme: str) -> dict[str, list[str]]:
    """Top-level functions and classes, and names bound by module-level
    assignments, per module, that no library code names outside their own
    statement, not counting ``__init__.py``, and that the README does not
    name; and methods of top-level classes, as ``Class.method``, that no
    library code names outside their own definition, whatever the README
    says.  Dunders are not checked.

    Each top-level statement reads the names under it, except that a class
    reads through its header and each statement of its body apart, so a
    method's own body does not read it but its class's other methods do."""
    readers = []  # (top-level node, class body statement or None, names)
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                readers.append((node, None, names_in(node)))
                continue
            header = [*node.bases, *node.keywords, *node.decorator_list]
            readers.append((node, None, set().union(*map(names_in, header))))
            readers.extend((node, member, names_in(member)) for member in node.body)
    found = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            else:
                defined = assigned_names(node)
            for top_name in defined:
                read = any(top_name in names for top, _, names in readers if top is not node)
                if not read and not re.search(rf"\b{top_name}\b", readme):
                    found.setdefault(name, []).append(top_name)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or is_dunder(method.name):
                    continue
                if not any(method.name in names for _, member, names in readers if member is not method):
                    found.setdefault(name, []).append(f"{node.name}.{method.name}")
    return found


def library_subclasses(trees: dict[str, ast.AST]) -> dict[str, list[str]]:
    """Top-level classes, per module, with a base that names a top-level
    class of the library, unless the class is an exception: a base leads,
    through library classes, to a built-in exception."""
    classes = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def base_names(node: ast.ClassDef) -> list[str]:
        return [getattr(base, "id", getattr(base, "attr", None)) for base in node.bases]

    def is_exception(name: str) -> bool:
        if name in classes:
            return any(map(is_exception, base_names(classes[name])))
        builtin = getattr(builtins, name or "", None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and not is_exception(node.name)
                    and any(name in classes for name in base_names(node))):
                found.setdefault(module, []).append(node.name)
    return found


def forwarding_aliases(tree: ast.AST) -> list[int]:
    """Lines of the undecorated top-level functions and methods of top-level
    classes whose body, docstring aside, is one call, returned or not, that
    passes the function's own parameters in order and nothing else."""
    found = []
    functions = [node for top in tree.body
                 for node in (top.body if isinstance(top, ast.ClassDef) else [top])]
    for fn in functions:
        if not isinstance(fn, ast.FunctionDef) or fn.decorator_list:
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
            continue
        call, a = body[0].value, fn.args
        if a.vararg or a.kwarg or a.kwonlyargs or not isinstance(call, ast.Call) or call.keywords:
            continue
        params = [p.arg for p in (*a.posonlyargs, *a.args)]
        if [getattr(x, "id", None) for x in call.args] == params:
            found.append(fn.lineno)
    return found


RULES = [
    assert_statements,
    derive_costs_calls_outside_owner,
    solve_reports_built_outside_builder,
    fraction_activation_tests,
    third_party_imports,
    forwarding_aliases,
]


def library_trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
def test_library_obeys(rule):
    breaches = {name: lines for name, tree in library_trees() if (lines := rule(tree))}
    assert breaches == {}


def test_json_dumps_only_in_fileio():
    trees = dict(library_trees())
    breaches = {name: lines for name, tree in trees.items()
                if name != "fileio.py" and (lines := json_dumps_uses(tree))}
    assert breaches == {}
    assert json_dumps_uses(trees["fileio.py"]), "the layout owner lost its json.dumps"


def test_time_imported_only_in_cli():
    breaches = {name: lines for name, tree in library_trees()
                if name != "cli.py" and (lines := time_imports(tree))}
    assert breaches == {}


def test_integer_view_made_only_in_core():
    breaches = {name: lines for name, tree in library_trees() if (lines := integer_view_calls(tree))}
    assert breaches == {}
    assert not any(hasattr(Instance, name) for name in ("scaled", "levels"))


def test_as_fraction_only_in_core_and_generators():
    trees = dict(library_trees())
    owners = ("core.py", "generators.py")
    breaches = {name: lines for name, tree in trees.items()
                if name not in owners and (lines := as_fraction_calls(tree))}
    assert breaches == {}
    assert all(as_fraction_calls(trees[name]) for name in owners), "a parser owner lost its calls"


def test_generators_call_fraction_only_at_module_level():
    assert fraction_calls_in_functions(dict(library_trees())["generators.py"]) == []


def test_edges_read_only_in_core():
    breaches = {name: lines for name, tree in library_trees()
                if name != "core.py" and (lines := edges_reads(tree))}
    assert breaches == {}


def test_family_names_only_in_generators():
    trees = dict(library_trees())
    breaches = {name: lines for name, tree in trees.items()
                if name != "generators.py" and (lines := family_name_literals(tree))}
    assert breaches == {}
    assert family_name_literals(trees["generators.py"]), "the family table lost its names"


def test_only_exceptions_subclass_library_classes():
    assert library_subclasses(dict(library_trees())) == {}


def test_every_definition_is_read_by_the_library():
    assert unread_definitions(dict(library_trees()), README.read_text()) == {}


def test_derive_costs_has_its_owner():
    # The rule is vacuous if the one permitted call disappears.
    core = dict(library_trees())["core.py"]
    calls = [
        node
        for node in ast.walk(core)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "derive_costs"
    ]
    assert len(calls) == 1


def test_solve_report_has_its_builder():
    report = dict(library_trees())["report.py"]
    builder = next(
        node for node in report.body
        if isinstance(node, ast.FunctionDef) and node.name == "solve_report"
    )
    calls = [
        node for node in ast.walk(builder)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SolveReport"
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


BROKEN_REPORTS = '''
import json
from json import dumps
from .report import SolveReport, solve_report

def solve_report(inst):
    return SolveReport(inst)

def solve(inst):
    text = json.dumps({"a": 1}, sort_keys=True)
    return report.SolveReport(inst), dumps, text

class SolveReportBuilder:
    def solve_report(self):
        return SolveReport(self)
'''


def test_report_rules_catch_breaches():
    tree = ast.parse(BROKEN_REPORTS)
    assert solve_reports_built_outside_builder(tree) == [11, 15]
    assert json_dumps_uses(tree) == [3, 10]


BROKEN_PREDICATE = '''
def met(inst, values, e):
    if values.get(e.u, ZERO) >= e.tu and values.get(e.v, ZERO) >= e.tv:
        return True
    return e.tv <= values[e.v] < e.tu

def fine(inst, values, e, levels, tu):
    return values[e.u] < e.tu or levels[e.u] >= tu or e.tu >= 0 or max(e.tu, e.tv)
'''


def test_predicate_rule_catches_breaches():
    assert fraction_activation_tests(ast.parse(BROKEN_PREDICATE)) == [3, 5]


def test_predicate_rule_sees_the_integer_view():
    # The rule is vacuous if the one predicate stops reading edges' thresholds
    # on the integer view.
    core = dict(library_trees())["core.py"]
    predicate = next(
        node for node in core.body
        if isinstance(node, ast.FunctionDef) and node.name == "active_at_levels"
    )
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "scaled_edges"
        for node in ast.walk(predicate)
    )


BROKEN_IMPORTS = '''
from __future__ import annotations
import json, networkx as nx
from collections import deque
from . import core
from .core import Instance
from aecover.unit import exact_bb
from numpy.linalg import norm
import os.path

def solve():
    import scipy
'''


def test_import_rule_catches_breaches():
    assert third_party_imports(ast.parse(BROKEN_IMPORTS)) == [3, 8, 12]


BROKEN_CLOCKS = '''
import os, time
import time as clock
from time import monotonic
from datetime import time as time_of_day
from . import timing
import timeit

def budget():
    from time import perf_counter
    return perf_counter()
'''


def test_time_rule_catches_breaches():
    # The datetime class, a sibling module and timeit are not the clock module.
    assert time_imports(ast.parse(BROKEN_CLOCKS)) == [2, 3, 4, 10]


BROKEN_FAMILIES = '''
ALGORITHMS = ("auto", "general", "unit-a1")

def cmd_gen(args):
    if args.family == "tight73":
        return 1
    limits = {"unit": {"max_nodes": 80}}.get(args.family)
    return args.family in ("uniform-unit", "setcover", "tight") or limits
'''


def test_family_rule_catches_breaches():
    assert family_name_literals(ast.parse(BROKEN_FAMILIES)) == [5, 7, 8]


BROKEN_SCALING = '''
def solve(inst, costs, spec):
    q = inst.levels(costs.q)
    w = {v: inst.scaled(x) for v, x in costs.c.items()}
    grid = spec.levels[v] + sorted(spec.levels.get(u, ()))
    return q, w, levels(q), scaled(w), grid, inst.scaled_edges, Instance.levels(inst, q)
'''


def test_integer_view_rule_catches_breaches():
    assert integer_view_calls(ast.parse(BROKEN_SCALING)) == [3, 4, 6]


BROKEN_UNREAD = {
    "a.py": '''
def used():
    return helper()

def helper():
    return 1

def only_itself(n):
    return only_itself(n - 1) if n else 0

class Documented:
    pass

def only_in_a_string():
    pass
''',
    "b.py": '''
from .a import used

def entry():
    """Not only_in_a_string."""
    return used(), "only_in_a_string"
''',
    "__init__.py": '''
from .a import only_itself
from .b import entry
''',
}


def test_unread_rule_catches_breaches():
    trees = {name: ast.parse(text) for name, text in BROKEN_UNREAD.items()}
    readme = "Call `entry()`; `Documented` is the result type."
    assert unread_definitions(trees, readme) == {"a.py": ["only_itself", "only_in_a_string"]}


BROKEN_METHODS = {
    "a.py": '''
class Shape:
    def __init__(self):
        self.size = self.area()

    def area(self):
        return 1

    def only_itself(self, n):
        return self.only_itself(n - 1) if n else 0

    def documented(self):
        pass

    @property
    def read_elsewhere(self):
        return Shape
''',
    "b.py": '''
from .a import Shape

def entry():
    return Shape().read_elsewhere
''',
    "__init__.py": '''
from .a import Shape
Shape.documented
''',
}


def test_unread_rule_checks_methods():
    # A method counts as read only by library code outside its own body:
    # another method of its class, or another module, but not the README
    # or the package's exports.  Dunders are the interpreter's to call.
    trees = {name: ast.parse(text) for name, text in BROKEN_METHODS.items()}
    readme = "Call `entry()`; `Shape.documented()` is public."
    assert unread_definitions(trees, readme) == {
        "a.py": ["Shape.only_itself", "Shape.documented"]
    }


BROKEN_PARSING = '''
from . import core
from .core import as_fraction

def parse(rec, as_fraction_table):
    tu = as_fraction(rec["tu"])
    tv = core.as_fraction(rec["tv"])
    f = as_fraction
    return tu, tv, f, as_fraction_table["tu"], parse_as_fraction(rec)
'''


def test_as_fraction_rule_catches_breaches():
    assert as_fraction_calls(ast.parse(BROKEN_PARSING)) == [6, 7]


BROKEN_DRAWS = '''
import fractions
from fractions import Fraction

ONE = Fraction(1)
POOL = tuple(Fraction(x) for x in ("1", "3/2"))

def draw(rng, one=Fraction(1)):
    t = Fraction(rng.choice(POOL))
    pick = lambda: fractions.Fraction(2)
    def inner():
        return [Fraction(x, 2) for x in range(3)]
    return t, pick, inner, isinstance(t, Fraction)

class Sized:
    HALF = Fraction(1, 2)

    def scale(self, x):
        return Fraction(x) * self.HALF
'''


def test_fraction_rule_catches_breaches():
    # Module-level constants, a default and a class attribute run once; the
    # calls in the function bodies, nested ones included, run per draw.
    assert fraction_calls_in_functions(ast.parse(BROKEN_DRAWS)) == [9, 10, 12, 19]


BROKEN_EDGES = '''
def dump(inst, spec):
    for e in inst.edges:
        yield e.u
    first = inst.edges[0].other("a")
    rows, edges = inst.scaled_edges, spec.edges
    inst.edges_at, self.edges = rows, edges
    return first, edges, getattr(inst, "edges_at")
'''


def test_edges_rule_catches_breaches():
    assert edges_reads(ast.parse(BROKEN_EDGES)) == [3, 5, 6]


BROKEN_SUBCLASSES = {
    "a.py": '''
from typing import NamedTuple

class Base(Exception):
    pass

class Derived(Base):
    pass

class Record(NamedTuple):
    name: str

class Solver:
    def start(self):
        return 1

class Shared(Solver):
    def start(self):
        return 2
''',
    "b.py": '''
from . import a

class Error(a.Derived, ValueError):
    pass

class Variant(a.Record):
    pass

class Mixed(a.Solver, Exception):
    pass
''',
}


def test_subclass_rule_catches_breaches():
    # An exception, built-in at the root of its bases, may extend any library
    # class; any other class, a record's subclass among them, may extend none.
    trees = {name: ast.parse(text) for name, text in BROKEN_SUBCLASSES.items()}
    assert library_subclasses(trees) == {"a.py": ["Shared"], "b.py": ["Variant"]}


BROKEN_ASSIGNMENTS = {
    "a.py": '''
from typing import Union

LIMIT = 10
UNUSED: int = 3
PAIR, SPARE = 1, 2
TOTAL = sum(range(LIMIT))
Number = Union[int, float]
ONLY_ITSELF = [ONLY_ITSELF for ONLY_ITSELF in range(3)]
__version__ = "1"

def scaled(x: Number) -> int:
    return x * LIMIT + PAIR
''',
    "b.py": '''
from .a import scaled

def entry():
    return scaled(1), "UNUSED"
''',
    "__init__.py": '''
from .a import SPARE, TOTAL
from .b import entry
''',
}


def test_unread_rule_checks_module_assignments():
    # A name bound at the top of a module counts as read only outside its
    # own statement, by library code other than the package's exports, or
    # in the README; a string holding it is not a read, and dunders are
    # the interpreter's to read.
    trees = {name: ast.parse(text) for name, text in BROKEN_ASSIGNMENTS.items()}
    readme = "Call `entry()`; `TOTAL` is documented."
    assert unread_definitions(trees, readme) == {"a.py": ["UNUSED", "SPARE", "ONLY_ITSELF"]}


BROKEN_ALIASES = '''
import functools

def format_value(x):
    return str(x)

def forward(a, b):
    """Documented, but still only a call."""
    return combine(a, b)

def fire(event):
    emit(event)

def swapped(a, b):
    return combine(b, a)

def partial(a, b):
    return combine(a)

def keyed(a):
    return combine(a, strict=True)

def spread(*args):
    return combine(*args)

@functools.cache
def cached(a):
    return combine(a)

def work(a):
    a = a + 1
    return combine(a)

class Box:
    def get(self, key):
        return lookup(self, key)

    def size(self):
        return len(self.items)
'''


def test_alias_rule_catches_breaches():
    assert forwarding_aliases(ast.parse(BROKEN_ALIASES)) == [4, 7, 11, 35]
