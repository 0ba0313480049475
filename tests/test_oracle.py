"""Exact branch-and-bound oracle, and the star decomposition of its optima
(a ``conftest`` helper)."""

import math
import os
import random
import subprocess
import sys

import pytest

import aecover
import conftest
from aecover.core import Instance
from aecover.errors import BudgetExceeded, DomainError, LimitExceeded
from aecover.fileio import dumps_instance
from aecover.generators import (
    FAMILIES,
    generate,
    random_general,
    random_minpower,
    random_unit,
    tight73,
)
from aecover.oracle import exact_solve
from conftest import (
    StarDecompositionViolated,
    assignment_of,
    brute_force_node_levels,
    covers,
    exact_costs,
    exact_star_decomposition,
    reference_exact_solve,
)


def test_single_edge(tiny_instance):
    result = exact_solve(tiny_instance)
    assert result.value == 5
    assert covers(tiny_instance, result.assignment)[0]


def test_minpower_star():
    nodes = ["c", "t1", "t2", "t3"]
    edges = [("t1", "c", 1, 1), ("t2", "c", 1, 1), ("t3", "c", 1, 1)]
    inst = Instance.from_data(nodes, ["t1", "t2", "t3"], edges)
    assert exact_solve(inst).value == 4  # one at the center plus one per terminal


def test_tight73_optimum():
    inst, _ = tight73()
    result = exact_solve(inst, max_terminals=48, max_nodes=80)
    assert result.value == 60
    assert covers(inst, result.assignment)[0]


def test_matches_node_level_brute_force():
    for seed in range(50):
        inst = random_general(6, 9, 3, seed, r=3)
        assert exact_solve(inst).value == brute_force_node_levels(inst)


def test_oracle_at_least_q():
    for seed in range(40):
        inst = random_minpower(8, 13, seed)
        costs = exact_costs(inst)
        assert exact_solve(inst).value >= costs.Q


def test_permutation_invariance():
    rng = random.Random(5)
    for seed in range(20):
        inst = random_general(7, 11, 3, seed)
        value = exact_solve(inst).value
        perm = list(inst.nodes)
        rng.shuffle(perm)
        relabel = dict(zip(inst.nodes, perm))
        shuffled = Instance.from_data(
            sorted(perm),
            [relabel[t] for t in inst.terminals],
            [(relabel[e.u], relabel[e.v], e.tu, e.tv) for e in inst.edges],
        )
        assert exact_solve(shuffled).value == value


def test_deterministic_result():
    inst = random_general(8, 14, 3, 77)
    a = exact_solve(inst)
    b = exact_solve(inst)
    assert a.value == b.value
    assert a.assignment == b.assignment
    assert a.nodes_expanded == b.nodes_expanded


def test_limits():
    inst = random_unit(12, 20, 0, r=8)
    with pytest.raises(LimitExceeded):
        exact_solve(inst, max_terminals=3)
    with pytest.raises(LimitExceeded):
        exact_solve(inst, max_nodes=5)


def assert_matches_reference(inst, **limits):
    result = exact_solve(inst, **limits)
    got = (result.value, dict(result.assignment.values), result.nodes_expanded)
    assert got == reference_exact_solve(inst, **limits)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_fraction_reference_on_families(family):
    # Same value, assignment and search order as the Fraction search.
    for seed in range(50):
        assert_matches_reference(generate(family, seed), **FAMILIES[family].limits)


@pytest.mark.parametrize("r", [10, 14])
def test_matches_fraction_reference_on_the_ladder(r):
    assert_matches_reference(random_general(32, 96, 6, seed=2, r=r), max_terminals=r)


def test_budget_exceeded_carries_incumbent():
    inst, _ = tight73()
    with pytest.raises(BudgetExceeded) as info:
        exact_solve(inst, max_terminals=48, max_nodes=80, max_expanded=0)
    best = info.value.best
    assert not best.optimal
    assert best.nodes_expanded == 0
    assert covers(inst, best.assignment)[0]  # the cheapest-edge incumbent


@pytest.mark.parametrize("budget", [-1, -(10**30), -1.0, -1e-9, 0.5, math.nan, True])
def test_meaningless_budget_is_refused(budget):
    inst, _ = tight73()
    with pytest.raises(DomainError):
        exact_solve(inst, max_terminals=48, max_nodes=80, max_expanded=budget)


@pytest.mark.parametrize("budget, value, nodes", [(100, 61, 100), (500, 59, 500)])
def test_search_stopped_mid_way_is_pinned(budget, value, nodes):
    # Unbudgeted, this ladder rung takes 198,558 nodes to prove 57.
    inst = random_general(32, 96, 6, seed=2, r=26)
    with pytest.raises(BudgetExceeded) as info:
        exact_solve(inst, max_terminals=64, max_expanded=budget)
    best = info.value.best
    assert (best.value, best.nodes_expanded, best.optimal) == (value, nodes, False)
    assert covers(inst, best.assignment)[0]


def test_budget_of_exactly_the_search_size_proves_optimality():
    inst = generate("general", 0)
    full = exact_solve(inst, **FAMILIES["general"].limits)
    at = exact_solve(inst, max_expanded=full.nodes_expanded, **FAMILIES["general"].limits)
    assert (at.value, at.assignment, at.nodes_expanded, at.optimal) == (
        full.value, full.assignment, full.nodes_expanded, True
    )
    with pytest.raises(BudgetExceeded) as info:
        exact_solve(inst, max_expanded=full.nodes_expanded - 1, **FAMILIES["general"].limits)
    assert info.value.best.nodes_expanded == full.nodes_expanded - 1


class TestStarDecomposition:
    def test_single_star_optimum(self):
        nodes = ["c", "t1", "t2"]
        inst = Instance.from_data(
            nodes, ["t1", "t2"], [("t1", "c", 1, 1), ("t2", "c", 1, 1)]
        )
        stars = exact_star_decomposition(inst, exact_solve(inst).assignment)
        assert len(stars) == 1
        assert stars[0].root == "c" and stars[0].leaves == ("t1", "t2")

    def test_matching_shape_gives_singleton_stars(self):
        nodes = ["t1", "t2", "v1", "v2"]
        edges = [("t1", "v1", 1, 1), ("t2", "v2", 1, 1)]
        inst = Instance.from_data(nodes, ["t1", "t2"], edges)
        stars = exact_star_decomposition(inst, exact_solve(inst).assignment)
        assert len(stars) == 2
        assert all(len(s.leaves) == 1 for s in stars)
        assert {s.root for s in stars} == {"v1", "v2"}

    def test_structure_on_seeds(self):
        for seed in range(40):
            inst = random_general(8, 13, 3, seed)
            result = exact_solve(inst)
            stars = exact_star_decomposition(inst, result.assignment)
            seen_nodes: set[str] = set()
            leaves_and_roots: set[str] = set()
            for star in stars:
                star_nodes = {star.root, *star.leaves}
                assert not (star_nodes & seen_nodes), "stars must be node disjoint"
                seen_nodes |= star_nodes
                assert all(leaf in inst.terminals for leaf in star.leaves)
                leaves_and_roots |= star_nodes
            assert inst.terminals <= leaves_and_roots


def test_instance_unchanged_by_solve():
    inst = random_general(7, 11, 3, 3)
    before = dumps_instance(inst)
    exact_solve(inst)
    assert dumps_instance(inst) == before


class TestStarDecompositionGuards:
    """The decomposition's shape checks, tripped by a cover-minimization step
    that keeps every activated edge."""

    @staticmethod
    def decompose_unminimized(monkeypatch, inst):
        monkeypatch.setattr(conftest, "_minimal_cover", lambda inst, active: list(active))
        return exact_star_decomposition(inst, assignment_of({n: 1 for n in inst.nodes}))

    def test_path_component_is_not_a_star(self, monkeypatch):
        nodes = ["a", "b", "c", "d"]
        path = [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "d", 1, 1)]
        inst = Instance.from_data(nodes, nodes, path)
        assert len(exact_star_decomposition(inst, assignment_of({n: 1 for n in nodes}))) == 2
        with pytest.raises(StarDecompositionViolated):
            self.decompose_unminimized(monkeypatch, inst)

    def test_non_terminal_leaf_is_rejected(self, monkeypatch):
        inst = Instance.from_data(["t", "v", "w"], ["t"], [("t", "v", 1, 1), ("v", "w", 1, 1)])
        with pytest.raises(StarDecompositionViolated, match="non-terminal leaf"):
            self.decompose_unminimized(monkeypatch, inst)


def test_output_guards_survive_optimize_flag():
    # Under python -O every assert is gone; each guard must still raise.
    code = (
        "import conftest\n"
        "from aecover.core import Instance\n"
        "from aecover.errors import IncompleteCover\n"
        "from aecover.unit import SetCoverInstance, greedy_hk\n"
        "conftest._minimal_cover = lambda inst, active: list(active)\n"
        "raised = 0\n"
        "for nodes, terms, edges in [\n"
        "    ('abcd', 'abcd', [('a', 'b', 1, 1), ('b', 'c', 1, 1), ('c', 'd', 1, 1)]),\n"
        "    ('tvw', 't', [('t', 'v', 1, 1), ('v', 'w', 1, 1)]),\n"
        "]:\n"
        "    inst = Instance.from_data(list(nodes), list(terms), edges)\n"
        "    try:\n"
        "        conftest.exact_star_decomposition(inst, conftest.assignment_of({n: 1 for n in nodes}))\n"
        "    except conftest.StarDecompositionViolated:\n"
        "        raised += 1\n"
        "SetCoverInstance.check_feasible = lambda self: None\n"
        "try:\n"
        "    greedy_hk(SetCoverInstance(('a', 'b'), {'s': frozenset({'a'})}), 2)\n"
        "except IncompleteCover:\n"
        "    raised += 1\n"
        "raise SystemExit(raised + 4)\n"
    )
    src = os.path.dirname(os.path.dirname(aecover.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.path.dirname(conftest.__file__)))}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert done.returncode == 7
