"""Instance model, derived costs, activation, and the levels reduction."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from aecover import core
from aecover.cli import run_algorithm
from aecover.core import (
    Assignment,
    Instance,
    Edge,
    _prune_dominated,
    active_at_levels,
    as_fraction,
    complete,
    covered_terminals,
    derive_costs,
    max_slope,
)
from aecover.errors import DomainError, EmptyLevels, InvalidInstance, IsolatedTerminal
from aecover.generators import FAMILIES, from_installation, generate, random_general, random_minpower
from aecover.oracle import exact_solve
from conftest import (
    ZERO,
    active_edges,
    assignment_of,
    assignment_total,
    covers,
    exact_costs,
    other_end,
    quadratic_prune,
    random_multigraph,
    reference_from_data,
    reference_installation,
    threshold_at,
    to_levels,
)


def build_outcome(build, nodes, terminals, edges):
    """``build``'s result as plain tuples, or its error's type and message."""
    try:
        got = build(nodes, terminals, edges)
    except InvalidInstance as exc:
        return type(exc), str(exc)
    if isinstance(got, Instance):
        got = got.nodes, got.terminals, [tuple(e) for e in got.edges]
    for e in got[2]:
        assert type(e[2]) is Fraction and type(e[3]) is Fraction
    return got


def assert_same_costs(inst, got, want):
    """``got`` equals ``want``, the exact costs, with q, c, Q and C times
    ``inst.scale``, as ints."""
    L = inst.scale
    assert got.q == {u: x * L for u, x in want.q.items()}
    assert got.c == {u: x * L for u, x in want.c.items()}
    assert (got.Q, got.C) == (want.Q * L, want.C * L)
    assert (got.theta, got.delta, got.cheapest) == (want.theta, want.delta, want.cheapest)
    assert type(got.theta) is type(want.theta)
    for x in (got.Q, got.C, *got.q.values(), *got.c.values()):
        assert type(x) is int


class TestInstance:
    def test_canonical_edge_order(self):
        inst = Instance.from_data(
            ["a", "b", "c"],
            ["a"],
            [("c", "a", 5, 1), ("b", "a", 2, 1), ("a", "b", 1, 3)],
        )
        keys = [(inst.index[e.u], inst.index[e.v], e.tu, e.tv) for e in inst.edges]
        assert keys == sorted(keys)
        # Orientation follows node order and thresholds stay with their
        # endpoint; the (1,3) parallel edge is dominated by (1,2) and pruned.
        assert [(e.u, e.v, e.tu, e.tv) for e in inst.edges] == [
            ("a", "b", 1, 2),
            ("a", "c", 1, 5),
        ]

    def test_is_unit_matches_every_edge_end(self):
        # The reference tests both thresholds of every edge.
        cases = [generate(family, seed) for family in sorted(FAMILIES) for seed in range(10)]
        cases += [
            Instance.from_data(["a"], ["a"], []),
            Instance.from_data(["a", "b"], ["a"], [("a", "b", 1, "2/2")]),
            Instance.from_data(["a", "b", "c"], ["a"], [("a", "b", 1, 1), ("a", "c", 1, "1/2")]),
        ]
        verdicts = [inst.is_unit() for inst in cases]
        assert verdicts == [all(e.tu == 1 and e.tv == 1 for e in inst.edges) for inst in cases]
        assert any(verdicts) and not all(verdicts)

    def test_dominated_parallel_edges_pruned(self):
        inst = Instance.from_data(
            ["a", "b"],
            ["a"],
            [("a", "b", 1, 2), ("a", "b", 2, 3), ("a", "b", 1, 2), ("a", "b", 2, 1)],
        )
        assert len(inst.edges) == 2  # (1,2) and (2,1) are incomparable
        assert {(e.tu, e.tv) for e in inst.edges} == {(1, 2), (2, 1)}

    def test_prune_matches_quadratic_reference(self):
        # Few node pairs and a small threshold pool: many parallel edges,
        # duplicates and incomparable pairs.
        rng = random.Random(11)
        pool = [0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2)]
        for case in range(200):
            n = rng.randint(2, 4)
            idx = {f"n{i}": i for i in range(n)}
            edges = []
            for _ in range(rng.randint(1, 40)):
                u, v = sorted(rng.sample(list(idx), 2), key=idx.__getitem__)
                edges.append(Edge(u, v, Fraction(rng.choice(pool)), Fraction(rng.choice(pool))))
            edges.sort(key=lambda e: (idx[e.u], idx[e.v], e.tu, e.tv))
            assert _prune_dominated(edges) == quadratic_prune(edges), case

    def test_from_data_matches_reference_on_families(self):
        # Each family instance is fed back reversed in order and orientation,
        # with a dominated copy of every third edge.
        for family in FAMILIES:
            for seed in range(20):
                inst = generate(family, seed)
                edges = []
                for j, e in enumerate(reversed(inst.edges)):
                    edges.append((e.v, e.u, e.tv, e.tu))
                    if j % 3 == 0:
                        edges.append((e.u, e.v, e.tu + 1, e.tv))
                args = (inst.nodes, inst.terminals, edges)
                got = build_outcome(Instance.from_data, *args)
                assert got == build_outcome(reference_from_data, *args), (family, seed)
                assert Instance.from_data(*args) == inst

    def test_from_data_matches_reference_on_random_multigraphs(self):
        rng = random.Random(17)
        pool = [0, 1, 2, "3/2", "0.25", Fraction(2, 3), Fraction(5, 2), "1/2", "2/4"]
        for case in range(400):
            nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
            terminals = rng.sample(nodes, rng.randint(0, len(nodes)))
            # Shared objects for some thresholds, fresh ones for others.
            shared = [Fraction(x) for x in ("1/3", "4", "0")]
            edges = []
            for _ in range(rng.randint(0, 30)):
                u, v = rng.sample(nodes, 2)
                ts = [rng.choice(pool + shared) for _ in range(2)]
                edges.append((u, v, *ts))
            args = (nodes, terminals, edges)
            assert build_outcome(Instance.from_data, *args) == build_outcome(
                reference_from_data, *args
            ), case

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b", 1, 1), ("a", "b", -1, 2)],
            [("a", "b", 1, 1), ("b", "a", 2, "-1/2")],
            [("a", "b", 1, 1), ("a", "a", 1, 1)],
            [("a", "b", 1, 1), ("a", "z", 1, 1)],
            [("z", "b", -1, 1)],
            [("a", "b", True, 1)],
            [("a", "b", 1, 1), ("a", "b", 1, False)],
            [("a", "b", 1, 1), ("a", "b", 1.5, 1)],
            [("a", "b", "x", -1)],
            [("a", "b", -1, "x")],
        ],
    )
    def test_from_data_raises_the_reference_errors(self, edges):
        # The parse and sign of a shared threshold object are checked once;
        # an object seen again must not skip the checks of the other one.
        neg = Fraction(-1)
        edges = edges + [("a", "b", neg, 1), ("b", "a", 1, neg)]
        args = (["a", "b", "c"], ["a"], edges)
        got = build_outcome(Instance.from_data, *args)
        assert got == build_outcome(reference_from_data, *args)
        assert got[0] is InvalidInstance

    @pytest.mark.parametrize(
        "nodes, terminals, message",
        [
            ([1, 2, 3], [1, 2], "nodes must be strings"),
            (["a", ["b"]], ["a"], "nodes must be strings"),
            (["a", "b"], ["a", 2], "terminals must be strings"),
            ([1, "b"], [2], "nodes must be strings"),
            (["a", "a"], [2], "terminals must be strings"),
        ],
    )
    def test_from_data_refuses_ids_that_are_not_strings(self, nodes, terminals, message):
        args = (nodes, terminals, [])
        assert build_outcome(Instance.from_data, *args) == (InvalidInstance, message)
        assert build_outcome(reference_from_data, *args) == (InvalidInstance, message)

    def test_missing_terminals_are_named_in_input_order(self):
        for terminals in itertools.permutations(["t1", "t2", "t3", "a"]):
            first = next(t for t in terminals if t != "a")
            with pytest.raises(InvalidInstance, match=f"^terminal '{first}' is not a node$"):
                Instance.from_data(["a", "b"], terminals, [("a", "b", 1, 1)])

    def test_an_int_threshold_is_parsed_once_per_object(self, monkeypatch):
        # A 2,000-edge ring with int thresholds parses each int object once,
        # as it parses each string literal once.
        calls = []
        monkeypatch.setattr(core, "as_fraction", lambda x: calls.append(x) or as_fraction(x))
        big = 10**30
        nodes = [f"n{i}" for i in range(2000)]
        edges = [(nodes[i - 1], nodes[i], 2 if i % 2 else big, 3) for i in range(2000)]
        inst = Instance.from_data(nodes, nodes[:1], edges)
        assert calls == [big, 3, 2]
        assert inst.thresholds == {2: 2, 3: 3, big: big}

    def test_fresh_threshold_objects_keep_their_own_values(self):
        # Each edge brings new threshold objects that nothing else holds; a
        # str subclass is keyed by id like any object but not a str, and its
        # Fraction keeps no reference to it.  The build holds each one, so no
        # later object reuses an id with another value.
        class Literal(str):
            pass

        nodes = [f"n{i}" for i in range(400)]
        edges = [(nodes[i - 1], nodes[i], f"{i % 3}/7", f"{i % 5}/3") for i in range(400)]
        fresh = ((u, v, Literal(tu), Literal(tv)) for u, v, tu, tv in edges)
        inst = Instance.from_data(nodes, [], fresh)
        assert [tuple(e) for e in inst.edges] == reference_from_data(nodes, [], edges)[2]

    def test_scaled_rows_are_exact(self):
        for seed in range(10):
            inst = generate("setcover-t10", seed)
            L = inst.scale
            assert L in (10, 20)
            for n in inst.nodes:
                rows = inst.scaled_rows[n]
                assert [r[0] for r in rows] == sorted(r[0] for r in rows)
                expect = sorted(
                    (threshold_at(inst.edges[i], n) * L, other_end(inst.edges[i], n),
                     threshold_at(inst.edges[i], other_end(inst.edges[i], n)) * L)
                    for i in inst.edges_at[n]
                )
                assert sorted(rows) == expect
                assert all(isinstance(x, int) for r in rows for x in (r[0], r[2]))

    def test_validation_errors(self):
        with pytest.raises(InvalidInstance):
            Instance.from_data(["a"], [], [("a", "a", 1, 1)])
        with pytest.raises(InvalidInstance):
            Instance.from_data(["a"], ["b"], [])
        with pytest.raises(InvalidInstance):
            Instance.from_data(["a", "b"], [], [("a", "b", -1, 0)])
        with pytest.raises(InvalidInstance):
            Instance.from_data(["a", "a"], [], [])

    def test_assignment_algebra(self):
        a = assignment_of({"x": Fraction(1, 2), "y": 0})
        b = assignment_of({"x": "3/2", "z": 1})
        assert assignment_total(a) == Fraction(1, 2)
        assert "y" not in a.values
        assert b.values.get("x", ZERO) == Fraction(3, 2) and b.values.get("y", ZERO) == 0


class TestMaxSlope:
    @pytest.mark.parametrize(
        "pairs, slope",
        [
            ([], 0),
            ([(0, 0)], 0),
            ([(0, 5)], 0),
            ([(3, 0)], math.inf),
            ([(0, 0), (3, 2)], Fraction(3, 2)),
            ([(3, 2), (5, 3), (4, 3)], Fraction(5, 3)),
            ([(6, 4), (3, 2)], Fraction(3, 2)),
            ([(7, 1), (0, 0), (1, 0), (9, 1)], math.inf),
        ],
    )
    def test_cases(self, pairs, slope):
        got = max_slope(iter(pairs))
        assert got == slope and type(got) is type(slope if slope == math.inf else Fraction(0))

    def test_matches_fraction_reference(self):
        rng = random.Random(13)
        for case in range(500):
            pairs = [(rng.randint(0, 6), rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]
            want = Fraction(0)
            for num, den in pairs:
                if den:
                    want = max(want, Fraction(num, den))
                elif num:
                    want = math.inf
                    break
            assert max_slope(pairs) == want, case


class TestDeriveCosts:
    def test_single_edge(self, tiny_instance):
        costs = derive_costs(tiny_instance)
        assert costs.q["u"] == 2 and costs.c["u"] == 3
        assert costs.Q == 2 and costs.C == 3
        assert costs.theta == Fraction(3, 2)
        assert costs.delta == 1

    def test_two_edge_minimum(self):
        inst = Instance.from_data(
            ["u", "v", "w"], ["u"], [("u", "v", 2, 3), ("u", "w", 1, 10)]
        )
        costs = derive_costs(inst)
        assert costs.q["u"] == 1
        assert costs.c["u"] == 4  # min edge value 5 comes from the (2,3) edge

    def test_minpower_theta_at_most_one(self):
        for seed in range(25):
            inst = random_minpower(8, 14, seed)
            assert derive_costs(inst).theta <= 1

    def test_isolated_terminal(self):
        inst = Instance.from_data(["u", "v", "w"], ["u", "w"], [("u", "v", 1, 1)])
        with pytest.raises(IsolatedTerminal):
            derive_costs(inst)

    def test_zero_cost_terminal_excluded_from_slope(self):
        inst = Instance.from_data(
            ["u", "v", "x", "y"],
            ["u", "x"],
            [("u", "v", 0, 0), ("x", "y", 1, 2)],
        )
        costs = derive_costs(inst)
        assert costs.theta == 2  # the 0/0 terminal imposes no constraint

    def test_infinite_slope(self):
        inst = Instance.from_data(["u", "v"], ["u"], [("u", "v", 0, 5)])
        costs = derive_costs(inst)
        assert costs.theta == float("inf")

    def test_matches_fraction_reference_on_families(self):
        for family in sorted(FAMILIES):
            for seed in range(50):
                inst = generate(family, seed)
                assert_same_costs(inst, derive_costs(inst), exact_costs(inst))

    def test_matches_fraction_reference_on_random_multigraphs(self):
        rng = random.Random(5)
        kinds = set()
        for case in range(600):
            inst = random_multigraph(rng)
            try:
                want = exact_costs(inst)
            except IsolatedTerminal as exc:
                with pytest.raises(IsolatedTerminal) as got:
                    derive_costs(inst)
                assert got.value.node == exc.node, case
                kinds.add("isolated")
                continue
            assert_same_costs(inst, derive_costs(inst), want)
            kinds.add("inf" if want.theta == math.inf else "zero" if want.theta == 0 else "finite")
        assert kinds == {"isolated", "inf", "zero", "finite"}

    def test_scaled_thresholds_are_exact(self):
        rng = random.Random(8)
        for _ in range(100):
            inst = random_multigraph(rng)
            assert inst.scaled_edges == tuple(
                (e.u, e.v, e.tu * inst.scale, e.tv * inst.scale) for e in inst.edges
            )


class TestInstanceCosts:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_derived_once_across_oracle_and_solvers(self, family, monkeypatch):
        calls = []

        def counting(inst):
            calls.append(inst)
            return derive_costs(inst)

        monkeypatch.setattr(core, "derive_costs", counting)
        for seed in range(3):
            inst = generate(family, seed)
            calls.clear()
            exact_solve(inst, **FAMILIES[family].limits)
            for algorithm in ("auto", *FAMILIES[family].algorithms):
                run_algorithm(inst, algorithm)
            assert len(calls) == 1 and calls[0] is inst, (family, seed)
            # The solvers share one DerivedCosts; none may have mutated it.
            assert_same_costs(inst, inst.costs, exact_costs(inst))

    def test_isolated_terminal_raises_on_every_access(self):
        inst = Instance.from_data(["u", "v", "w"], ["u", "w"], [("u", "v", 1, 1)])
        for _ in range(2):
            with pytest.raises(IsolatedTerminal):
                inst.costs
        assert "costs" not in vars(inst)


class TestActivation:
    def test_zero_assignment_activates_nothing(self, tiny_instance):
        assert tuple(active_edges(tiny_instance, Assignment({}).values)) == ()
        ok, uncovered = covers(tiny_instance, Assignment({}))
        assert not ok and uncovered == ("u",)

    def test_boundary_equality_activates(self, tiny_instance):
        a = assignment_of({"u": 2, "v": 3})
        assert tuple(active_edges(tiny_instance, a.values)) == (0,)
        assert covers(tiny_instance, a) == (True, ())

    def test_terminal_covered_only_by_edge_zero(self):
        # Edge index 0 is falsy: a check written as any() over the indices
        # would call this terminal uncovered.
        inst = Instance.from_data(
            ["t", "a", "b"], ["t"], [("t", "a", 1, 1), ("t", "b", 5, 5)]
        )
        assert (inst.edges[0].u, inst.edges[0].v) == ("t", "a")
        a = assignment_of({"t": 1, "a": 1})
        assert list(active_edges(inst, a.values)) == [0]
        assert list(active_edges(inst, a.values, inst.edges_at["t"])) == [0]
        levels = to_levels(inst, a.values)
        assert covered_terminals(inst, levels=levels) == {"t"}
        assert covered_terminals(inst, levels=levels, nodes=["a"]) == {"t"}
        assert covers(inst, a) == (True, ())

    def test_matches_hand_rolled_predicate_on_random_multigraphs(self):
        rng = random.Random(11)
        pool = [0, Fraction(1, 2), 1, Fraction(2, 3), 2, 3]
        for case in range(500):
            inst = random_multigraph(rng)
            # Nodes left out of ``values`` count as zero.
            values = {n: rng.choice(pool) for n in inst.nodes if rng.random() < 0.8}

            def met(e):
                return values.get(e.u, 0) >= e.tu and values.get(e.v, 0) >= e.tv

            active = [i for i, e in enumerate(inst.edges) if met(e)]
            assert list(active_edges(inst, values)) == active, case
            ids = rng.sample(range(len(inst.edges)), rng.randint(0, len(inst.edges)))
            want = [i for i in ids if met(inst.edges[i])]
            assert list(active_edges(inst, values, ids)) == want, case
            covered = {n for i in active for n in (inst.edges[i].u, inst.edges[i].v)}
            covered &= inst.terminals
            assert covered_terminals(inst, levels=to_levels(inst, values)) == covered, case
            uncovered = tuple(t for t in inst.terminal_list if t not in covered)
            assert covers(inst, assignment_of(values)) == (not uncovered, uncovered), case

    def test_integer_view_matches_fraction_predicate_off_the_grid(self):
        # Values at a threshold t, just below it (t - 1/(3L)) and just above
        # it (t + 1/(7L)) fall on and between the points of the 1/L grid.
        rng = random.Random(23)
        for case in range(500):
            inst = random_multigraph(rng)
            L = inst.scale
            values = {}
            for n in inst.nodes:
                if rng.random() < 0.15:
                    continue  # missing nodes count as zero
                at = [threshold_at(inst.edges[i], n) for i in inst.edges_at[n]] or [ZERO]
                t = rng.choice(at)
                x = t + rng.choice([0, -Fraction(1, 3 * L), Fraction(1, 7 * L)])
                values[n] = max(x, ZERO)
            a = assignment_of(values)
            levels = to_levels(inst, a.values)
            want = list(active_edges(inst, a.values))
            assert list(active_at_levels(inst, levels)) == want, case
            ids = rng.sample(range(len(inst.edges)), rng.randint(0, len(inst.edges)))
            want_ids = list(active_edges(inst, a.values, ids))
            assert list(active_at_levels(inst, levels, ids)) == want_ids, case
            covered = {n for i in want for n in inst.edges[i][:2]} & inst.terminals
            assert covered_terminals(inst, levels=levels) == covered, case
            uncovered = tuple(u for u in inst.terminal_list if u not in covered)
            assert covers(inst, a) == (not uncovered, uncovered), case

    def test_monotonicity(self):
        rng = random.Random(7)
        for seed in range(20):
            inst = random_general(7, 12, 3, seed)
            lo_vals = {
                n: Fraction(rng.randint(0, 4), 2) for n in inst.nodes
            }
            hi_vals = {n: v + Fraction(rng.randint(0, 3), 2) for n, v in lo_vals.items()}
            lo, hi = assignment_of(lo_vals), assignment_of(hi_vals)
            assert set(active_edges(inst, lo.values)) <= set(active_edges(inst, hi.values))

    def test_covered_terminals_node_subset(self):
        rng = random.Random(3)
        for seed in range(20):
            inst = random_general(8, 14, 3, seed)
            values = {n: Fraction(rng.randint(0, 6), 2) for n in inst.nodes}
            nodes = rng.sample(inst.nodes, 3)
            expect = set()
            levels = to_levels(inst, values)
            for i in active_edges(inst, values):
                e = inst.edges[i]
                if e.u in nodes or e.v in nodes:
                    expect |= {e.u, e.v} & inst.terminals
            assert covered_terminals(inst, levels=levels, nodes=nodes) == expect
            assert covered_terminals(
                inst, levels=levels, nodes=inst.nodes
            ) == covered_terminals(inst, levels=levels)

    def test_covered_terminals_refuses_a_positional_value_map(self, tiny_instance):
        # The map must be named as the integer view: a value map passed
        # positionally fails instead of being compared on the wrong scale.
        with pytest.raises(TypeError):
            covered_terminals(tiny_instance, {"u": Fraction(2), "v": Fraction(3)})

    def test_cheapest_cover_feasible_and_bounded(self):
        for seed in range(30):
            inst = random_general(8, 14, 3, seed)
            costs = exact_costs(inst)
            cover = inst.assignment(complete(inst, (), levels=to_levels(inst, costs.q)))
            assert covers(inst, cover)[0]
            assert assignment_total(cover) <= costs.Q + costs.C

    def test_sandwich_against_oracle(self):
        for seed in range(30):
            inst = random_general(7, 12, 3, seed)
            costs = exact_costs(inst)
            opt = exact_solve(inst).value
            assert costs.Q <= opt <= costs.Q + costs.C
            if costs.theta != math.inf:
                assert costs.Q + costs.C <= (costs.theta + 1) * opt


class TestLevelsReduction:
    def test_installation_pareto_pairs(self):
        levels = tuple(Fraction(x) for x in (0, 5, 15, 20))
        inst = from_installation(
            ("u", "v"),
            ["u"],
            {("u", "v"): Fraction(10)},
            {("u", "v"): (Fraction(1), Fraction(1))},
            {"u": levels, "v": levels},
        )
        pairs = {(threshold_at(e, "u"), threshold_at(e, "v")) for e in inst.edges}
        assert pairs == {(0, 15), (5, 5), (15, 0)}

    def test_unreached_demand_emits_nothing(self):
        # 1 + 1 < 3: no pair of menu heights reaches the demand.
        lv = (Fraction(0), Fraction(1))
        inst = from_installation(
            ("u", "v"), [], {("u", "v"): 3}, {("u", "v"): (1, 1)}, {"u": lv, "v": lv}
        )
        assert inst.edges == ()

    def test_empty_levels(self):
        with pytest.raises(EmptyLevels):
            from_installation(
                ("u", "v"), [], {("u", "v"): 1}, {("u", "v"): (1, 1)},
                {"u": (Fraction(1),), "v": ()},
            )

    def test_first_bad_edge_raises(self):
        # Every pair's coefficients and demand are checked first, then the
        # endpoints pair by pair, so the first bad pair is reported.
        levels = {"u": (Fraction(1), Fraction(0)), "v": (Fraction(1),), "w": ()}
        fine, broken = (2, 1, 1), (2, 0, 1)
        not_a_node = (InvalidInstance, "pair endpoint 'x' is not a node")
        no_levels = (EmptyLevels, "'w' has no levels")
        cases = [
            ([("u", "v", fine), ("v", "x", fine), ("u", "w", fine)], not_a_node),
            ([("u", "v", fine), ("u", "w", fine), ("x", "v", fine)], no_levels),
            ([("x", "w", fine), ("u", "w", fine)], not_a_node),
            ([("w", "x", fine), ("u", "v", fine)], no_levels),
            ([("x", "w", fine), ("u", "v", broken)], (DomainError, "must be positive")),
        ]
        for pairs, (error, text) in cases:
            demands = {(a, b): h for a, b, (h, _, _) in pairs}
            coefficients = {(a, b): (cu, cv) for a, b, (_, cu, cv) in pairs}
            with pytest.raises(error, match=text):
                from_installation(("u", "v", "w"), [], demands, coefficients, levels)

    def test_non_monotone_installation_rule_rejected(self):
        # -a + b >= 1 holds at (0, 1) but not at (1, 1).  Refusing a
        # coefficient that is not positive, and a negative demand, keeps
        # every rule monotone; the pair is refused before any menu literal
        # is parsed, the bad one at c included.
        lv = (Fraction(0), Fraction(1))
        levels = {"a": lv, "b": lv, "c": ("x",)}
        positive, demand = "coefficients must be positive", "negative demand"
        refused = [
            (1, (0, 1), positive),
            (1, (1, 0), positive),
            (1, (-1, 1), positive),
            (1, (1, -1), positive),
            (-1, (1, 1), demand),
        ]
        for h, coefs, text in refused:
            with pytest.raises(DomainError, match=text):
                from_installation(
                    ("a", "b", "c"), [], {("a", "b"): h}, {("a", "b"): coefs}, levels
                )
        with pytest.raises(InvalidInstance, match="not an exact rational: 'x'"):
            from_installation(("a", "b", "c"), [], {("a", "b"): 1}, {("a", "b"): (1, 1)}, levels)

    def test_installation_grid_matches_the_quadratic_filter_on_mixed_denominators(self):
        # Coefficients, demands and levels over different denominators: the
        # search on each sorted menu must agree with the cell-by-cell filter.
        rng = random.Random(13)
        values = [Fraction(x) for x in ("0", "1", "2", "1/3", "2/5", "7/4", "5/6", "3/7")]
        coefs = [x for x in values if x > 0]
        sizes = set()
        for _ in range(1500):
            lu = rng.choices(values, k=rng.randint(1, 5))
            lv = rng.choices(values, k=rng.randint(1, 5))
            pair = ("u", "v")
            args = (
                pair, [], {pair: rng.choice(values)},
                {pair: (rng.choice(coefs), rng.choice(coefs))}, {"u": lu, "v": lv},
            )
            got = from_installation(*args)
            assert got == reference_installation(*args)
            sizes.add(len(got.scaled_edges))
        assert {0, 1, 2, 3} <= sizes

    def test_long_level_lists_reduce_fast(self):
        # One installation pair needs level sum L-1: L minimal pairs of L*L.
        L = 80
        levels = tuple(Fraction(x) for x in range(L))
        start = time.perf_counter()
        inst = from_installation(
            ("u", "v"),
            ["u"],
            {("u", "v"): Fraction(L - 1)},
            {("u", "v"): (Fraction(1), Fraction(1))},
            {"u": levels, "v": levels},
        )
        assert time.perf_counter() - start < 0.5
        assert len(inst.edges) == L

    def test_reduction_matches_level_brute_force(self):
        # The threshold instance's optimum equals a brute force on the
        # installation rule itself.  A menu may lack 0; a node at 0 then
        # opens none of its pairs, and a terminal no pair can open is
        # isolated in the threshold instance.
        rng = random.Random(42)
        pool = [Fraction(x) for x in ("0", "1", "2", "3/2", "5/2")]
        coefs = [Fraction(x) for x in ("1", "2", "1/2", "3/4")]
        demand_pool = [Fraction(x) for x in ("0", "1", "2", "5/2", "4")]
        outcomes = {"optimum": 0, "isolated": 0}
        for _ in range(50):
            n = rng.randint(3, 5)
            nodes = [f"n{i}" for i in range(n)]
            terminals = rng.sample(nodes, rng.randint(1, n - 1))
            pairs = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            menus = {x: rng.sample(pool, rng.randint(1, 3)) for x in nodes}
            demands = {p: rng.choice(demand_pool) for p in pairs}
            coefficients = {p: (rng.choice(coefs), rng.choice(coefs)) for p in pairs}
            inst = from_installation(nodes, terminals, demands, coefficients, menus)
            brute = self._brute_force_installation(nodes, terminals, demands, coefficients, menus)
            if brute is None:
                outcomes["isolated"] += 1
                with pytest.raises(IsolatedTerminal):
                    exact_solve(inst)
            else:
                outcomes["optimum"] += 1
                assert exact_solve(inst).value == brute
        assert outcomes["optimum"] >= 30 and outcomes["isolated"] >= 1

    @staticmethod
    def _brute_force_installation(nodes, terminals, demands, coefficients, menus):
        """The least total height that opens a pair at every terminal, each
        node at a menu height or 0, or None when no choice does.  A pair
        opens when both heights are on their menus and ``cu*a + cv*b >= h``."""
        best = None
        for values in itertools.product(*(sorted({ZERO, *menus[x]}) for x in nodes)):
            height = dict(zip(nodes, values))
            covered = set()
            for (u, v), h in demands.items():
                cu, cv = coefficients[u, v]
                a, b = height[u], height[v]
                if a in menus[u] and b in menus[v] and cu * a + cv * b >= h:
                    covered.update((u, v))
            if covered >= set(terminals):
                total = sum(values, ZERO)
                if best is None or total < best:
                    best = total
        return best
