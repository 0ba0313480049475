"""The density-greedy solver: star oracle equivalence, completion, ratios."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from aecover import general
from aecover.bounds import omega
from aecover.core import Instance, complete
from aecover.errors import IncompleteCover, IsolatedTerminal
from aecover.general import density_greedy, solve_general
from aecover.generators import (
    FAMILIES,
    generate,
    random_general,
    random_installation,
    random_minpower,
    random_theta_setcover,
)
from aecover.oracle import exact_solve
import conftest
from conftest import (
    ZERO,
    assignment_total,
    covers,
    enum_min_density_star,
    exact_costs,
    min_density_star,
    other_end,
    state_totals,
    threshold_at,
    to_levels,
)


def seeded_mix(count):
    """Deterministic mixed bag across the certified families."""
    builders = [
        lambda s: random_minpower(8, 13, s),
        lambda s: random_general(8, 13, 3, s),
        lambda s: random_theta_setcover(s, 5),
        lambda s: random_installation(s, n_range=(5, 7)),
    ]
    for i in range(count):
        yield builders[i % len(builders)](i)


def general_ladder(n):
    """Four seeded random general instances of n nodes and 3n edges."""
    for s in range(4):
        yield random_general(n, 3 * n, 6, s, r=round(0.4 * n))


def potential(trace):
    """The greedy's current potential, read from its trace document."""
    steps = trace["steps"]
    return Fraction(steps[-1]["potential_after"] if steps else trace["initial_potential"])


class TestMinDensityStar:
    def test_forced_half_density(self):
        # Leaf thresholds already met by q; the root needs one unit and the
        # two leaves each contribute c = 1.
        inst = Instance.from_data(
            ["t1", "t2", "v"],
            ["t1", "t2"],
            [("t1", "v", 1, 1), ("t2", "v", 1, 1)],
        )
        levels, covered, _, _ = next(density_greedy(inst))
        star = min_density_star(inst, levels, covered)
        assert star is not None
        pay, gain, root, w, leaves = star
        assert inst.nodes[root] == "v"
        assert Fraction(w, inst.scale) == 1
        assert {u for u, _ in leaves} == {"t1", "t2"}
        assert Fraction(pay, gain) == Fraction(1, 2)

    def test_density_never_above_one_from_q(self):
        # From any reachable state the cheapest edge of an uncovered terminal
        # pays at most its c, so the minimum density cannot exceed 1.  The
        # greedy therefore stops only when no star is left, with every
        # terminal covered.
        ladder = itertools.chain.from_iterable(general_ladder(n) for n in (20, 40, 60))
        picks = 0
        for inst in itertools.chain(seeded_mix(200), ladder):
            for levels, covered, star, _ in density_greedy(inst):
                if star is not None:
                    assert 0 < star[1] and star[0] <= star[1]
                    picks += 1
            assert star is None
            assert covered == inst.terminals
        assert picks > 0

    def test_matches_enumeration_at_initial_state(self):
        for inst in seeded_mix(80):
            costs = exact_costs(inst)
            levels, covered, _, _ = next(density_greedy(inst))
            star = min_density_star(inst, levels, covered)
            brute = enum_min_density_star(inst, costs, state_totals(inst, levels), covered)
            if star is None:
                assert brute is None
            else:
                assert Fraction(star[0], star[1]) == brute

    def test_matches_enumeration_along_trajectory(self):
        for inst in seeded_mix(24):
            costs = exact_costs(inst)
            for levels, covered, _, _ in itertools.islice(density_greedy(inst), 20):
                star = min_density_star(inst, levels, covered)
                brute = enum_min_density_star(inst, costs, state_totals(inst, levels), covered)
                if star is None:
                    assert brute is None
                else:
                    assert Fraction(star[0], star[1]) == brute

    def test_leaf_selection_fixed_point(self):
        for inst in seeded_mix(40):
            costs = exact_costs(inst)
            levels, covered, _, _ = next(density_greedy(inst))
            star = min_density_star(inst, levels, covered)
            if star is None:
                continue
            pay, gain, root, w, leaves = star
            v, w = inst.nodes[root], Fraction(w, inst.scale)
            chosen = {u for u, _ in leaves}
            totals = state_totals(inst, levels)
            # Recompute the reachable set and minimal increments for (v, w).
            reachable = {}
            for ei in inst.edges_at[v]:
                e = inst.edges[ei]
                if threshold_at(e, v) > totals[v] + w:
                    continue
                u = other_end(e, v)
                if u in inst.terminals and u not in covered and costs.c[u] > 0:
                    need = max(ZERO, threshold_at(e, u) - totals[u])
                    if u not in reachable or need < reachable[u]:
                        reachable[u] = need
            sigma = Fraction(pay, gain)
            strictly_below = {u for u, b in reachable.items() if b / costs.c[u] < sigma}
            at_most = {u for u, b in reachable.items() if b / costs.c[u] <= sigma}
            assert strictly_below <= chosen
            root_gains = v in inst.terminals and v not in covered and costs.c[v] > 0
            if root_gains:
                # The root's own c sits in the denominator, so the forced
                # first leaf may end above the final density.
                assert chosen - {leaves[0][0]} <= at_most
            else:
                assert chosen <= at_most


def cached_picks_match_full_scan(inst):
    """Step the greedy until it stops, checking at every state that its
    cached pick equals the full scan and that its trace's potential is Q plus
    the c of the uncovered terminals; returns the picks.  The greedy must
    stop only when no star is left."""
    c, L = inst.costs.c, inst.scale
    picks = []
    for levels, covered, star, trace in density_greedy(inst):
        assert star == min_density_star(inst, levels, covered)
        nu = inst.costs.Q + sum(c[u] for u in inst.terminal_list if u not in covered)
        assert potential(trace) == Fraction(nu, L)
        picks.append(star)
    assert picks.pop() is None
    return picks


def random_multigraph(rng):
    """4 to 12 nodes, all of them terminals half the time and a random subset
    otherwise, and n to 3n edges, parallel ones included, with thresholds
    a/b for a in 0..6 and b in 1..3.  Terminals left without an edge are
    dropped."""
    n = rng.randint(4, 12)
    nodes = [f"n{i}" for i in range(n)]
    terminals = nodes if rng.random() < 0.5 else rng.sample(nodes, rng.randint(1, n))
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(nodes, 2)
        tu, tv = (Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(2))
        edges.append((u, v, tu, tv))
    touched = {x for e in edges for x in e[:2]}
    return Instance.from_data(nodes, [t for t in terminals if t in touched], edges)


class TestStarCache:
    def test_matches_full_scan_on_seeded_mix(self):
        for inst in seeded_mix(40):
            cached_picks_match_full_scan(inst)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_matches_full_scan_on_general_ladder(self, n):
        for inst in general_ladder(n):
            assert cached_picks_match_full_scan(inst)

    def test_newly_covered_neighbour_dirties_unchanged_root(self):
        # Roots a and b tie at density 1/2; a wins on node order and covers
        # t1 and t3 without raising them.  b is not adjacent to a, so only
        # the newly covered t1 makes it dirty; its best star must drop t1.
        inst = Instance.from_data(
            ["a", "b", "t1", "t2", "t3"],
            ["t1", "t2", "t3"],
            [("t1", "a", 1, 1), ("t3", "a", 1, 1), ("t1", "b", 1, 1), ("t2", "b", 1, 1)],
        )
        picks = cached_picks_match_full_scan(inst)
        got = [(inst.nodes[i], leaves, Fraction(pay, gain)) for pay, gain, i, _, leaves in picks]
        assert got == [
            ("a", (("t1", 0), ("t3", 0)), Fraction(1, 2)),
            ("b", (("t2", 0),), Fraction(1)),
        ]

    def test_uncovered_terminal_root_sees_a_covered_neighbour(self):
        # n5 is an uncovered terminal next to n0.  At increment 0 it must
        # take a first leaf, and n0 (need 8, c 8 on the integer view) comes
        # before n7 (need 4, c 4) at the same ratio, so increment 0 reaches
        # only 1/2 and n5's best star is 3/7 with leaf n4.  The first pick
        # covers n0, a leaf n5's star did not use; n5 then reaches 1/3 with
        # n7 alone, ties n7's own star and wins on node order.  A cache that
        # kept n5's old star would pick n7.
        nodes = ["n0", "n2", "n4", "n5", "n7"]
        inst = Instance.from_data(
            nodes,
            nodes,
            [
                ("n0", "n5", Fraction(5, 3), 0),
                ("n5", "n4", 1, Fraction(1, 3)),
                ("n0", "n2", Fraction(1, 3), Fraction(3, 2)),
                ("n7", "n5", 2, 0),
                ("n2", "n4", 1, Fraction(5, 3)),
                ("n7", "n0", Fraction(4, 3), 6),
            ],
        )
        picks = cached_picks_match_full_scan(inst)
        got = [(inst.nodes[i], Fraction(pay, gain)) for pay, gain, i, _, _ in picks]
        assert got == [("n0", Fraction(3, 13)), ("n5", Fraction(1, 3)), ("n5", Fraction(1))]

    def test_matches_full_scan_on_random_multigraphs(self):
        # Instance 750 of seed 8 is one on which a cache without the
        # uncovered-terminal guard picks a different star.
        rng = random.Random(8)
        for _ in range(2000):
            cached_picks_match_full_scan(random_multigraph(rng))

    def test_recomputes_fewer_roots_than_the_closed_neighbourhood(self, monkeypatch):
        # The closed-neighbourhood rule computes every root once at the start
        # and then every node next to, or equal to, a raised or newly
        # covered node; its count is read from the yielded states.
        calls = 0
        best_star_at = general._best_star_at

        def counted(*args):
            nonlocal calls
            calls += 1
            return best_star_at(*args)

        monkeypatch.setattr(general, "_best_star_at", counted)
        for inst in general_ladder(60):
            rows = inst.scaled_rows
            calls = 0
            closed = len(inst.nodes)
            last = None
            for levels, covered, _, _ in density_greedy(inst):
                now = dict(levels), set(covered)
                if last is not None:
                    touched = {v for v in inst.nodes if now[0][v] != last[0][v]}
                    touched |= now[1] - last[1]
                    closed += len(touched | {x for v in touched for _, x, _ in rows[v]})
                last = now
            assert 0 < calls < closed

    def test_uncovered_terminals_stay_at_their_q_level(self):
        # Every terminal a step raises ends covered, so the cache needs no
        # rule for a raised terminal left uncovered, and a leaf's shortfall
        # over its q level is never negative.
        rng = random.Random(13)
        draws = itertools.chain(
            (generate(family, seed) for family in sorted(FAMILIES) for seed in range(60)),
            (conftest.random_multigraph(rng) for _ in range(1500)),
        )
        steps = 0
        for inst in draws:
            try:
                q = inst.costs.q
            except IsolatedTerminal:
                continue
            for levels, covered, _, _ in density_greedy(inst):
                assert all(levels[u] == q[u] for u in inst.terminal_list if u not in covered)
                steps += 1
        assert steps > 2000


class TestSolveGeneral:
    def test_single_edge_value(self, tiny_instance):
        report = solve_general(tiny_instance)
        assert report.value == 5
        assert report.algorithm == "general"

    def test_minpower_star_takes_full_star(self):
        for k in range(1, 6):
            terminals = [f"t{i}" for i in range(k)]
            edges = [(t, "c", 1, 1) for t in terminals]
            inst = Instance.from_data(terminals + ["c"], terminals, edges)
            report = solve_general(inst)
            opt = exact_solve(inst).value
            assert report.value == opt == k + 1

    def test_infeasible(self):
        inst = Instance.from_data(["u", "v", "w"], ["w"], [("u", "v", 1, 1)])
        with pytest.raises(IsolatedTerminal):
            solve_general(inst)

    def test_certified_on_seeds(self):
        for inst in seeded_mix(60):
            costs = inst.costs
            report = solve_general(inst)
            assert covers(inst, report.assignment)[0]
            opt = exact_solve(inst).value
            ratio = report.value / opt if opt else Fraction(1)
            if costs.theta != math.inf and costs.theta > 0:
                assert float(ratio) <= 1 + omega(costs.theta) + 1e-12
            assert float(ratio) <= 1 + math.log(costs.delta + 1) + 1e-12

    def test_incomplete_completion_raises_typed_error(self, tiny_instance, monkeypatch):
        monkeypatch.setattr(general, "complete", lambda *args, **kwargs: {})
        with pytest.raises(IncompleteCover) as err:
            solve_general(tiny_instance)
        assert err.value.uncovered == ("u",)

    def test_zero_slope_instances_solved_exactly(self):
        inst = Instance.from_data(["u", "v"], ["u"], [("u", "v", 2, 0)])
        report = solve_general(inst)
        assert report.value == exact_solve(inst).value == 2
        assert report.claimed_bound == 1


class TestComplete:
    def test_everything_covered_returns_totals(self):
        inst = Instance.from_data(
            ["t", "v"], ["t"], [("t", "v", 1, 0)]
        )
        costs = exact_costs(inst)
        levels, covered, _, _ = next(density_greedy(inst))
        assert covered == {"t"}
        done = inst.assignment(complete(inst, covered, levels=levels))
        assert assignment_total(done) == costs.Q

    def test_empty_extra_gives_cheapest_cover(self, tiny_instance):
        costs = exact_costs(tiny_instance)
        levels, covered, _, _ = next(density_greedy(tiny_instance))
        done = tiny_instance.assignment(complete(tiny_instance, covered, levels=levels))
        assert covers(tiny_instance, done)[0]
        assert assignment_total(done) <= costs.Q + costs.C

    def test_interrupted_greedy_still_feasible(self):
        for inst in seeded_mix(20):
            greedy = density_greedy(inst)
            levels, covered, star, trace = next(greedy)
            paid = ZERO
            if star is not None and star[0] <= star[1]:
                next(greedy)  # the state after one step
                paid = Fraction(trace["steps"][0]["payment"])
                assert paid == Fraction(star[0], inst.scale)
            done = inst.assignment(complete(inst, covered, levels=levels))
            assert covers(inst, done)[0]
            assert assignment_total(done) <= paid + potential(trace)


class TestGreedyCertificates:
    def test_value_at_most_payment_plus_potential(self):
        for inst in seeded_mix(40):
            report = solve_general(inst)
            tau = sum((Fraction(s["payment"]) for s in report.trace["steps"]), ZERO)
            assert report.value <= tau + potential(report.trace)

    def test_reduction_equivalence_on_seeds(self):
        # Completed greedy value sits between opt and the certificate; the
        # exact optimum equals the best payment+potential over all solutions,
        # witnessed here by opt <= completed value and Q <= opt.
        for inst in seeded_mix(30):
            costs = exact_costs(inst)
            opt = exact_solve(inst).value
            report = solve_general(inst)
            assert costs.Q <= opt <= report.value

    def test_optimum_splits_into_payment_plus_target_potential(self):
        # The oracle's assignment dominates q on terminals, so its surplus
        # over q is a full-coverage state whose payment plus potential equals
        # the optimum exactly: both formulations share their optimal value.
        from aecover.core import covered_terminals

        for inst in seeded_mix(30):
            costs = exact_costs(inst)
            best = exact_solve(inst)
            surplus = {}
            for node in inst.nodes:
                q = costs.q.get(node, ZERO)
                have = best.assignment.values.get(node, ZERO)
                assert have >= q or node not in inst.terminals
                if max(have, q) - q > 0:
                    surplus[node] = max(have, q) - q
            totals = {n: costs.q.get(n, ZERO) for n in inst.nodes}
            for n, x in surplus.items():
                totals[n] += x
            covered = covered_terminals(inst, levels=to_levels(inst, totals))
            nu = costs.Q + sum((costs.c[u] for u in inst.terminal_list if u not in covered), ZERO)
            assert nu == costs.Q
            tau = sum(surplus.values(), ZERO)
            assert tau + nu == best.value

    def test_solver_output_survives_independent_recheck(self):
        # Re-evaluate coverage with a hand-rolled predicate loop, independent
        # of the library's activation machinery.
        for inst in seeded_mix(30):
            assignment = solve_general(inst).assignment
            values = assignment.values
            covered = set()
            for e in inst.edges:
                if values.get(e.u, ZERO) >= e.tu and values.get(e.v, ZERO) >= e.tv:
                    covered.update({e.u, e.v} & inst.terminals)
            assert covered >= inst.terminals
