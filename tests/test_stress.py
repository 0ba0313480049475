"""Stress shapes the random families under-sample: big stars, zero
thresholds, unbounded slope."""

import math
import random
from fractions import Fraction

from aecover.bounds import A1_RATIO, RHO
from aecover.core import Instance, derive_costs
from aecover.general import solve_general
from aecover.oracle import exact_solve
from aecover.unit import reduce_unit, solve_unit_a1, solve_unit_a2
from conftest import covers, exact_costs


def big_star_unit_instance(seed: int) -> Instance:
    """Ten terminals, a few overlapping stars of size 7..9, singleton backup
    facilities for anyone left out."""
    rng = random.Random(seed)
    terminals = [f"t{i}" for i in range(10)]
    facilities = []
    edges = []
    for j in range(rng.randint(2, 4)):
        v = f"big{j}"
        facilities.append(v)
        for t in rng.sample(terminals, rng.randint(7, 9)):
            edges.append((t, v, 1, 1))
    covered = {u for u, _, _, _ in edges}
    for i, t in enumerate(terminals):
        if t not in covered or rng.random() < 0.3:
            v = f"s{i}"
            facilities.append(v)
            edges.append((t, v, 1, 1))
    return Instance.from_data(terminals + facilities, terminals, edges)


def test_big_star_unit_instances_certified():
    saw_large_phase = False
    for seed in range(40):
        inst = big_star_unit_instance(seed)
        sc = reduce_unit(inst)
        assert sc.max_set_size() >= 7
        opt = exact_solve(inst).value
        a1 = solve_unit_a1(inst)
        a2 = solve_unit_a2(inst)
        assert covers(inst, a1.assignment)[0] and covers(inst, a2.assignment)[0]
        assert a1.value / opt <= A1_RATIO
        assert a2.value / opt <= RHO
        if any(p["k"] >= 7 for p in a2.trace["phases"]):
            saw_large_phase = True
    assert saw_large_phase, "expected at least one k >= 7 star extraction"


def test_infinite_slope_general_end_to_end():
    # Free client-side thresholds with positive far sides: slope is infinite,
    # only the degree certificates apply.
    inst = Instance.from_data(
        ["a", "b", "c", "f", "g"],
        ["a", "b", "c"],
        [
            ("a", "f", 0, 2),
            ("b", "f", 0, 2),
            ("b", "g", 0, 3),
            ("c", "g", 0, 3),
        ],
    )
    costs = derive_costs(inst)
    assert costs.theta == math.inf
    report = solve_general(inst)
    assert report.bound_label in ("1+ln(delta+1)", "1+ln(delta)")
    opt = exact_solve(inst).value
    assert covers(inst, report.assignment)[0]
    assert float(report.value / opt) <= float(report.claimed_bound) + 1e-12


def test_mixed_zero_thresholds():
    # One terminal is free to cover, one costs; totals stay exact.
    inst = Instance.from_data(
        ["a", "b", "f"],
        ["a", "b"],
        [("a", "f", 0, 0), ("b", "f", Fraction(1, 3), Fraction(2, 3))],
    )
    report = solve_general(inst)
    opt = exact_solve(inst).value
    assert opt == 1
    assert report.value == 1
    assert covers(inst, report.assignment)[0]


def test_parallel_edge_choices_reach_optimum():
    # Parallel edges trade root load against leaf load; the oracle and the
    # greedy both must see the cheap split.
    inst = Instance.from_data(
        ["t", "v"],
        ["t"],
        [("t", "v", 5, 1), ("t", "v", 1, 2), ("t", "v", 3, 3)],
    )
    costs = exact_costs(inst)
    assert costs.q["t"] == 1 and costs.c["t"] == 2
    assert exact_solve(inst).value == 3
    assert solve_general(inst).value == 3
