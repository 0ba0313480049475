"""Acceptance suite: every shipped guarantee, certified at its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each criterion also enforces its runtime budget.
"""

import math
import time
from fractions import Fraction

import pytest

from aecover.bounds import (
    RHO,
    A1_RATIO,
    format_bound_up,
    k_theta,
    omega,
    omega_bar,
    rho_from_alphas,
    table1,
)
from aecover.bounds import ALPHA_K
from aecover.cli import main
from aecover.general import density_greedy, solve_general
from aecover.generators import (
    generate,
    random_general,
    random_installation,
    random_minpower,
    random_theta_setcover,
    tight73,
)
from aecover.locally_uniform import solve_locally_uniform, validate_locally_uniform
from aecover.oracle import exact_solve
from aecover.unit import (
    exact_2setcover,
    exact_bb,
    reduce_unit,
    solve_unit_a1,
    solve_unit_a2,
)
from conftest import (
    covers,
    enum_min_density_star,
    enum_setcover_optimum,
    exact_costs,
    greedy_ratio_bound,
    min_density_star,
    random_set_system,
    state_totals,
    unit_a1_constant,
)

GENERAL_FAMILIES = (
    "minpower",
    "setcover-t2",
    "setcover-t5",
    "setcover-t10",
    "installation",
)
SEEDS = range(200)

PRINTED_TABLE1 = {
    "1+omega": ("1.2785", "1.4631", "1.6036", "1.7179", "1.8146",
                "2.1569", "3.6360", "5.4214", "7.3603", "11.4673"),
    "1+omega_bar": ("1.2167", "1.3667", "1.4834", "1.5800", "1.6637",
                    "1.9645", "3.3428", "5.0808", "6.9967", "11.0820"),
    "ln(theta)-lnln(theta)": (None, "1.0597", "1.0046", "1.0597", "1.1336",
                              "1.4686", "3.0780", "4.9752", "6.9901", "11.1898"),
    "1+ln(theta+1)": ("1.6932", "2.0987", "2.3863", "2.6095", "2.7918",
                      "3.3979", "5.6152", "7.9088", "10.2105", "14.8156"),
}


def _announce(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def read_trace(doc):
    """A general report's trace document as exact values: the initial
    potential, each step's (payment, potential before, potential after),
    and the total payment."""
    steps = [
        (Fraction(s["payment"]), Fraction(s["potential_before"]), Fraction(s["potential_after"]))
        for s in doc["steps"]
    ]
    return Fraction(doc["initial_potential"]), steps, sum((s[0] for s in steps), Fraction(0))


@pytest.fixture(scope="module")
def general_runs():
    """One certified run per (family, seed): solver and oracle.  The greedy's
    trace is the report's own trace document."""
    runs = []
    for family in GENERAL_FAMILIES:
        for seed in SEEDS:
            inst = generate(family, seed)
            assert len(inst.terminals) <= 6 and len(inst.nodes) <= 10
            costs = exact_costs(inst)
            report = solve_general(inst)
            opt = exact_solve(inst).value
            runs.append(
                {
                    "family": family,
                    "seed": seed,
                    "inst": inst,
                    "costs": costs,
                    "report": report,
                    "opt": opt,
                }
            )
    return runs


def test_criterion_1_table_reproduction(capsys):
    started = time.monotonic()
    table = table1()
    for row, printed in PRINTED_TABLE1.items():
        for value, want in zip(table[row], printed):
            if want is None:
                assert value is None
            else:
                # The published table rounds ratio upper bounds upward at four
                # decimals; reproduce the digits exactly and stay within one
                # print unit of the true value.
                assert format_bound_up(value) == want
                assert abs(value - float(want)) < 1e-4
    assert main(["bounds", "--table1"]) == 0
    rendered = capsys.readouterr().out
    for printed in PRINTED_TABLE1.values():
        for want in printed:
            if want is not None:
                assert want in rendered
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    _announce(1, "bound table reproduction")


def test_criterion_2_exact_constants():
    started = time.monotonic()
    assert omega_bar(1) == Fraction(13, 60)
    assert k_theta(1) == 4
    value, argmax = unit_a1_constant(100)
    assert value == Fraction(67, 360) and argmax == 5
    assert A1_RATIO == Fraction(427, 360)
    sigma = sum((ALPHA_K[k] for k in range(1, 6)), Fraction(0))
    assert sigma == Fraction(1581, 240)
    assert rho_from_alphas(ALPHA_K) == Fraction(1555, 1347) == RHO
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _announce(2, "exact constants")


def test_criterion_3_tight_example():
    started = time.monotonic()
    inst, priority = tight73()
    opt = exact_solve(inst, max_terminals=48, max_nodes=80).value
    assert opt == 60
    ubi = validate_locally_uniform(inst)
    worst = solve_locally_uniform(ubi, priority)
    assert worst.value == 73
    assert Fraction(worst.value) / opt == Fraction(73, 60)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _announce(3, "tight 73/60 example")


def test_criterion_4_general_certification(general_runs):
    started = time.monotonic()
    violations = []
    for run in general_runs:
        inst, costs, report, opt = run["inst"], run["costs"], run["report"], run["opt"]
        ok, _ = covers(inst, report.assignment)
        assert ok
        ratio = report.value / opt if opt else Fraction(1)
        theta = costs.theta
        if theta != math.inf and theta > 0:
            if float(ratio) > 1 + omega(theta) + 1e-12:
                violations.append((run["family"], run["seed"], "omega"))
        if float(ratio) > 1 + math.log(costs.delta + 1) + 1e-12:
            violations.append((run["family"], run["seed"], "log-delta"))
    assert violations == []
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _announce(4, f"general solver on {len(general_runs)} runs, zero violations")


def test_criterion_5_locally_uniform_certification():
    started = time.monotonic()
    for seed in SEEDS:
        inst = generate("uniform", seed)
        ubi = validate_locally_uniform(inst)
        report = solve_locally_uniform(ubi)
        opt = exact_solve(inst).value
        ratio = report.value / opt
        bound = 1 + omega_bar(ubi.theta, delta_cap=ubi.inst.costs.delta)
        assert ratio <= bound, (seed, ratio, bound)

    # Unit weights and thresholds: identical choice sequence to the classical
    # largest-set greedy under lowest-id tie-breaking.
    for seed in SEEDS:
        inst = generate("uniform-unit", seed)
        ubi = validate_locally_uniform(inst)
        report = solve_locally_uniform(ubi)
        picked = [step["facility"] for step in report.trace["steps"]]
        uncovered = set(ubi.clients)
        classical = []
        while uncovered:
            best = min(
                (
                    (-sum(1 for c in ubi.adjacency[v] if c in uncovered), ubi.inst.index[v], v)
                    for v in ubi.facilities
                    if v not in classical
                    and any(c in uncovered for c in ubi.adjacency[v])
                ),
            )
            classical.append(best[2])
            uncovered -= set(ubi.adjacency[best[2]])
        assert picked == classical, seed
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _announce(5, "locally uniform greedy on 2x200 runs")


def test_criterion_6_unit_certification():
    started = time.monotonic()
    violations = []
    for seed in SEEDS:
        inst = generate("unit", seed)
        sc = reduce_unit(inst)
        assert len(sc.elements) <= 10
        opt = exact_solve(inst).value
        a1 = solve_unit_a1(inst)
        a2 = solve_unit_a2(inst)
        for rep, bound, tag in ((a1, A1_RATIO, "a1"), (a2, RHO, "a2")):
            assert covers(inst, rep.assignment)[0]
            if rep.value / opt > bound:
                violations.append((seed, tag))
    assert violations == []
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _announce(6, "unit solvers on 200 runs, zero violations")


def test_criterion_7_suboracle_equivalences():
    import random

    started = time.monotonic()
    builders = (
        lambda s: random_minpower(8, 13, s),
        lambda s: random_general(8, 13, 3, s),
        lambda s: random_theta_setcover(s, 5),
        lambda s: random_installation(s, n_range=(5, 7)),
    )
    for seed in SEEDS:
        inst = builders[seed % len(builders)](seed)
        costs = exact_costs(inst)
        levels, covered, _, _ = next(density_greedy(inst))
        star = min_density_star(inst, levels, covered)
        brute = enum_min_density_star(inst, costs, state_totals(inst, levels), covered)
        if star is None:
            assert brute is None, seed
        else:
            assert Fraction(star[0], star[1]) == brute, seed

    rng = random.Random(1234)
    for case in range(500):
        sc = random_set_system(rng, rng.randint(2, 12), rng.randint(2, 9), 2)
        assert len(exact_2setcover(sc)) == enum_setcover_optimum(
            sc.elements, sc.sets
        ), case

    rng = random.Random(4321)
    for case in range(500):
        k = rng.randint(2, 6)
        sc = random_set_system(rng, rng.randint(2, 12), rng.randint(2, 9), k)
        assert len(exact_bb(sc, k)) == enum_setcover_optimum(
            sc.elements, sc.sets
        ), case
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _announce(7, "sub-oracle equivalences (200 + 500 + 500 seeds)")


def test_criterion_8_trace_inequality(general_runs):
    checked = 0
    for run in general_runs:
        costs, opt = run["costs"], run["opt"]
        nu0, steps, total = read_trace(run["report"].trace)
        final = steps[-1][2] if steps else nu0
        nu_star = costs.Q
        tau_star = opt - nu_star
        # Every accepted step pays at most its potential drop.
        for payment, before, after in steps:
            assert payment <= before - after
        if tau_star <= 0 or nu0 <= nu_star + tau_star:
            continue
        checked += 1
        bound = (
            float(tau_star + nu_star - final)
            + float(tau_star) * math.log(float((nu0 - nu_star) / tau_star))
        )
        assert float(total) <= bound + 1e-9, (run["family"], run["seed"])
        # Each step is also within the optimum-relative density cap.
        for payment, before, after in steps:
            lhs = payment * (before - nu_star)
            rhs = tau_star * (before - after)
            assert lhs <= rhs, (run["family"], run["seed"])
    assert checked > 0
    _announce(8, f"greedy trace certificate on {checked} qualifying runs")


def test_criterion_9_payment_potential_relations(general_runs):
    # The spread relation behind the 1+ln(delta+1) certificate is
    # nu0 - nu* <= tau* + delta*opt (see general_bound_candidates), not the
    # older (nu0 - nu*)/tau* <= delta + 1, which terminal-terminal edges
    # break (the witness test below pins a counterexample).  Through the
    # greedy ratio 1 + x*ln(1 + delta/x) with x = tau*/opt in (0, 1] it gives
    # at most 1 + ln(delta + 1).  The slope bounds and the independent-R
    # variant are checked alongside.
    checked = 0
    for run in general_runs:
        costs, opt = run["costs"], run["opt"]
        theta = costs.theta
        if theta == math.inf or theta <= 0:
            continue
        nu_star = costs.Q
        tau_star = opt - nu_star
        if tau_star <= 0:
            continue
        checked += 1
        nu0 = Fraction(run["report"].trace["initial_potential"])
        assert opt / tau_star >= 1 + 1 / theta, (run["family"], run["seed"])
        assert nu0 / tau_star <= (theta + 1) * (opt / tau_star - 1)
        if run["inst"].terminals_independent:
            assert (nu0 - nu_star) / tau_star <= costs.delta
        assert nu0 - nu_star <= tau_star + costs.delta * opt, (run["family"], run["seed"])
        if costs.delta >= 1 and nu0 > nu_star:
            assert greedy_ratio_bound(nu0, nu_star, tau_star) <= 1 + math.log(
                costs.delta + 1
            ), (run["family"], run["seed"])
    assert checked > 0
    _announce(9, f"payment/potential relations on {checked} qualifying runs")


def test_criterion_9_spread_bound_defect_witness():
    """Minimal verified counterexample to the older delta+1 spread bound.

    Terminals u, w share a (3/2, 3/2) edge and u also reaches a non-terminal
    x at (1, 1).  Then q = (1, 3/2), C = 5/2, and the optimum 3 activates the
    u-w edge, so tau* = 1/2 and the spread C/tau* = 5 exceeds delta + 1 = 2.
    The relation that replaces it, C <= tau* + delta*opt, holds here:
    5/2 <= 7/2.  The end-to-end ratio certificates still hold too.
    """
    from aecover.core import Instance

    inst = Instance.from_data(
        ["u", "w", "x"],
        ["u", "w"],
        [("u", "w", Fraction(3, 2), Fraction(3, 2)), ("u", "x", 1, 1)],
    )
    costs = exact_costs(inst)
    assert costs.Q == Fraction(5, 2) and costs.C == Fraction(5, 2)
    assert costs.delta == 1
    opt = exact_solve(inst).value
    assert opt == 3
    tau_star = opt - costs.Q
    assert tau_star == Fraction(1, 2)
    spread = costs.C / tau_star
    assert spread == 5 > costs.delta + 1
    assert costs.C <= tau_star + costs.delta * opt == Fraction(7, 2)
    # The solver is still optimal and within every claimed certificate.
    report = solve_general(inst)
    assert report.value == opt
    assert float(report.value / opt) <= 1 + omega(costs.theta)
