"""Reductions, random families, determinism, and the tight example wiring."""

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from aecover import generators
from aecover.core import Instance, as_fraction, derive_costs
from aecover.errors import AecError, DomainError, EmptyLevels, GenerationFailed, InvalidInstance
from aecover.fileio import dumps_instance
from aecover.generators import (
    FAMILIES,
    from_facility_location,
    from_installation,
    from_theta_setcover,
    generate,
    random_general,
    random_installation,
    random_minpower,
    random_theta_setcover,
    random_uniform,
    random_unit,
    tight73,
)
from aecover.locally_uniform import validate_locally_uniform
from aecover.oracle import exact_solve
from conftest import ZERO, exact_costs, other_end, reference_installation, threshold_at, to_levels


def reference_facility_location(clients, facilities, opening, service):
    """Facility location built pair by pair, kept as the reference: every
    opening cost is looked up first, then each pair converts its service
    and then its opening cost again and refuses a negative one."""
    pairs = [(u, v, d, opening[v]) for (u, v), d in service.items()]
    edges = []
    for u, v, d, w in pairs:
        d, w = as_fraction(d), as_fraction(w)
        if w < 0 or d < 0:
            raise InvalidInstance(f"negative threshold on edge {u!r}-{v!r}")
        edges.append((u, v, d, w))
    return Instance.from_data(list(clients) + list(facilities), clients, edges)


def reference_theta_setcover(sets, elements, weights, theta):
    """``from_theta_setcover`` built member by member, kept as the
    reference: every weight is converted first, then every member divides
    its set's weight by theta again and refuses a negative one."""
    th = as_fraction(theta)
    if th <= 0:
        raise DomainError(f"theta must be positive, got {theta!r}")
    w = {v: as_fraction(weights[v]) for v in sets}
    edges = []
    for v, members in sets.items():
        for u in members:
            if w[v] < 0:
                raise InvalidInstance(f"negative threshold on edge {u!r}-{v!r}")
            edges.append((u, v, w[v] / th, w[v]))
    return Instance.from_data(list(elements) + list(sets), elements, edges)


def build_outcome(build, *args):
    """``build(*args)`` as its canonical text, or its error's type and message."""
    try:
        return dumps_instance(build(*args))
    except (AecError, KeyError) as exc:
        return type(exc), str(exc)


# Costs as callers pass them, with a few that must be refused.
COSTS = [0, 1, 2, "3/2", "0.5", Fraction(5, 2), Fraction(0)]
BAD_COSTS = [-1, "-1/2", Fraction(-3), "x", "1/0", True, None]
COEFFICIENTS = [1, 2, "3/2", "0.5", Fraction(5, 2)]
INSTALLATION_FAULTS = [
    "endpoint", "loop", "coefficient", "no coefficient", "demand", "height", "menu", "no menu",
]


class TestReductionsAgainstReference:
    def test_facility_location(self):
        rng = random.Random(31)
        kinds = set()
        for case in range(600):
            clients = [f"c{i}" for i in range(rng.randint(1, 5))]
            facilities = [f"f{j}" for j in range(rng.randint(1, 4))]
            faulty = rng.random() < 0.5
            pool = COSTS + BAD_COSTS if faulty else COSTS
            opening = {f: rng.choice(pool) for f in facilities if rng.random() < 0.95 or not faulty}
            service = {}
            for c in clients:
                for f in rng.sample(facilities, rng.randint(1, len(facilities))):
                    service[(c, f)] = rng.choice(pool)
            args = (clients, facilities, opening, service)
            got = build_outcome(from_facility_location, *args)
            assert got == build_outcome(reference_facility_location, *args), case
            kinds.add(got[0] if isinstance(got, tuple) else str)
        assert kinds == {str, InvalidInstance, KeyError}

    def test_theta_setcover(self):
        rng = random.Random(37)
        kinds = set()
        for case in range(400):
            elements = [f"e{i}" for i in range(rng.randint(1, 5))]
            sets = {f"s{j}": rng.sample(elements, rng.randint(1, len(elements)))
                    for j in range(rng.randint(1, 4))}
            faulty = rng.random() < 0.5
            pool = COSTS + BAD_COSTS if faulty else COSTS
            weights = {v: rng.choice(pool) for v in sets}
            theta = rng.choice([1, 2, "5/2", 10] + ([0, -1] if faulty else []))
            args = (sets, elements, weights, theta)
            got = build_outcome(from_theta_setcover, *args)
            assert got == build_outcome(reference_theta_setcover, *args), case
            kinds.add(got[0] if isinstance(got, tuple) else str)
        assert kinds == {str, DomainError, InvalidInstance}

    def test_installation(self):
        # Half the cases carry one or two faults, so the order of the checks
        # shows too.  A height may be negative, which Instance.from_data
        # refuses, as it does a pair of one node with itself.
        rng = random.Random(41)
        kinds = set()
        for case in range(800):
            nodes = [f"n{i}" for i in range(rng.randint(2, 5))]
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 5))]
            faults = rng.sample(INSTALLATION_FAULTS, rng.choice([0, 0, 1, 2]))
            n = rng.choice(nodes)
            if "endpoint" in faults:
                pairs.insert(rng.randrange(len(pairs) + 1), rng.choice([(n, "x"), ("x", n)]))
            if "loop" in faults:
                pairs.insert(rng.randrange(len(pairs) + 1), (n, n))
            demands = {p: rng.choice(COSTS) for p in pairs}
            coefficients = {p: (rng.choice(COEFFICIENTS), rng.choice(COEFFICIENTS)) for p in pairs}
            levels = {x: [rng.choice(COSTS) for _ in range(rng.randint(1, 4))] for x in nodes}
            p = rng.choice(pairs)
            if "coefficient" in faults:
                bad = rng.choice([0, "0"] + BAD_COSTS)
                coefficients[p] = rng.choice([(bad, 1), (1, bad)])
            if "no coefficient" in faults:
                del coefficients[p]
            if "demand" in faults:
                demands[p] = rng.choice(BAD_COSTS)
            if "height" in faults:
                levels[n][rng.randrange(len(levels[n]))] = rng.choice(BAD_COSTS)
            if "menu" in faults:
                levels[n] = []
            if "no menu" in faults:
                del levels[n]
            terminals = rng.sample(nodes, rng.randint(0, len(nodes)))
            args = (nodes, terminals, demands, coefficients, levels)
            got = build_outcome(from_installation, *args)
            assert got == build_outcome(reference_installation, *args), case
            kinds.add(got[0] if isinstance(got, tuple) else str)
        assert kinds == {str, DomainError, EmptyLevels, InvalidInstance, KeyError}


class TestFacilityLocation:
    def test_two_choice_minimum(self):
        inst = from_facility_location(
            ["c"], ["f1", "f2"], {"f1": 5, "f2": 1}, {("c", "f1"): 1, ("c", "f2"): 10}
        )
        assert exact_solve(inst).value == 6  # min(5+1, 1+10)

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidInstance, match="^negative threshold on edge 'c'-'f'$"):
            from_facility_location(["c"], ["f"], {"f": -1}, {("c", "f"): 1})

    def test_negative_set_weight_rejected(self):
        with pytest.raises(InvalidInstance, match="^negative threshold on edge 'e'-'s'$"):
            from_theta_setcover({"s": ["e"]}, ["e"], {"s": "-1/2"}, 2)

    def test_uniform_instances_validate(self):
        for seed in range(20):
            inst = random_uniform(seed, theta=4)
            ubi = validate_locally_uniform(inst)
            assert ubi.theta <= 4

    def test_unit_weights_refuse_a_slope_below_one(self):
        # Unit weights and thresholds have slope 1, so no theta below 1 can
        # be met; without unit=True the slope stays at most theta.
        with pytest.raises(DomainError, match="theta must be at least 1 for unit weights"):
            random_uniform(0, theta="1/2", unit=True)
        assert validate_locally_uniform(random_uniform(0, theta="1/2")).theta <= Fraction(1, 2)
        assert validate_locally_uniform(random_uniform(0, theta=1, unit=True)).theta == 1

    def test_matches_subset_brute_force(self):
        rng = random.Random(9)
        for seed in range(100):
            inst = random_uniform(seed, theta=6)
            ubi = validate_locally_uniform(inst)
            want = self._facility_subset_optimum(ubi)
            assert exact_solve(inst).value == Fraction(want, inst.scale)

    @staticmethod
    def _facility_subset_optimum(ubi):
        best = None
        facilities = [v for v in ubi.facilities if ubi.adjacency[v]]
        for r in range(1, len(facilities) + 1):
            for combo in itertools.combinations(facilities, r):
                open_set = set(combo)
                total = sum((ubi.weight[v] for v in combo), ZERO)
                feasible = True
                for c in ubi.clients:
                    prices = [
                        ubi.service[v]
                        for v in combo
                        if c in ubi.adjacency[v]
                    ]
                    if not prices:
                        feasible = False
                        break
                    total += min(prices)
                if feasible and (best is None or total < best):
                    best = total
        assert best is not None
        return best


class TestThetaSetcover:
    def test_single_set_covers_all(self):
        n, w, theta = 4, Fraction(3), Fraction(2)
        elements = [f"e{i}" for i in range(n)]
        inst = from_theta_setcover({"s": elements}, elements, {"s": w}, theta)
        assert exact_solve(inst).value == w + n * w / theta

    def test_slope_at_most_theta(self):
        for theta in (2, 5, 10):
            for seed in range(30):
                inst = random_theta_setcover(seed, theta)
                costs = derive_costs(inst)
                assert costs.theta <= theta


class TestRandomFamilies:
    def test_minpower_slope(self):
        for seed in range(30):
            inst = random_minpower(9, 15, seed)
            assert derive_costs(inst).theta <= 1

    def test_unit_thresholds(self):
        for seed in range(20):
            inst = random_unit(10, 15, seed)
            assert inst.is_unit()

    def test_determinism_byte_identical(self):
        for family in sorted(FAMILIES):
            a = generate(family, 7)
            b = generate(family, 7)
            assert dumps_instance(a) == dumps_instance(b)

    def test_every_family_feasible(self):
        for family in sorted(FAMILIES):
            for seed in (0, 1, 2):
                inst = generate(family, seed)
                costs = derive_costs(inst)  # raises if a terminal is isolated
                assert costs.delta >= 1

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            generate("nope", 0)

    def test_benchmark_agrees_with_the_family_table(self):
        # The benchmark keeps its own copy of what bench certifies on each
        # family it runs; a family it does not run is not checked.
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        certify = workloads.Certify
        assert certify.LIMITS.keys() <= certify.ALGORITHMS.keys()
        for family, algorithms in certify.ALGORITHMS.items():
            assert FAMILIES[family].algorithms == algorithms, family
            assert FAMILIES[family].limits == certify.LIMITS.get(family, {}), family


class TestSizeErrors:
    # A size the draw cannot meet is refused with DomainError, naming the
    # argument, before the first draw; the smallest sizes it can meet draw.
    def test_minpower(self):
        for args, kwargs, text in [
            ((2, 3, 0), {}, "n must exceed 2"),
            ((4, 3, 0), {"r": 5}, "r must be in 0..n"),
            ((4, 3, 0), {"r": -1}, "r must be in 0..n"),
            ((4, -1, 0), {}, "m must be non-negative"),
            ((1, 1, 0), {"r": 0}, "n must be at least 2"),
        ]:
            with pytest.raises(DomainError, match=text):
                random_minpower(*args, **kwargs)
        assert len(random_minpower(3, 3, 0).terminals) == 2

    def test_unit(self):
        for n in (1, 3):
            with pytest.raises(DomainError, match="n must exceed 3"):
                random_unit(n, 1, 0)
        with pytest.raises(DomainError, match="r must be in 0..n"):
            random_unit(4, 4, 0, r=5)
        assert len(random_unit(4, 4, 0).terminals) == 3

    def test_general(self):
        with pytest.raises(DomainError, match="r must be in 0..n, got r=9 with n=5"):
            random_general(5, 5, 3, 0, r=9)
        with pytest.raises(DomainError, match="n must exceed 2"):
            random_general(2, 3, 3, 0)
        assert len(random_general(5, 5, 3, 0, r=5).terminals) == 5

    def test_general_levels_and_uniform_theta(self):
        with pytest.raises(DomainError, match="^levels must be in 1..6$"):
            random_general(5, 5, 0, 0)
        with pytest.raises(DomainError, match="^theta must be positive, got 0$"):
            random_uniform(0, theta=0)

    @pytest.mark.parametrize("draw", [
        lambda: random_minpower(6, 6, 0),
        lambda: random_general(6, 6, 3, 0),
        lambda: random_unit(6, 6, 0),
        lambda: random_uniform(0),
        lambda: random_theta_setcover(0, 2),
        lambda: random_installation(0),
    ], ids=["minpower", "general", "unit", "uniform", "theta-setcover", "installation"])
    def test_an_exhausted_retry_budget_raises_generation_failed(self, monkeypatch, draw):
        monkeypatch.setattr(generators, "_RETRY_BUDGET", 0)
        with pytest.raises(GenerationFailed, match="^no feasible draw after 0 attempts$"):
            draw()

    def test_installation(self):
        for kwargs, text in [
            ({"n_range": (1, 1)}, "n_range"),
            ({"n_range": (2, 4)}, "n_range"),
            ({"n_range": (6, 5)}, "n_range"),
            ({"r_range": (3, 2)}, "r_range"),
            ({"r_range": (-1, 2)}, "r_range"),
            ({"n_range": (5, 8), "r_range": (5, 6)}, "r_range"),
        ]:
            with pytest.raises(DomainError, match=text):
                random_installation(0, **kwargs)
        assert len(random_installation(0, n_range=(3, 3), r_range=(2, 2)).terminals) == 2


class TestInstallation:
    def test_height_menu_5_15_20_slope_four(self):
        # Heights 5/15/20 with demand 25 give q=5 and c=20 at a terminal.
        inst = from_installation(
            ["u", "v"],
            ["u"],
            {("u", "v"): 25},
            {("u", "v"): (1, 1)},
            {"u": (5, 15, 20), "v": (5, 15, 20)},
        )
        costs = exact_costs(inst)
        assert costs.q["u"] == 5 and costs.c["u"] == 20
        assert costs.theta == 4

    def test_zero_demand_with_zero_level(self):
        inst = from_installation(
            ["u", "v"],
            ["u"],
            {("u", "v"): 0},
            {("u", "v"): (1, 1)},
            {"u": (0, 5), "v": (0, 5)},
        )
        costs = exact_costs(inst)
        assert costs.q["u"] == 0 and costs.c["u"] == 0
        assert exact_solve(inst).value == 0

    def test_demands_on_and_beside_a_height_sum_match_the_reference(self):
        # The least height b of v solves CU*ia + CV*ib >= H on integers by
        # the ceiling of (H - CU*ia)/CV.  A demand exactly cu*a + cv*b keeps
        # b for a; one 1/D above must take a higher height, one 1/D below
        # may not take a lower one.  Over mixed denominators the quotient is
        # mostly not whole, so a floor in place of the ceiling shows.
        rng = random.Random(47)
        values = [Fraction(x) for x in ("0", "1/2", "1", "4/3", "7/5", "5/3", "9/4", "11/6", "3/7")]
        coefs = [Fraction(x) for x in ("1", "1/3", "2/5", "3/2", "5/7", "7/4", "3")]
        pair = ("u", "v")
        for case in range(300):
            lu = rng.sample(values, rng.randint(1, 4))
            lv = rng.sample(values, rng.randint(1, 4))
            cu, cv = rng.choice(coefs), rng.choice(coefs)
            on = cu * rng.choice(lu) + cv * rng.choice(lv)
            D = math.lcm(*(x.denominator for x in (*lu, *lv, cu, cv, on)))
            for h in (on, on + Fraction(1, D), on - Fraction(1, D)):
                if h < 0:
                    continue
                args = (pair, ["u"], {pair: h}, {pair: (cu, cv)}, {"u": lu, "v": lv})
                got = from_installation(*args)
                assert got == reference_installation(*args), (case, h)
                assert got.scaled_edges or h != on, case

    def test_oracle_matches_level_brute_force(self):
        for seed in range(50):
            inst = random_installation(seed, n_range=(4, 6), r_range=(2, 4))
            got = exact_solve(inst).value
            assert got == self._level_brute_force(inst, seed)

    @staticmethod
    def _level_brute_force(inst, seed):
        # Reconstructing heights directly from the reduced instance: per-node
        # candidate values are zero plus its incident thresholds, which are
        # exactly the usable menu heights for that node.
        candidates = []
        for n in inst.nodes:
            vals = {ZERO}
            for ei in inst.edges_at[n]:
                vals.add(threshold_at(inst.edges[ei], n))
            candidates.append(sorted(vals))
        best = None
        from aecover.core import covered_terminals

        for values in itertools.product(*candidates):
            valmap = dict(zip(inst.nodes, values))
            if covered_terminals(inst, levels=to_levels(inst, valmap)) == inst.terminals:
                total = sum(values, ZERO)
                if best is None or total < best:
                    best = total
        return best


class TestTight73:
    def test_degree_profile(self):
        inst, priority = tight73()
        bottoms = [n for n in inst.nodes if n.startswith("w")]
        uppers = [n for n in inst.nodes if n.startswith("u")]
        assert len(inst.terminals) == 48
        assert len(uppers) == 12 and len(bottoms) == 13
        degrees = sorted(len(inst.edges_at[b]) for b in bottoms)
        assert degrees == [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4]
        assert all(len(inst.edges_at[u]) == 4 for u in uppers)
        assert set(priority) == set(bottoms) | set(uppers)
        assert list(priority[:13]) == bottoms

    def test_family_record_carries_the_priority(self):
        record = FAMILIES["tight73"]
        assert record.priority == tight73()[1]
        assert record.limits == {"max_terminals": 48, "max_nodes": 80}

    def test_leaf_slot_three_upper_only(self):
        inst, _ = tight73()
        for i in range(12):
            leaf = f"t{4 * i + 3:02d}"
            neighbors = {other_end(inst.edges[e], leaf) for e in inst.edges_at[leaf]}
            assert neighbors == {f"u{i:02d}"}
