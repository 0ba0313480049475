"""Average-price greedy: validation, worst case, and per-star accounting."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

import aecover.cli
import aecover.core
from aecover.bounds import harmonic, omega_bar
from aecover.cli import run_algorithm
from aecover.core import Instance, derive_costs
from aecover.errors import (
    IncompleteCover,
    Infeasible,
    NonUniformFacility,
    NotBipartite,
)
from aecover.fileio import dumps_instance, format_slope, instance_digest, loads_instance
from aecover.generators import (
    FAMILIES,
    from_facility_location,
    from_theta_setcover,
    generate,
    random_uniform,
    tight73,
)
from aecover.locally_uniform import (
    solve_locally_uniform,
    uniform_bound,
    validate_locally_uniform,
)
from aecover.oracle import exact_solve
from aecover.report import SolveReport
from conftest import (
    assignment_of,
    assignment_total,
    covers,
    exact_star_decomposition,
    random_multigraph,
    threshold_at,
)


def rescan_solve_locally_uniform(ubi, tie_break="lowest-id", priority=None):
    """The former greedy, kept as the reference: every step rescans every
    facility, recounts its uncovered clients and prices it in Fraction."""
    inst = ubi.inst
    weight = {v: Fraction(w, inst.scale) for v, w in ubi.weight.items()}
    service = {v: Fraction(t, inst.scale) for v, t in ubi.service.items()}
    if tie_break == "adversarial-order":
        rank = {}
        for i, v in enumerate(priority):
            rank.setdefault(v, i)  # a repeated facility ranks at its first occurrence
        tie_key = {v: (rank.get(v, len(priority)), inst.index[v]) for v in ubi.facilities}
    else:
        tie_key = {v: (0, inst.index[v]) for v in ubi.facilities}
    uncovered = set(ubi.clients)
    values = {}
    steps = []
    while uncovered:
        best = None
        for v in ubi.facilities:
            if v in values:
                continue
            k = sum(1 for c in ubi.adjacency[v] if c in uncovered)
            if k == 0:
                continue
            price = weight[v] / k + service[v]
            key = (price, tie_key[v])
            if best is None or key < best[0]:
                best = (key, v, k, price)
        if best is None:
            raise Infeasible("stuck")
        _, v, k, price = best
        served = tuple(c for c in ubi.adjacency[v] if c in uncovered)
        values[v] = weight[v]
        for c in served:
            values[c] = service[v]
        uncovered -= set(served)
        steps.append({"facility": v, "clients": list(served), "k": k, "price": str(price)})
    assignment = assignment_of(values)
    label, bound = uniform_bound(ubi)
    costs = derive_costs(inst)
    return SolveReport(
        instance_digest=instance_digest(inst),
        algorithm="locally-uniform",
        assignment=assignment,
        value=assignment_total(assignment),
        theta=ubi.theta,
        delta=ubi.inst.costs.delta,
        claimed_bound=bound,
        bound_label=label,
        trace={"steps": steps},
        extras={
            "tie_break": tie_break,
            "instance_slope": "inf" if costs.theta == math.inf else str(costs.theta),
        },
    )


def tied_facility_instance(rng):
    """Few price levels, so equal prices between facilities are common; some
    facilities are free (weight 0) and some clients have several links."""
    nf = rng.randint(1, 8)
    clients = [f"c{i}" for i in range(rng.randint(1, 14))]
    facilities = [f"f{j}" for j in range(nf)]
    service = {f: rng.choice([0, 1, Fraction(1, 2), 2]) for f in facilities}
    opening = {f: rng.choice([0, 0, 1, 2, 3, Fraction(3, 2)]) for f in facilities}
    links = {}
    for c in clients:
        for f in rng.sample(facilities, rng.randint(1, nf)):
            links[(c, f)] = service[f]
    return from_facility_location(clients, facilities, opening, links)


def assert_same_report(ubi, priority=None):
    """The greedy's report equals the reference's, run in the tie mode that
    a given priority list stands for."""
    got = solve_locally_uniform(ubi, priority)
    tie_break = "lowest-id" if priority is None else "adversarial-order"
    want = rescan_solve_locally_uniform(ubi, tie_break, priority)
    assert got.to_json() == want.to_json()
    return got


class TestValidate:
    def test_facility_location_uniform_succeeds(self):
        inst = from_facility_location(
            ["a", "b"],
            ["f", "g"],
            {"f": 3, "g": 1},
            {("a", "f"): 2, ("b", "f"): 2, ("a", "g"): 1, ("b", "g"): 1},
        )
        ubi = validate_locally_uniform(inst)
        assert ubi.weight["f"] == 3 and ubi.service["f"] == 2
        assert ubi.theta == Fraction(3, 2)
        assert ubi.inst.costs.delta == 2

    def test_non_uniform_facility(self):
        inst = Instance.from_data(
            ["a", "b", "f"],
            ["a", "b"],
            [("a", "f", 1, 2), ("b", "f", 3, 2)],
        )
        with pytest.raises(NonUniformFacility):
            validate_locally_uniform(inst)

    def test_terminal_terminal_edge_rejected(self):
        inst = Instance.from_data(["a", "b"], ["a", "b"], [("a", "b", 1, 1)])
        with pytest.raises(NotBipartite):
            validate_locally_uniform(inst)

    def test_facility_facility_edge_rejected(self):
        inst = Instance.from_data(
            ["a", "f", "g"], ["a"], [("a", "f", 1, 1), ("f", "g", 1, 1)]
        )
        with pytest.raises(NotBipartite):
            validate_locally_uniform(inst)

    def test_epsilon_setcover_reduction(self):
        eps = Fraction(1, 4)
        inst = from_theta_setcover(
            {"s1": ["x", "y"], "s2": ["y", "z"]},
            ["x", "y", "z"],
            {"s1": 1, "s2": 1},
            Fraction(1) / eps,
        )
        ubi = validate_locally_uniform(inst)
        assert all(Fraction(t, inst.scale) == eps for t in ubi.service.values())
        assert ubi.theta == 4  # slope 1/eps for unit weights


def reference_validate(inst):
    """The former validate_locally_uniform, kept as the reference: a pass for
    bipartiteness, then (weight, service) tuples compared per edge, sorted
    adjacency sets and Fraction division per facility."""
    for e in inst.edges:
        if (e.u in inst.terminals) == (e.v in inst.terminals):
            raise NotBipartite(f"edge {e.u!r}-{e.v!r} stays on one side")
    facilities = tuple(n for n in inst.nodes if n not in inst.terminals)
    weight, service = {}, {}
    adjacency = {v: [] for v in facilities}
    for e in inst.edges:
        fac, cli = (e.u, e.v) if e.u not in inst.terminals else (e.v, e.u)
        w, t = threshold_at(e, fac), threshold_at(e, cli)
        if fac in weight and (weight[fac], service[fac]) != (w, t):
            raise NonUniformFacility(fac)
        weight[fac], service[fac] = w, t
        adjacency[fac].append(cli)
    theta = Fraction(0)
    for v in facilities:
        adjacency[v] = tuple(sorted(set(adjacency[v]), key=inst.index.__getitem__))
        if not adjacency[v]:
            continue
        w, t = weight[v], service[v]
        if t > 0:
            if theta != math.inf:
                theta = max(theta, w / t)
        elif w > 0:
            theta = math.inf
    return weight, service, adjacency, theta


def outcome(fn, inst):
    """``fn(inst)``, or the type and message of the AecError it raises."""
    try:
        return fn(inst)
    except (NotBipartite, NonUniformFacility) as exc:
        return type(exc), str(exc)


class TestValidateAgainstReference:
    def view(self, inst):
        """The validated view with weights and services as exact values;
        they must be ints on the integer view."""
        ubi = validate_locally_uniform(inst)
        assert all(type(x) is int for x in (*ubi.weight.values(), *ubi.service.values()))
        weight = {v: Fraction(w, inst.scale) for v, w in ubi.weight.items()}
        service = {v: Fraction(t, inst.scale) for v, t in ubi.service.items()}
        return weight, service, ubi.adjacency, ubi.theta

    def test_families_and_random_multigraphs(self):
        instances = [generate(family, seed) for family in FAMILIES
                     for seed in range(20)]
        rng = random.Random(9)
        instances += [random_multigraph(rng) for _ in range(300)]
        for inst in instances:
            got, want = outcome(self.view, inst), outcome(reference_validate, inst)
            assert got == want
            if not isinstance(got[0], type):
                assert type(got[3]) is type(want[3])

    def test_equal_thresholds_need_not_be_one_object(self):
        # "1/2", "2/4" and the JSON number 0.5 are three literals of one
        # value: each is parsed on its own, and all three share one level.
        doc = {
            "nodes": ["a", "b", "c", "f"],
            "terminals": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "f", "tu": "1", "tv": "1/2"},
                {"u": "b", "v": "f", "tu": "1", "tv": "2/4"},
                {"u": "c", "v": "f", "tu": "1", "tv": 0.5},
            ],
        }
        inst = loads_instance(json.dumps(doc))
        assert [e.tv for e in inst.edges] == [Fraction(1, 2)] * 3
        assert inst.thresholds == {2: 1, 1: Fraction(1, 2)}
        assert [e[3] for e in inst.scaled_edges] == [1, 1, 1]
        ubi = validate_locally_uniform(inst)
        assert inst.scale == 2 and ubi.weight == {"f": 1} and ubi.theta == Fraction(1, 2)
        assert ubi.adjacency["f"] == ("a", "b", "c")
        same = json.loads(json.dumps(doc).replace('"2/4"', '"1/2"').replace("0.5", '"1/2"'))
        assert solve_locally_uniform(ubi).to_json() == solve_locally_uniform(
            validate_locally_uniform(loads_instance(json.dumps(same)))
        ).to_json()

    def test_mismatch_raises(self):
        doc = {
            "nodes": ["a", "b", "f"],
            "terminals": ["a", "b"],
            "edges": [
                {"u": "a", "v": "f", "tu": "1", "tv": "1/2"},
                {"u": "b", "v": "f", "tu": "1", "tv": "3/4"},
            ],
        }
        with pytest.raises(NonUniformFacility):
            validate_locally_uniform(loads_instance(json.dumps(doc)))
        doc["edges"][1]["tv"] = "2/4"
        doc["edges"][1]["tu"] = "3/2"
        with pytest.raises(NonUniformFacility):
            validate_locally_uniform(loads_instance(json.dumps(doc)))

    def test_bipartiteness_is_checked_before_uniformity(self):
        # f is not uniform on its first two edges; the later client-client
        # edge still decides the error.
        inst = Instance.from_data(
            ["a", "b", "f"],
            ["a", "b"],
            [("a", "f", 1, 2), ("b", "f", 3, 2), ("a", "b", 1, 1)],
        )
        assert outcome(self.view, inst) == outcome(reference_validate, inst)
        with pytest.raises(NotBipartite):
            validate_locally_uniform(inst)


class TestSolve:
    def test_single_facility_star(self):
        clients = [f"c{i}" for i in range(5)]
        inst = from_facility_location(
            clients, ["f"], {"f": 1}, {(c, "f"): 1 for c in clients}
        )
        report = solve_locally_uniform(validate_locally_uniform(inst))
        assert report.value == 6
        assert exact_solve(inst).value == 6

    def test_tight_example_both_orders(self):
        inst, priority = tight73()
        ubi = validate_locally_uniform(inst)
        assert ubi.theta == 1 and ubi.inst.costs.delta == 4
        best = solve_locally_uniform(ubi)
        worst = solve_locally_uniform(ubi, priority)
        assert best.value == 60
        assert worst.value == 73
        assert worst.claimed_bound == Fraction(73, 60)
        opt = exact_solve(inst, max_terminals=48, max_nodes=80).value
        assert opt == 60
        assert worst.value / opt == Fraction(73, 60)

    def test_repeated_facility_ranks_at_first_occurrence(self):
        # f and g serve both clients at one price, so the list decides.
        inst = from_facility_location(
            ["c1", "c2"], ["f", "g"], {"f": 1, "g": 1},
            {(c, v): 1 for c in ("c1", "c2") for v in ("f", "g")},
        )
        ubi = validate_locally_uniform(inst)
        for priority, opened in ((["f", "g", "f"], "f"), (["g", "f", "g"], "g"),
                                 (["g", "g", "f"], "g")):
            report = solve_locally_uniform(ubi, priority)
            assert [step["facility"] for step in report.trace["steps"]] == [opened]
            assert_same_report(ubi, priority)

    def test_infeasible_client(self):
        inst = Instance.from_data(
            ["a", "b", "f"], ["a", "b"], [("a", "f", 1, 1)]
        )
        with pytest.raises(Infeasible):
            solve_locally_uniform(validate_locally_uniform(inst))

    def test_uncovering_output_raises_incomplete_cover(self):
        # A view that understates the service threshold makes the greedy pay
        # every client too little; the report builder must refuse the output.
        clients = ["c0", "c1", "c2"]
        inst = from_facility_location(clients, ["f"], {"f": 1}, {(c, "f"): 2 for c in clients})
        ubi = validate_locally_uniform(inst)
        understated = dataclasses.replace(ubi, service={"f": 1})
        with pytest.raises(IncompleteCover) as err:
            solve_locally_uniform(understated)
        assert err.value.uncovered == tuple(clients)

    def test_certified_on_seeds(self):
        for seed in range(60):
            inst = random_uniform(seed, theta=5)
            ubi = validate_locally_uniform(inst)
            report = solve_locally_uniform(ubi)
            assert covers(inst, report.assignment)[0]
            opt = exact_solve(inst).value
            ratio = report.value / opt
            assert ratio <= 1 + omega_bar(ubi.theta, delta_cap=ubi.inst.costs.delta)

    def test_facility_slope_bounds_instance_slope(self):
        for seed in range(30):
            inst = random_uniform(seed, theta=3)
            ubi = validate_locally_uniform(inst)
            costs = derive_costs(inst)
            assert costs.theta <= ubi.theta <= 3

    def test_free_service_facility_gives_infinite_slope(self):
        # Weighted set cover shape: zero client-side thresholds, positive
        # weights; only the harmonic-number certificate applies.
        inst = Instance.from_data(
            ["a", "b", "f", "g"],
            ["a", "b"],
            [("a", "f", 0, 2), ("b", "f", 0, 2), ("b", "g", 0, 1)],
        )
        ubi = validate_locally_uniform(inst)
        assert ubi.theta == float("inf") and ubi.inst.costs.delta == 2
        report = solve_locally_uniform(ubi)
        assert report.claimed_bound == harmonic(2)
        assert report.value == 2  # one facility serves both clients
        assert report.value <= report.claimed_bound * exact_solve(inst).value


class TestSetCoverCoincidence:
    @staticmethod
    def classical_greedy_sequence(ubi):
        uncovered = set(ubi.clients)
        sequence = []
        while uncovered:
            best = None
            for v in ubi.facilities:
                if v in sequence:
                    continue
                k = sum(1 for c in ubi.adjacency[v] if c in uncovered)
                if k == 0:
                    continue
                key = (-k, ubi.inst.index[v])
                if best is None or key < best[0]:
                    best = (key, v)
            assert best is not None
            v = best[1]
            sequence.append(v)
            uncovered -= set(ubi.adjacency[v])
        return sequence

    def test_unit_instances_match_classical_greedy(self):
        for seed in range(40):
            inst = random_uniform(seed, theta=1, unit=True)
            ubi = validate_locally_uniform(inst)
            report = solve_locally_uniform(ubi)
            picked = [step["facility"] for step in report.trace["steps"]]
            assert picked == self.classical_greedy_sequence(ubi)


class TestPerStarAccounting:
    def test_payment_bound_per_optimal_star(self):
        for seed in range(40):
            inst = random_uniform(seed, theta=4)
            ubi = validate_locally_uniform(inst)
            report = solve_locally_uniform(ubi)
            result = exact_solve(inst)
            stars = exact_star_decomposition(inst, result.assignment)
            price_of = {}
            step_of = {}
            for i, step in enumerate(report.trace["steps"]):
                for c in step["clients"]:
                    price_of[c] = Fraction(step["price"])
                    step_of[c] = i
            for star in stars:
                if star.root in inst.terminals:
                    continue  # bipartite: roots are facilities
                w = Fraction(ubi.weight[star.root], inst.scale)
                t = Fraction(ubi.service[star.root], inst.scale)
                k = len(star.leaves)
                order = sorted(star.leaves, key=lambda c: step_of[c], reverse=True)
                total = Fraction(0)
                for i, c in enumerate(order, start=1):
                    assert price_of[c] <= w / i + t
                    total += price_of[c]
                assert total <= w * harmonic(k) + k * t


class TestIncrementalGreedy:
    def test_matches_rescan_on_families(self):
        for family in ("uniform", "uniform-unit"):
            for seed in range(30):
                assert_same_report(validate_locally_uniform(generate(family, seed)))

    def test_matches_rescan_on_tied_and_free_facilities(self):
        rng = random.Random(3)
        free = 0
        for case in range(400):
            ubi = validate_locally_uniform(tied_facility_instance(rng))
            free += any(w == 0 for w in ubi.weight.values())
            assert_same_report(ubi)
            priority = list(ubi.facilities)
            rng.shuffle(priority)
            del priority[rng.randint(0, len(priority)):]
            assert_same_report(ubi, priority)
        assert free > 100

    def test_matches_rescan_on_tight73_both_orders(self):
        inst, priority = tight73()
        ubi = validate_locally_uniform(inst)
        assert assert_same_report(ubi).value == 60
        assert assert_same_report(ubi, priority).value == 73

    def test_infeasible_client_matches_rescan(self):
        inst = Instance.from_data(
            ["a", "b", "f"], ["a", "b"], [("a", "f", 1, 2)]
        )
        ubi = validate_locally_uniform(inst)
        for solve in (solve_locally_uniform, rescan_solve_locally_uniform):
            with pytest.raises(Infeasible):
                solve(ubi)

    def test_auto_validates_once(self, monkeypatch):
        calls = []

        def counting(inst):
            calls.append(inst)
            return validate_locally_uniform(inst)

        monkeypatch.setattr(aecover.cli, "validate_locally_uniform", counting)
        inst = random_uniform(4, theta=3)
        report = run_algorithm(inst, "auto")
        assert report.algorithm == "locally-uniform"
        assert calls == [inst]
        calls.clear()
        assert run_algorithm(inst, "locally-uniform").to_json() == report.to_json()
        assert calls == [inst]


class TestSlopeAndDegreeFromTheView:
    """The solve reads the instance slope and degree bound off the validated
    view; they must equal the derived costs' ``theta`` and ``delta``."""

    @staticmethod
    def assert_matches_costs(inst):
        report = run_algorithm(inst, "locally-uniform")
        costs = derive_costs(inst)
        assert report.extras["instance_slope"] == format_slope(costs.theta)
        assert report.delta == validate_locally_uniform(inst).delta == costs.delta
        return report

    def test_families(self):
        for family in ("uniform", "uniform-unit", "tight73",
                       "setcover-t2", "setcover-t5", "setcover-t10"):
            for seed in range(200):
                self.assert_matches_costs(generate(family, seed))

    def test_tied_and_free_facilities(self):
        rng = random.Random(41)
        slopes = set()
        for _ in range(300):
            report = self.assert_matches_costs(tied_facility_instance(rng))
            slopes.add(report.extras["instance_slope"])
        assert {"inf", "0"} <= slopes and len(slopes) > 3

    @pytest.mark.parametrize(
        "edges, slope",
        [
            # q = 0 < c: a free service behind a paid facility.
            ([("a", "f", 0, 2), ("b", "f", 0, 2)], "inf"),
            # q = c = 0 imposes nothing; b's slope 3/2 decides.
            ([("a", "f", 0, 0), ("b", "g", 2, 3)], "3/2"),
            ([("a", "f", 0, 0), ("b", "f", 0, 0)], "0"),
            # a's cheapest service (f) and cheapest edge (g) differ: (3 - 1)/1.
            ([("a", "f", 1, 5), ("a", "g", 2, 1), ("b", "g", 2, 1)], "2"),
        ],
    )
    def test_boundary_slopes(self, edges, slope):
        inst = Instance.from_data(["a", "b", "f", "g"], ["a", "b"], edges)
        assert self.assert_matches_costs(inst).extras["instance_slope"] == slope

    @staticmethod
    def refuse(inst):
        raise AssertionError("derive_costs called")

    def test_solve_never_derives_costs(self, monkeypatch):
        monkeypatch.setattr(aecover.core, "derive_costs", self.refuse)
        rng = random.Random(43)
        cases = [generate(family, seed) for family in ("uniform", "tight73", "setcover-t5")
                 for seed in range(5)]
        cases += [tied_facility_instance(rng) for _ in range(50)]
        for inst in cases:
            run_algorithm(inst, "locally-uniform")
            loaded = loads_instance(dumps_instance(inst))
            if not loaded.is_unit():
                assert run_algorithm(loaded, "auto").algorithm == "locally-uniform"

    def test_client_without_facility_is_infeasible(self, tmp_path, monkeypatch, capsys):
        # c has no edge; a and b are served, so the greedy stops at c.
        inst = Instance.from_data(
            ["a", "b", "c", "f"], ["a", "b", "c"], [("a", "f", 2, 1), ("b", "f", 2, 1)]
        )
        with pytest.raises(Infeasible, match=r"\['c'\]"):
            run_algorithm(inst, "locally-uniform")
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(inst))
        monkeypatch.setattr(aecover.core, "derive_costs", self.refuse)
        assert aecover.cli.main(["solve", str(path)]) == 2
        assert "infeasible" in capsys.readouterr().err
