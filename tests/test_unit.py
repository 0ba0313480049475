"""Unit-threshold reduction, exact 2-set-cover, the k-set-cover searches, both solvers."""

import hashlib
import importlib.util
import inspect
import itertools
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

import aecover
import aecover.unit
from aecover.bounds import A1_RATIO, RHO, harmonic
from aecover.cli import run_algorithm
from aecover.core import Instance, degree_bound, derive_costs
from aecover.errors import (
    IncompleteCover,
    Infeasible,
    NotUnitThresholds,
    PhaseInvariantViolated,
    SizeBoundViolated,
)
from aecover.fileio import loads_instance
from aecover.generators import generate, random_unit, tight73
from aecover.oracle import exact_solve
from aecover.unit import (
    CoverSearch,
    SetCoverInstance,
    _restrict,
    exact_2setcover,
    exact_bb,
    greedy_hk,
    maximum_matching,
    reduce_unit,
    solve_unit_a1,
    solve_unit_a2,
)
from conftest import (
    covers, enum_setcover_optimum, random_set_system, reference_greedy_hk, search_of,
)


def _reference_exact_bb(sc: SetCoverInstance, k: int) -> tuple[str, ...]:
    """The former exact_bb, kept as the reference: element branching with a
    covered-mask memo of whole pick tuples and the ceil(remaining/k) bound."""
    if sc.max_set_size() > k:
        raise SizeBoundViolated(f"set larger than k={k}")
    sc.check_feasible()
    n = len(sc.elements)
    rank = sc.element_rank()
    full = (1 << n) - 1
    set_masks: list[tuple[str, int]] = []
    for v, s in sc.sets.items():
        mask = 0
        for x in s:
            mask |= 1 << rank[x]
        set_masks.append((v, mask))
    by_element: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for v, mask in set_masks:
        for i in range(n):
            if mask >> i & 1:
                by_element[i].append((v, mask))

    memo: dict[int, tuple[int, tuple[str, ...]]] = {}

    def solve(mask: int) -> tuple[int, tuple[str, ...]]:
        if mask == full:
            return 0, ()
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = next(j for j in range(n) if not mask >> j & 1)
        best: Optional[tuple[int, tuple[str, ...]]] = None
        for v, smask in by_element[i]:
            new_mask = mask | smask
            if best is not None:
                remaining = n - bin(new_mask).count("1")
                if 1 + -(-remaining // k) >= best[0]:
                    continue
            count, picks = solve(new_mask)
            cand = (count + 1, (v,) + picks)
            if best is None or cand[0] < best[0]:
                best = cand
        assert best is not None
        memo[mask] = best
        return best

    _, picks = solve(0)
    return tuple(sorted(picks))


# The reference ignores the bound and returns its whole cover.
REFERENCE_SEARCH = search_of(lambda sc, k, below: _reference_exact_bb(sc, k))


def solve_with(search, inst: Instance):
    """``solve_unit_a2(inst)`` with ``search`` in place of ``CoverSearch``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aecover.unit, "CoverSearch", search)
        return solve_unit_a2(inst)


def _parent_exact_bb(sc: SetCoverInstance, k: int) -> tuple[str, ...]:
    """The exact_bb search before the value search and the cover walk were
    split: lowest-rank-first element branching that memoizes each mask's
    count with the first set, in ``sc.sets`` order, reaching it, and follows
    those sets to rebuild the cover.  Kept as the reference the cover of
    exact_bb must equal."""
    if sc.max_set_size() > k:
        raise SizeBoundViolated(f"set larger than k={k}")
    sc.check_feasible()
    rank = sc.element_rank()
    names = list(sc.sets)
    masks = [sum(1 << rank[x] for x in s) for s in sc.sets.values()]
    by_element: list[list[tuple[int, int]]] = [[] for _ in sc.elements]
    # reach[i]: every element that shares a set with element i, i included.
    reach = [0] * len(sc.elements)
    for j, mask in enumerate(masks):
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            by_element[i].append((j, mask))
            reach[i] |= mask
            rest &= rest - 1
    exact: dict[int, tuple[int, int]] = {}
    floor: dict[int, int] = {}

    def search(free: int, ub: int) -> int:
        if not free:
            return 0
        hit = exact.get(free)
        if hit is not None:
            return hit[0]
        packing = 0
        rest = free
        while rest:
            packing += 1
            rest &= ~reach[(rest & -rest).bit_length() - 1]
        lb = max(-(-free.bit_count() // k), packing, floor.get(free, 0))
        if lb >= ub:
            return lb
        best, best_j = ub, -1
        for j, mask in by_element[(free & -free).bit_length() - 1]:
            count = search(free & ~mask, best - 1) + 1
            if count < best:
                best, best_j = count, j
                if best == lb:
                    break
        if best_j < 0:
            floor[free] = ub
            return ub
        exact[free] = (best, best_j)
        return best

    free = (1 << len(sc.elements)) - 1
    search(free, len(sc.elements) + 1)
    picks = []
    while free:
        j = exact[free][1]
        picks.append(names[j])
        free &= ~masks[j]
    return tuple(sorted(picks))


def nested_code(code: types.CodeType):
    """``code`` and every code object nested in it, at any depth."""
    yield code
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            yield from nested_code(c)


def search_calls(fn, *args):
    """``fn(*args)`` and the number of calls of the exact search's inner
    ``search`` it made, counted with a profile hook.  The code object is
    found wherever it is nested, in a function or a method of the module."""
    unit = aecover.unit
    codes = [
        f.__code__ for obj in vars(unit).values()
        if getattr(obj, "__module__", None) == unit.__name__
        for f in (obj, *vars(obj).values()) if inspect.isfunction(f)
    ]
    search = next(c for code in codes for c in nested_code(code) if c.co_name == "search")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is search:
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def facility_unit_instance(n: int, rng: random.Random) -> Instance:
    """n terminals and n facilities; f_j joins t_j and 3 sampled terminals."""
    terms = [f"t{i}" for i in range(n)]
    facs = [f"f{j}" for j in range(n)]
    edges = []
    for j, f in enumerate(facs):
        edges.append((terms[j], f, 1, 1))
        edges.extend((t, f, 1, 1) for t in rng.sample(terms, 3))
    return Instance.from_data(terms + facs, terms, edges)


class TestReduceUnit:
    def test_terminal_pair_precovered(self):
        inst = Instance.from_data(["a", "b"], ["a", "b"], [("a", "b", 1, 1)])
        sc = reduce_unit(inst)
        assert sc.elements == ()
        assert solve_unit_a1(inst).value == 2
        assert solve_unit_a2(inst).value == 2

    def test_path_through_facility(self):
        inst = Instance.from_data(
            ["a", "v", "b"], ["a", "b"], [("a", "v", 1, 1), ("v", "b", 1, 1)]
        )
        sc = reduce_unit(inst)
        assert sc.elements == ("a", "b")
        assert sc.sets == {"v": frozenset({"a", "b"})}
        assert solve_unit_a1(inst).value == 3

    def test_rejects_non_unit(self, tiny_instance):
        with pytest.raises(NotUnitThresholds):
            reduce_unit(tiny_instance)

    def test_reduction_value_matches_oracle(self):
        for seed in range(60):
            inst = random_unit(10, 16, seed, r=6)
            sc = reduce_unit(inst)
            if sc.elements:
                tau = enum_setcover_optimum(sc.elements, sc.sets)
            else:
                tau = 0
            assert len(inst.terminals) + tau == exact_solve(inst).value

    def test_oracle_output_has_unit_structure(self):
        for seed in range(40):
            inst = random_unit(10, 16, seed, r=6)
            result = exact_solve(inst)
            values = result.assignment.values
            assert all(x == 1 for x in values.values())
            assert all(u in values for u in inst.terminals)
            sc = reduce_unit(inst)
            support = {v for v in values if v not in inst.terminals}
            covered = set()
            for v in support & set(sc.sets):
                covered |= sc.sets[v]
            assert covered >= set(sc.elements)


class TestExact2SetCover:
    def test_disjoint_pairs(self):
        sc = SetCoverInstance(
            ("1", "2", "3", "4"),
            {"a": frozenset({"1", "2"}), "b": frozenset({"3", "4"})},
        )
        assert len(exact_2setcover(sc)) == 2

    def test_shared_element_path(self):
        sc = SetCoverInstance(
            ("1", "2", "3"),
            {"a": frozenset({"1", "2"}), "b": frozenset({"2", "3"})},
        )
        assert len(exact_2setcover(sc)) == 2

    def test_size_bound(self):
        sc = SetCoverInstance(("1", "2", "3"), {"a": frozenset({"1", "2", "3"})})
        with pytest.raises(SizeBoundViolated):
            exact_2setcover(sc)

    def test_infeasible(self):
        sc = SetCoverInstance(("1", "2"), {"a": frozenset({"1"})})
        with pytest.raises(Infeasible):
            exact_2setcover(sc)

    def test_matches_enumeration(self):
        rng = random.Random(2)
        for _ in range(2000):
            sc = random_set_system(rng, rng.randint(1, 12), rng.randint(1, 10), 2)
            got = exact_2setcover(sc)
            want = enum_setcover_optimum(sc.elements, sc.sets)
            assert len(got) == want == len(exact_bb(sc, 2)), sc
            covered = set()
            for v in got:
                covered |= sc.sets[v]
            assert covered >= set(sc.elements)

    def test_large_system_in_polynomial_time(self):
        # 3,000 elements, 9,000 random pairs and a singleton per element.
        rng = random.Random(0)
        elements = tuple(f"x{i:04d}" for i in range(3000))
        sets = {f"p{j:04d}": frozenset(rng.sample(elements, 2)) for j in range(9000)}
        sets.update((f"s{i:04d}", frozenset((x,))) for i, x in enumerate(elements))
        sc = SetCoverInstance(elements, sets)
        start = time.perf_counter()
        got = exact_2setcover(sc)
        elapsed = time.perf_counter() - start
        assert set().union(*(sc.sets[v] for v in got)) == set(elements)
        assert len(got) >= len(elements) / 2
        assert elapsed < 1, elapsed


class TestMaximumMatching:
    # In both graphs the first-free-neighbour pass leaves vertices 0 and 1
    # free, and the search from 1 finds its augmenting path only by
    # contracting an odd cycle; a search that skips the contraction drops
    # that tree and ends with 3 pairs, not 4.
    GRAPHS = {
        # The 5-cycle 2-6-7-4-5 with the stem 1-3-2, and 0 hanging off 6.
        "five-cycle-with-stem": [[6], [3], [3, 6, 5], [2, 1], [5, 7], [4, 2], [7, 2, 0], [6, 4]],
        # The triangles 0-2-3 and 1-6-7 joined by the path 3-4-5-6.
        "two-odd-cycles": [[2, 3], [6, 7], [3, 0], [2, 0, 4], [5, 3], [4, 6], [1, 7, 5], [6, 1]],
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_blossom_is_contracted(self, name):
        adj = self.GRAPHS[name]
        assert all(v in adj[w] for v, ns in enumerate(adj) for w in ns)
        mate = maximum_matching(adj)
        assert all(mate[w] == v and w in adj[v] for v, w in enumerate(mate))


class TestExactBB:
    def test_singleton_sets(self):
        sc = SetCoverInstance(
            ("1", "2"), {"a": frozenset({"1"}), "b": frozenset({"2"})}
        )
        assert len(exact_bb(sc, 1)) == 2

    def test_size_bound(self):
        sc = SetCoverInstance(("1", "2"), {"a": frozenset({"1", "2"})})
        with pytest.raises(SizeBoundViolated):
            exact_bb(sc, 1)

    def test_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(150):
            k = rng.randint(2, 5)
            sc = random_set_system(rng, rng.randint(2, 10), rng.randint(2, 8), k)
            got = exact_bb(sc, k)
            assert len(got) == enum_setcover_optimum(sc.elements, sc.sets)

    def test_matches_reference_on_random_systems(self):
        rng = random.Random(13)
        for case in range(300):
            k = case % 6 + 1
            sc = random_set_system(rng, rng.randint(1, 14), rng.randint(1, 10), k)
            assert exact_bb(sc, k) == _reference_exact_bb(sc, k), (case, sc)

    def test_empty_system(self):
        empty = SetCoverInstance((), {})
        for k in range(1, 4):
            assert exact_bb(empty, k) == _reference_exact_bb(empty, k)
            assert exact_bb(empty, k) == ()

    def test_matches_reference_on_unit_a2_residuals(self):
        # Every phase residual of solve-unit shaped instances: the whole
        # solution and the final report must equal the reference's.
        calls = []

        def checked(sc, k, below):
            got = exact_bb(sc, k)
            assert got == _reference_exact_bb(sc, k), (k, sc)
            calls.append(k)
            return got

        rng = random.Random(17)
        for n in range(10, 31):
            inst = facility_unit_instance(n, rng)
            report = solve_with(search_of(checked), inst)
            assert report.to_json() == solve_with(REFERENCE_SEARCH, inst).to_json()
        assert len(calls) >= 21

    @staticmethod
    def tie_heavy_system(rng: random.Random, k: int) -> SetCoverInstance:
        """A random k-bounded system of up to 18 elements in which some
        elements lie in one set only and some sets appear more than once, at
        random places in the set order, so that optimal covers tie."""
        sc = random_set_system(rng, rng.randint(1, 18), rng.randint(1, 12), k)
        sets = [(v, set(s)) for v, s in sc.sets.items()]
        for x in rng.sample(sc.elements, rng.randint(0, len(sc.elements) // 2)):
            holders = [s for _, s in sets if x in s]
            keep = rng.choice(holders)
            for s in holders:
                if s is not keep:
                    s.discard(x)
        sets = [(v, s) for v, s in sets if s]
        for c in range(rng.randint(1, 4)):
            _, s = rng.choice(sets)
            sets.insert(rng.randint(0, len(sets)), (f"d{c}", set(s)))
        return SetCoverInstance(sc.elements, {v: frozenset(s) for v, s in sets})

    def test_matches_parent_search_on_tie_heavy_systems(self):
        rng = random.Random(18)
        singles = duplicated = 0
        for case in range(2400):
            k = case % 6 + 1
            sc = self.tie_heavy_system(rng, k)
            assert exact_bb(sc, k) == _parent_exact_bb(sc, k), (case, sc)
            members = [x for s in sc.sets.values() for x in s]
            singles += any(members.count(x) == 1 for x in sc.elements)
            duplicated += len(set(sc.sets.values())) < len(sc.sets)
        assert singles > 1000 and duplicated > 2000

    def test_matches_parent_search_on_unit_a2_residuals(self):
        # Every phase residual of facility_unit_instance(n) for n = 10..45.
        calls = []

        def checked(sc, k, below):
            got = exact_bb(sc, k)
            assert got == _parent_exact_bb(sc, k), (k, sc)
            calls.append(k)
            return got

        for n in range(10, 46):
            solve_with(search_of(checked), facility_unit_instance(n, random.Random(7)))
        assert len(calls) >= 36

    def test_below_returns_none_exactly_when_no_smaller_cover(self):
        rng = random.Random(19)
        found = refused = 0
        for case in range(3000):
            k = case % 6 + 1
            sc = random_set_system(rng, rng.randint(1, 14), rng.randint(1, 10), k)
            reference = _reference_exact_bb(sc, k)
            below = rng.randint(0, len(reference) + 2)
            got = exact_bb(sc, k, below)
            if len(reference) >= below:
                assert got is None, (case, below, sc)
                refused += 1
            else:
                assert got == reference, (case, below, sc)
                found += 1
        assert found > 1000 and refused > 1000

    def test_below_on_the_empty_system(self):
        empty = SetCoverInstance((), {})
        assert exact_bb(empty, 1, 0) is None
        assert exact_bb(empty, 1, 1) == ()

    def test_one_search_answers_shrinking_calls_like_fresh_ones(self):
        # One search is asked, as unit-a2's phases ask it, for nested,
        # shrinking element sets with falling k and random below.  Each
        # answer must equal exact_bb on the cut-down system and keep the
        # reference's contract; no floor may fall or exceed an exact count.
        rng = random.Random(37)
        calls = found = refused = 0
        for case in range(3000):
            k = case % 6 + 1
            if case % 2:
                sc = random_set_system(rng, rng.randint(1, 14), rng.randint(1, 10), k)
            else:
                sc = self.tie_heavy_system(rng, k)
            search = CoverSearch(sc)
            uncovered = set(sc.elements)
            while True:
                cut = _restrict(sc, uncovered)
                k = rng.randint(max(1, cut.max_set_size()), k)
                reference = _reference_exact_bb(cut, k)
                below = rng.choice([None, rng.randint(0, len(reference) + 2)])
                floors = dict(search.floor)
                got = search.cover(uncovered, k, below)
                where = (case, sorted(uncovered), k, below)
                assert got == exact_bb(cut, k, below), where
                if below is not None and len(reference) >= below:
                    assert got is None, where
                    refused += 1
                else:
                    assert got == reference, where
                    found += 1
                assert all(search.floor[m] >= f for m, f in floors.items()), where
                exact = search.exact
                assert all(exact[m] >= f for m, f in search.floor.items() if m in exact), where
                calls += 1
                if not uncovered:
                    break
                # Some calls repeat the last set, so that one mask is asked
                # under several bounds.
                uncovered -= set(rng.sample(sorted(uncovered), rng.randint(0, len(uncovered))))
        assert calls > 6000 and found > 3000 and refused > 1000

    def test_a_floor_answers_a_later_call_at_once(self):
        # Every two of ten elements share a set, so the packing count is 1
        # and ceil(10/6) is 2, far below the optimum of 5.  A call refused
        # under below=5 leaves the whole mask the floor 5; a later call
        # under below=4 must answer from it at once and leave it at 5.
        elements = tuple(f"x{i}" for i in range(10))
        pairs = itertools.combinations(elements, 2)
        sc = SetCoverInstance(elements, {a + b: frozenset((a, b)) for a, b in pairs})
        search = CoverSearch(sc)
        whole = (1 << len(elements)) - 1
        assert search.cover(elements, 6, 5) is None
        assert search.floor[whole] == 5
        got, calls = search_calls(search.cover, elements, 6, 4)
        assert (got, calls, search.floor[whole]) == (None, 1, 5)
        assert search.cover(elements, 6) == exact_bb(sc, 6) == _reference_exact_bb(sc, 6)

    def test_exact_2setcover_agrees_with_bb(self):
        rng = random.Random(4)
        for _ in range(60):
            sc = random_set_system(rng, rng.randint(2, 9), rng.randint(2, 7), 2)
            assert len(exact_2setcover(sc)) == len(exact_bb(sc, 2))


class TestGreedyHk:
    def test_quality_guarantee(self):
        rng = random.Random(5)
        for _ in range(80):
            k = rng.randint(2, 6)
            sc = random_set_system(rng, rng.randint(2, 10), rng.randint(2, 8), k)
            greedy_size = len(greedy_hk(sc, k))
            opt = enum_setcover_optimum(sc.elements, sc.sets)
            assert greedy_size <= harmonic(k) * opt


    def test_matches_the_former_loop(self):
        # greedy_hk is the star phases run to the end; it must pick what the
        # former loop picked, on tie-heavy systems with repeated sets and on
        # random ones, for every k from the largest set size up to 6.
        rng = random.Random(43)
        calls = duplicated = 0
        for case in range(2400):
            top = case % 6 + 1
            if case % 2:
                sc = random_set_system(rng, rng.randint(1, 14), rng.randint(1, 12), top)
            else:
                sc = TestExactBB.tie_heavy_system(rng, top)
            duplicated += len(set(sc.sets.values())) < len(sc.sets)
            with pytest.raises(SizeBoundViolated):
                greedy_hk(sc, sc.max_set_size() - 1)
            for k in range(sc.max_set_size(), 7):
                assert greedy_hk(sc, k) == reference_greedy_hk(sc, k), (case, k, sc)
                calls += 1
        assert calls > 4000 and duplicated > 1000

    def test_unchecked_infeasible_system_raises_incomplete_cover(self, monkeypatch):
        # With the feasibility check bypassed, an element in no set leaves
        # the greedy without a gain; that must raise, not loop or assert.
        monkeypatch.setattr(SetCoverInstance, "check_feasible", lambda self: None)
        for sets in ({"s": {"a", "b"}}, {"s": {"a", "b"}, "t": {"a"}}):
            sc = SetCoverInstance(("a", "c", "b"), {v: frozenset(m) for v, m in sets.items()})
            with pytest.raises(IncompleteCover) as exc:
                greedy_hk(sc, 2)
            assert exc.value.uncovered == ("c",)


class TestSolveUnitA1:
    def test_small_sets_solved_exactly(self):
        for seed in range(40):
            inst = random_unit(9, 13, seed, r=5)
            sc = reduce_unit(inst)
            if sc.max_set_size() <= 2:
                assert solve_unit_a1(inst).value == exact_solve(inst).value

    def test_one_big_star(self):
        terminals = [f"t{i}" for i in range(5)]
        inst = Instance.from_data(
            terminals + ["v"], terminals, [(t, "v", 1, 1) for t in terminals]
        )
        report = solve_unit_a1(inst)
        assert report.value == 6
        assert report.extras["greedy_stars"] == 1

    def test_certified_on_seeds(self):
        for seed in range(60):
            inst = random_unit(11, 18, seed)
            report = solve_unit_a1(inst)
            assert covers(inst, report.assignment)[0]
            opt = exact_solve(inst).value
            assert report.value / opt <= A1_RATIO

    def test_overlapping_star_trap_stays_within_certificate(self):
        # The size-4 middle star looks best but forces two extra picks; the
        # optimum uses the two disjoint triples.
        terminals = [f"t{i}" for i in range(1, 7)]
        sets = {
            "s1": ["t1", "t2", "t3"],
            "s2": ["t4", "t5", "t6"],
            "trap": ["t2", "t3", "t4", "t5"],
        }
        edges = [(t, v, 1, 1) for v, members in sets.items() for t in members]
        inst = Instance.from_data(terminals + sorted(sets), terminals, edges)
        report = solve_unit_a1(inst)
        opt = exact_solve(inst).value
        assert opt == 8
        assert report.value == 9  # trap star first, then two singleton fixes
        assert Fraction(report.value, 1) / opt <= A1_RATIO
        assert solve_unit_a2(inst).value == 8

    def test_never_worse_than_the_greedy_cover(self):
        # unit-a1 runs the greedy's own star phases through k=2 and then
        # takes a minimum cover of the same leftover, where the greedy takes
        # any cover: its value is at most |R| plus the greedy cover's size.
        def greedy_value(inst):
            sc = reduce_unit(inst)
            return len(inst.terminals) + len(greedy_hk(sc, sc.max_set_size()))

        rng = random.Random(23)
        instances = [*unit_instances(), tight73()[0]]
        instances += [random_unit(rng.randint(8, 30), rng.randint(12, 60), seed)
                      for seed in range(300)]
        strict = 0
        for inst in instances:
            value, greedy = solve_unit_a1(inst).value, greedy_value(inst)
            assert value <= greedy
            strict += value < greedy
        assert strict >= 1
        inst = facility_unit_instance(125, random.Random(7))
        assert (solve_unit_a1(inst).value, greedy_value(inst)) == (172, 173)


class TestSolveUnitA2:
    def test_one_big_star_first_extraction(self):
        terminals = [f"t{i}" for i in range(6)]
        inst = Instance.from_data(
            terminals + ["v", "w"],
            terminals,
            [(t, "v", 1, 1) for t in terminals] + [("t0", "w", 1, 1)],
        )
        report = solve_unit_a2(inst)
        assert report.value == 7

    def test_tight_example(self):
        inst, _ = tight73()
        exact_report = solve_unit_a2(inst)
        assert exact_report.value == 60  # the finish solves phase delta exactly
        assert exact_report.value <= 73
        assert Fraction(exact_report.value, 60) <= RHO

    def test_certified_on_seeds(self):
        for seed in range(60):
            inst = random_unit(11, 18, seed)
            report = solve_unit_a2(inst)
            assert covers(inst, report.assignment)[0]
            opt = exact_solve(inst).value
            assert report.value / opt <= RHO
            assert report.extras["C_size"] + report.extras["A_size"] == int(
                report.value
            ) - len(inst.terminals)

    def test_local_ratio_step_for_large_stars(self):
        # A facility with 8 clients forces an 8-star removal at phase k=7;
        # dropping the star must cost the optimum at least its leaf count.
        terminals = [f"t{i}" for i in range(10)]
        big = [(t, "v") for t in terminals[:8]]
        extra = [(t, "w") for t in terminals[6:]]
        edges = [(u, v, 1, 1) for u, v in big + extra]
        inst = Instance.from_data(terminals + ["v", "w"], terminals, edges)
        report = solve_unit_a2(inst)
        phases = report.trace["phases"]
        big_phases = [p for p in phases if p["k"] >= 7]
        assert big_phases, "expected an 8-star extraction"
        star = big_phases[0]["stars"][0]
        leaves = set(star["leaves"])
        assert star["root"] == "v" and len(leaves) == 8
        opt_before = exact_solve(inst).value
        survivors = [n for n in inst.nodes if n != "v" and n not in leaves]
        residual = Instance.from_data(
            survivors,
            [t for t in terminals if t not in leaves],
            [
                (e.u, e.v, e.tu, e.tv)
                for e in inst.edges
                if e.u in survivors and e.v in survivors
            ],
        )
        opt_after = exact_solve(residual).value
        assert opt_before - opt_after >= len(leaves)

    def test_roadmap_45_terminals_in_bounded_time(self):
        # The 45-terminal instance took about 1.4 s with the reference search.
        inst = facility_unit_instance(45, random.Random(7))
        start = time.perf_counter()
        report = solve_unit_a2(inst)
        elapsed = time.perf_counter() - start
        assert report.to_json() == solve_with(REFERENCE_SEARCH, inst).to_json()
        assert elapsed < 10, elapsed

    # sha256 of solve_unit_a2(...).to_json() with the former exact_bb, which
    # took 0.43 s and 14.4 s on these two instances (shared 2-vCPU Linux VM,
    # Python 3.11).
    PINNED_REPORTS = {
        55: "8295243cf706ac09fb4f2ff5847457a2bf39c8837e6733c2f8433bea2b7b9870",
        70: "7c16b37448418e57117065e05127a1028188cb1a929df0e00976a0c2cd7e0ee8",
    }

    @pytest.mark.parametrize("n", sorted(PINNED_REPORTS))
    def test_large_instance_matches_pinned_report(self, n):
        inst = facility_unit_instance(n, random.Random(7))
        start = time.perf_counter()
        report = solve_unit_a2(inst)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == self.PINNED_REPORTS[n]
        # The 70-terminal solve measured 0.14 s on the same machine.
        assert elapsed < 2, elapsed

    def test_bounded_phases_search_less_than_unbounded_ones(self):
        # Each phase's bounded search is set against the unbounded search of
        # the same residual, read in the same run.
        bounded = unbounded = 0

        def counted(sc, k, below):
            nonlocal bounded, unbounded
            finish, calls = search_calls(exact_bb, sc, k, below)
            bounded += calls
            cover, calls = search_calls(exact_bb, sc, k)
            unbounded += calls
            assert finish is None or finish == cover
            return finish

        rng = random.Random(19)
        for n in range(22, 29):
            for _ in range(3):
                inst = facility_unit_instance(n, rng)
                report = solve_with(search_of(counted), inst)
                assert report.to_json() == solve_with(REFERENCE_SEARCH, inst).to_json()
        assert 0 < bounded < unbounded

    def test_one_search_per_phase_reports_equal_the_shared_search(self):
        # A search built from exact_bb alone runs afresh on each phase's
        # cut-down system: its reports must equal the shared search's.
        instances = [facility_unit_instance(n, random.Random(s))
                     for s in range(3) for n in range(8, 61)]
        instances += [generate(family, seed)
                      for family in ("unit", "uniform-unit") for seed in range(200)]
        for inst in instances:
            want = solve_with(search_of(exact_bb), inst).to_json()
            assert solve_unit_a2(inst).to_json() == want

    def test_default_solve_builds_one_search(self, monkeypatch):
        # The default solve builds one CoverSearch, however many phases ask
        # it for a finish.
        builds = finishes = 0
        build, cover = CoverSearch.__init__, CoverSearch.cover

        def counted_build(self, sc):
            nonlocal builds
            builds += 1
            build(self, sc)

        def counted_cover(self, *args):
            nonlocal finishes
            finishes += 1
            return cover(self, *args)

        monkeypatch.setattr(CoverSearch, "__init__", counted_build)
        monkeypatch.setattr(CoverSearch, "cover", counted_cover)
        solves = 0
        for inst in unit_instances():
            builds = 0
            assert run_algorithm(inst, "auto").algorithm == "unit-a2"
            assert builds == 1
            solves += 1
        assert finishes > 2 * solves

    def test_finish_reusing_a_root_raises(self):
        # A finish that picks a phase root breaks the phase analysis.
        inst = facility_unit_instance(12, random.Random(1))
        every_set = tuple(reduce_unit(inst).sets)
        with pytest.raises(PhaseInvariantViolated):
            solve_with(search_of(lambda sc, k, below: every_set), inst)

    def test_uncovering_subsolver_raises_incomplete_cover(self):
        inst = facility_unit_instance(12, random.Random(1))
        with pytest.raises(IncompleteCover):
            solve_with(search_of(lambda sc, k, below: ()), inst)

    def test_phase_check_survives_optimize_flag(self):
        # Under python -O every assert is gone; the check must still raise.
        code = (
            "import random\n"
            "from aecover.core import Instance\n"
            "from aecover.errors import PhaseInvariantViolated\n"
            "import aecover.unit\n"
            "from aecover.unit import solve_unit_a2\n"
            "from conftest import search_of\n"
            "t = [f't{i}' for i in range(4)]\n"
            "edges = [(x, 'v', 1, 1) for x in t[:3]] + [(t[3], 'w', 1, 1), (t[2], 'w', 1, 1)]\n"
            "inst = Instance.from_data(t + ['v', 'w'], t, edges)\n"
            "aecover.unit.CoverSearch = search_of(lambda sc, k, below: ('v', 'w'))\n"
            "try:\n"
            "    solve_unit_a2(inst)\n"
            "except PhaseInvariantViolated:\n"
            "    raise SystemExit(7)\n"
        )
        src = os.path.dirname(os.path.dirname(aecover.__file__))
        tests = str(Path(__file__).resolve().parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
        assert done.returncode == 7

    def test_infeasible_element(self):
        inst = Instance.from_data(
            ["a", "b", "v"], ["a", "b"], [("a", "v", 1, 1)]
        )
        with pytest.raises(Infeasible):
            solve_unit_a2(inst)
        with pytest.raises(Infeasible):
            solve_unit_a1(inst)


def unit_instances():
    """The unit and uniform-unit families at seeds 0..199, the inputs of the
    solve-unit benchmark, and a unit instance with no terminal."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    instances = [generate(family, seed)
                 for family in ("unit", "uniform-unit") for seed in range(200)]
    instances += [loads_instance(text) for text in workloads.SolveUnit(0).setup(aecover)]
    return instances + [Instance.from_data(["a", "b"], [], [("a", "b", 1, 1)])]


class TestUnitReportSlope:
    def test_slope_and_degree_bound_match_derive_costs(self):
        # The unit solvers report theta and delta without deriving costs.
        for inst in unit_instances():
            assert inst.is_unit()
            want = derive_costs(inst)
            assert degree_bound(inst) == want.delta
            for solve in (solve_unit_a1, solve_unit_a2):
                rep = solve(inst)
                assert (rep.theta, rep.delta) == (want.theta, want.delta)
                assert type(rep.theta) is Fraction
            assert "costs" not in inst.__dict__
