"""Unit-threshold solvers: residual set-cover reduction, the star-then-exact
solver, and the multi-phase solver with a pluggable k-set-cover subsolver.

With all thresholds 1, an optimal assignment is 0/1, pays 1 on every terminal,
and the non-terminal support must cover the terminals that no terminal-
terminal edge reaches.  Solving therefore reduces to unweighted set cover on
the residual bipartite instance, where the value offset |R| makes much better
ratios possible than for plain set cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import networkx as nx

from .bounds import A1_RATIO, RHO
from .core import Assignment, Instance
from .errors import (
    IncompleteCover,
    Infeasible,
    NotUnitThresholds,
    PhaseInvariantViolated,
    SizeBoundViolated,
)
from .report import SolveReport, solve_report


@dataclass(frozen=True)
class SetCoverInstance:
    """Elements plus named sets; order of ``elements`` and insertion order of
    ``sets`` define the deterministic tie-breaking."""

    elements: tuple[str, ...]
    sets: Mapping[str, frozenset[str]]

    def element_rank(self) -> Mapping[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def max_set_size(self) -> int:
        return max((len(s) for s in self.sets.values()), default=0)

    def check_feasible(self) -> None:
        covered = set()
        for s in self.sets.values():
            covered |= s
        missing = [x for x in self.elements if x not in covered]
        if missing:
            raise Infeasible(f"elements with no covering set: {missing}")


@dataclass(frozen=True)
class UnitResidual:
    """Residual set-cover instance left after terminal-terminal edges pay off."""

    inst: Instance
    system: SetCoverInstance


def reduce_unit(inst: Instance) -> UnitResidual:
    """Strip terminals covered by terminal-terminal edges; the rest become
    set-cover elements with their non-terminal neighborhoods as sets."""
    if not inst.is_unit():
        raise NotUnitThresholds("not all thresholds equal 1")
    precovered = set()
    for e in inst.edges:
        if e.u in inst.terminals and e.v in inst.terminals:
            precovered.add(e.u)
            precovered.add(e.v)
    elements = tuple(u for u in inst.terminal_list if u not in precovered)
    element_set = set(elements)
    sets: dict[str, frozenset[str]] = {}
    for v in inst.nodes:
        if v in inst.terminals:
            continue
        neigh = {inst.edges[ei].other(v) for ei in inst.edges_at[v]} & element_set
        if neigh:
            sets[v] = frozenset(neigh)
    return UnitResidual(inst=inst, system=SetCoverInstance(elements=elements, sets=sets))


def _restrict(sc: SetCoverInstance, remaining: set[str], removed_sets: set[str]) -> SetCoverInstance:
    sets = {}
    for v, s in sc.sets.items():
        if v in removed_sets:
            continue
        live = s & remaining
        if live:
            sets[v] = frozenset(live)
    return SetCoverInstance(
        elements=tuple(x for x in sc.elements if x in remaining), sets=sets
    )


# ---------------------------------------------------------------------------
# k-set-cover subsolvers


def exact_2setcover(sc: SetCoverInstance) -> tuple[str, ...]:
    """Minimum cover when every set has at most 2 elements.

    The optimal size is |elements| - |M| for a maximum matching M of the
    element graph whose edges are the 2-element sets; matched pairs take their
    shared set, the rest take any incident set.
    """
    if sc.max_set_size() > 2:
        raise SizeBoundViolated("exact_2setcover needs sets of size <= 2")
    sc.check_feasible()
    rank = sc.element_rank()
    pair_owner: dict[tuple[str, str], str] = {}
    incident: dict[str, str] = {}
    graph = nx.Graph()
    graph.add_nodes_from(sc.elements)
    for v, s in sc.sets.items():
        members = sorted(s, key=rank.__getitem__)
        for x in members:
            incident.setdefault(x, v)
        if len(members) == 2:
            pair = (members[0], members[1])
            if pair not in pair_owner:
                pair_owner[pair] = v
                graph.add_edge(*pair)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    chosen: set[str] = set()
    matched: set[str] = set()
    for a, b in matching:
        x, y = sorted((a, b), key=rank.__getitem__)
        chosen.add(pair_owner[(x, y)])
        matched.update((x, y))
    for x in sc.elements:
        if x not in matched:
            chosen.add(incident[x])
    return tuple(sorted(chosen))


def exact_bb(sc: SetCoverInstance, k: int) -> tuple[str, ...]:
    """Optimal cover by incumbent-bounded element branching on bit masks.

    A mask ``free`` holds the uncovered elements, bit i for ``elements[i]``.
    The search branches on the lowest free element and tries the sets that
    contain it in ``sc.sets`` insertion order; a branch replaces the best
    count found so far only when it is strictly smaller.  So each mask's
    answer is its first minimum-size cover in that order, and the returned
    cover is the one that order defines.

    ``search(free, ub)`` returns the optimum of ``free`` when it is below
    ``ub``, and otherwise a proven lower bound that is at least ``ub``.  A
    branch runs with ``ub`` equal to the best count so far minus one, so it
    can only report a count that beats the incumbent.  Exact answers are
    memoized as ``mask -> (count, set index)``, and the cover is rebuilt by
    following the stored set indices; a mask whose search failed under ``ub``
    keeps ``ub`` as a proven floor.

    The lower bound at a mask is the largest of ceil(|free|/k), its floor,
    and a packing count: free elements taken lowest first so that no two
    share a set, each of which needs a set of its own.  The search returns
    at once when the bound reaches ``ub``, and stops trying sets once the
    incumbent equals the bound.  Every such skip drops only branches that
    cannot be strictly smaller than the incumbent, so the first minimum, and
    with it the cover, is the one a full search in the same order finds.
    """
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


def greedy_hk(sc: SetCoverInstance, k: int) -> tuple[str, ...]:
    """Largest-set greedy; classical H_k quality on k-bounded systems."""
    if sc.max_set_size() > k:
        raise SizeBoundViolated(f"set larger than k={k}")
    sc.check_feasible()
    uncovered = set(sc.elements)
    order = list(sc.sets)
    chosen: list[str] = []
    while uncovered:
        size, _, v = max(
            ((len(sc.sets[v] & uncovered), -i, v) for i, v in enumerate(order)),
            default=(0, 0, None),
        )
        if size == 0:
            # Unreachable after check_feasible; kept as a guard that -O keeps.
            raise IncompleteCover(sorted(uncovered, key=sc.element_rank().__getitem__))
        gain = sc.sets[v] & uncovered
        chosen.append(v)
        uncovered -= gain
        order.remove(v)
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class KSetCoverSolver:
    """Pluggable subsolver; ``certified`` means its quality is within the
    published k-set-cover table for every k <= 6, which is what the 1555/1347
    certificate of the multi-phase solver requires."""

    name: str
    fn: Callable[[SetCoverInstance, int], tuple[str, ...]]
    certified: bool


EXACT_SUBSOLVER = KSetCoverSolver(name="exact", fn=exact_bb, certified=True)
GREEDY_SUBSOLVER = KSetCoverSolver(name="greedy", fn=greedy_hk, certified=False)

SUBSOLVERS = {s.name: s for s in (EXACT_SUBSOLVER, GREEDY_SUBSOLVER)}


# ---------------------------------------------------------------------------
# Unit solvers


def solve_unit_a1(res: UnitResidual) -> SolveReport:
    """Remove maximum stars while one has >= 3 elements, then finish exactly
    on the residual 2-bounded system."""
    sc = res.system
    sc.check_feasible()
    uncovered = set(sc.elements)
    removed: set[str] = set()
    chosen: list[str] = []
    while True:
        best = None
        for v in sc.sets:
            if v in removed:
                continue
            size = len(sc.sets[v] & uncovered)
            if size >= 3 and (best is None or size > best[0]):
                best = (size, v)
        if best is None:
            break
        _, v = best
        chosen.append(v)
        uncovered -= sc.sets[v]
        removed.add(v)
    residual = _restrict(sc, uncovered, removed)
    tail = exact_2setcover(residual) if residual.elements else ()
    all_chosen = (*chosen, *tail)
    return solve_report(
        res.inst,
        "unit-a1",
        Assignment.of(dict.fromkeys((*res.inst.terminal_list, *all_chosen), 1)),
        claimed_bound=A1_RATIO,
        bound_label="1+67/360",
        extras={"greedy_stars": len(chosen), "exact_phase": len(tail)},
    )


def solve_unit_a2(
    res: UnitResidual, subsolver: KSetCoverSolver = EXACT_SUBSOLVER
) -> SolveReport:
    """Phase down star sizes, keeping the best of roots-so-far plus a
    subsolver finish at every k <= 6.

    At phase k a facility with k+1 still-uncovered neighbors claims all of
    them (the phase order guarantees no facility exceeds k+1), so residual
    instances stay feasible and roots are disjoint from later solutions.
    """
    sc = res.system
    if sc.elements:
        sc.check_feasible()
    uncovered = set(sc.elements)
    removed: set[str] = set()
    roots: list[str] = []
    candidates: list[tuple[int, int, int, int, tuple[str, ...]]] = []
    phases: list[dict] = []
    rank = sc.element_rank()
    delta = sc.max_set_size()
    for k in range(delta, -1, -1):
        stars: list[dict] = []
        for v in sc.sets:
            if v in removed:
                continue
            avail = sc.sets[v] & uncovered
            if len(avail) > k + 1:
                raise PhaseInvariantViolated(f"set {v!r} has {len(avail)} free elements at k={k}")
            if len(avail) == k + 1:
                roots.append(v)
                uncovered -= avail
                removed.add(v)
                stars.append(
                    {"root": v, "leaves": sorted(avail, key=rank.__getitem__)}
                )
        if stars:
            phases.append({"k": k, "stars": stars})
        if k > 6:
            continue
        if k == 0:
            if uncovered:
                raise PhaseInvariantViolated("1-star phase must cover everything")
            finish: tuple[str, ...] = ()
        else:
            residual = _restrict(sc, uncovered, removed)
            if residual.elements:
                finish = subsolver.fn(residual, k)
            else:
                finish = ()
        if set(roots) & set(finish):
            raise PhaseInvariantViolated(f"subsolver finish at k={k} reuses a root")
        candidates.append(
            (len(roots) + len(finish), k, len(roots), len(finish), tuple(roots) + finish)
        )
    if not sc.elements:
        candidates = [(0, 0, 0, 0, ())]
    # min() keeps the first (largest-k) candidate on size ties.
    size, k_winner, c_size, a_size, chosen = min(candidates, key=lambda cand: cand[0])
    return solve_report(
        res.inst,
        "unit-a2",
        Assignment.of(dict.fromkeys((*res.inst.terminal_list, *chosen), 1)),
        claimed_bound=RHO if subsolver.certified else None,
        bound_label="1555/1347" if subsolver.certified else f"uncertified ({subsolver.name})",
        trace={"phases": phases},
        extras={
            "k_winner": k_winner,
            "C_size": c_size,
            "A_size": a_size,
            "subsolver": subsolver.name,
        },
    )
