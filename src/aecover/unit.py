"""Unit-threshold solvers: residual set-cover reduction, the star-then-exact
solver, and the multi-phase solver with exact k-set-cover finishes.

With all thresholds 1, an optimal assignment is 0/1, pays 1 on every terminal,
and the non-terminal support must cover the terminals that no terminal-
terminal edge reaches.  Solving therefore reduces to unweighted set cover on
the residual bipartite instance, where the value offset |R| makes much better
ratios possible than for plain set cover.  Both solvers take the instance and
reduce it themselves.  Their star phases peel the largest sets first: run to
the end, they are the largest-set greedy, :func:`greedy_hk`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterator, Mapping, Optional

from .bounds import A1_RATIO, RHO
from .core import Instance, degree_bound
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


def reduce_unit(inst: Instance) -> SetCoverInstance:
    """The residual set system of a unit instance: terminals covered by
    terminal-terminal edges are stripped, the rest become the elements, in
    terminal order, and each non-terminal with a live neighbour is a set of
    them, in node order."""
    if not inst.is_unit():
        raise NotUnitThresholds("not all thresholds equal 1")
    terminals = inst.terminals
    precovered = set()
    neighbours: dict[str, set[str]] = {v: set() for v in inst.nodes if v not in terminals}
    for u, v, _, _ in inst.scaled_edges:
        if u in terminals:
            if v in terminals:
                precovered.update((u, v))
            else:
                neighbours[v].add(u)
        elif v in terminals:
            neighbours[u].add(v)
    elements = tuple(u for u in inst.terminal_list if u not in precovered)
    sets = {v: frozenset(live) for v, s in neighbours.items() if (live := s - precovered)}
    return SetCoverInstance(elements=elements, sets=sets)


def _restrict(sc: SetCoverInstance, remaining: set[str]) -> SetCoverInstance:
    """``sc`` cut down to ``remaining``: its live sets, in order."""
    sets = {v: live for v, s in sc.sets.items() if (live := s & remaining)}
    return SetCoverInstance(tuple(x for x in sc.elements if x in remaining), sets)


# ---------------------------------------------------------------------------
# k-set-cover solvers


def maximum_matching(adj: list[list[int]]) -> list[int]:
    """A maximum-cardinality matching of the graph ``adj`` (vertex ->
    neighbours), as ``mate[v]``, -1 where v is free; Edmonds' blossom
    algorithm ("Paths, trees, and flowers", 1965), O(V^3).

    Vertices are taken from last to first, and neighbours in ``adj`` order.
    First each free vertex is matched to its first free neighbour; then a
    breadth-first alternating search from each vertex still free, which
    contracts every odd cycle it closes into its base, augments along the
    first path it finds.  A search that finds none leaves a Hungarian tree:
    no augmenting path, now or after later augmentations, needs its
    vertices, so they are dropped, and one pass is maximum.  The order
    decides which maximum matching, and so which minimum cover, is reported.
    """
    n = len(adj)
    mate = [-1] * n
    for v in reversed(range(n)):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    base = list(range(n))
    parent = [-1] * n  # odd vertex -> the even vertex that reached it
    even = [False] * n
    dead: set[int] = set()

    def blossom_base(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, inside: set[int]) -> None:
        while base[v] != b:
            inside.update((base[v], base[mate[v]]))
            parent[v] = child
            child = mate[v]
            v = parent[child]

    def augment(root: int, reached: list[int]) -> None:
        even[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w or w in dead:
                    continue
                if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                    # w is even too: the edge closes an odd cycle.
                    b = blossom_base(v, w)
                    inside: set[int] = set()
                    mark(v, b, w, inside)
                    mark(w, b, v, inside)
                    for u in reached:
                        if base[u] in inside:
                            base[u] = b
                            if not even[u]:
                                even[u] = True
                                queue.append(u)
                elif parent[w] < 0:
                    parent[w] = v
                    reached.append(w)
                    if mate[w] < 0:
                        while w >= 0:
                            v = parent[w]
                            mate[v], mate[w], w = w, v, mate[v]
                        return
                    even[mate[w]] = True
                    reached.append(mate[w])
                    queue.append(mate[w])
        dead.update(reached)

    for root in reversed(range(n)):
        if mate[root] < 0:
            reached = [root]
            augment(root, reached)
            for u in reached:
                base[u], parent[u], even[u] = u, -1, False
    return mate


def exact_2setcover(sc: SetCoverInstance) -> tuple[str, ...]:
    """Minimum cover when every set has at most 2 elements.

    By Gallai's identity the optimal size is |elements| - |M| for a maximum
    matching M of the element graph whose edges are the 2-element sets;
    matched pairs take their first set in set order, the rest the first set
    that contains them.
    """
    if sc.max_set_size() > 2:
        raise SizeBoundViolated("exact_2setcover needs sets of size <= 2")
    sc.check_feasible()
    rank = sc.element_rank()
    pair_owner: dict[tuple[int, int], str] = {}
    incident: dict[str, str] = {}
    adj: list[list[int]] = [[] for _ in sc.elements]
    for v, s in sc.sets.items():
        for x in s:
            incident.setdefault(x, v)
        if len(s) == 2:
            a, b = sorted(map(rank.__getitem__, s))
            if (a, b) not in pair_owner:
                pair_owner[a, b] = v
                adj[a].append(b)
                adj[b].append(a)
    mate = maximum_matching(adj)
    chosen = {pair_owner[a, b] for a, b in enumerate(mate) if a < b}
    chosen.update(incident[x] for x, b in zip(sc.elements, mate) if b < 0)
    return tuple(sorted(chosen))


class CoverSearch:
    """The exact k-set-cover search on one set system ``sc``, built once and
    asked by :meth:`cover` for the first minimum covers of many element sets.

    *Value search.*  Bits are numbered by (number of sets containing the
    element, rank in ``sc.elements``).  ``search(free, ub)`` returns the
    optimum count of the mask ``free`` if it is below ``ub``, else a proven
    lower bound of at least ``ub``.  It branches on the sets holding the
    lowest free bit, an element in the fewest sets (every cover takes one),
    each under the best count so far minus one, memoizes exact counts per
    mask, and keeps ``ub`` as a proven floor of a mask it failed under.  Its
    bound is the largest of ceil(|free|/k), the floor and, only if those stay
    below ``ub``, a packing count (free elements, lowest bit first, no two in
    a set, each need a set of their own); it returns once the bound reaches
    ``ub`` and stops branching once the best count equals it.

    *Canonical walk.*  At each mask, with ``need`` its optimum, take the free
    element of lowest rank and the first set containing it, in ``sc.sets``
    order, whose remainder has optimum ``need - 1`` (``search(rest, need)``
    tells exactly): the first minimum cover in that branching order.  Only
    exact optima are read, so no search order or earlier call changes it.

    *Why one search serves many calls.*  ``cover(uncovered, k, below)``
    equals :func:`exact_bb` on ``sc`` cut down to ``uncovered``:
    1. A set that holds an uncovered element is still live after the cut,
       so every uncovered element has the same degree there, and the bit
       order and the branching are unchanged.
    2. The optimum or a floor of a mask depends only on the sets cut down to
       that mask, so it holds in every later call.  A floor is written only
       when a search under ``ub`` failed although its bound, the stored
       floor included, was below ``ub``: a floor only ever rises.
    3. ceil(|free|/k) stays a valid bound while no live set has more than k
       elements: in unit-a2 by the phase invariant, whose violation already
       raises :class:`PhaseInvariantViolated`, and in exact_bb by its check.
    """

    def __init__(self, sc: SetCoverInstance):
        degree = Counter(x for s in sc.sets.values() for x in s)
        # sorted() is stable, so elements of equal degree keep their rank order.
        self.bit = bit = {x: b for b, x in enumerate(sorted(sc.elements, key=degree.__getitem__))}
        self.rank_bits = [bit[x] for x in sc.elements]
        self.names = list(sc.sets)
        self.by_element = by_element = [[] for _ in sc.elements]  # bit -> [(set, mask)]
        self.reach = reach = [0] * len(sc.elements)  # reach[b]: all that share a set with b
        for j, s in enumerate(sc.sets.values()):
            mask = 0
            for x in s:
                mask |= 1 << bit[x]
            for x in s:
                by_element[bit[x]].append((j, mask))
                reach[bit[x]] |= mask
        self.exact: dict[int, int] = {}  # mask -> optimum
        self.floor: dict[int, int] = {}  # mask -> proven lower bound

    def cover(self, uncovered: Collection[str], k: int,
              below: Optional[int] = None) -> Optional[tuple[str, ...]]:
        """First minimum cover of ``uncovered``, or ``None`` once ``below`` sets prove needed."""
        by_element, reach, exact, floor = self.by_element, self.reach, self.exact, self.floor

        def search(free: int, ub: int) -> int:
            if not free:
                return 0
            hit = exact.get(free)
            if hit is not None:
                return hit
            lb = max(-(-free.bit_count() // k), floor.get(free, 0))
            if lb >= ub:
                return lb
            packing, rest = 0, free
            while rest:
                packing += 1
                rest &= ~reach[(rest & -rest).bit_length() - 1]
            lb = max(lb, packing)
            if lb >= ub:
                return lb
            best = ub
            for _, mask in by_element[(free & -free).bit_length() - 1]:
                count = search(free & ~mask, best - 1) + 1
                if count < best:
                    best = count
                    if best == lb:
                        break
            if best == ub:
                floor[free] = ub
            else:
                exact[free] = best
            return best

        free = sum(1 << self.bit[x] for x in uncovered)
        ub = len(uncovered) + 1 if below is None else below
        need = search(free, ub)
        if need >= ub:
            return None
        picks = []
        in_rank_order = iter(self.rank_bits)
        while free:
            b = next(b for b in in_rank_order if free >> b & 1)
            for j, mask in by_element[b]:
                rest = free & ~mask
                if search(rest, need) == need - 1:
                    break
            picks.append(self.names[j])
            free, need = rest, need - 1
        return tuple(sorted(picks))


def exact_bb(sc: SetCoverInstance, k: int,
             below: Optional[int] = None) -> Optional[tuple[str, ...]]:
    """Optimal cover: the size and feasibility checks, then one
    :meth:`CoverSearch.cover` of every element on a new search, with
    ``below`` as there (``None`` once no cover has fewer than ``below`` sets)."""
    if sc.max_set_size() > k:
        raise SizeBoundViolated(f"set larger than k={k}")
    sc.check_feasible()
    return CoverSearch(sc).cover(sc.elements, k, below)


def greedy_hk(sc: SetCoverInstance, k: int) -> tuple[str, ...]:
    """Largest-set greedy (Johnson, JCSS 1974), H_k quality on k-bounded
    systems: the size check, then every star phase; the roots, sorted.

    Each pick is a set with the most uncovered elements, the first in set
    order (:func:`_star_phases`).  A system left uncovered, which the
    phases' feasibility check rules out, raises :class:`IncompleteCover`,
    also under ``python -O``."""
    if sc.max_set_size() > k:
        raise SizeBoundViolated(f"set larger than k={k}")
    *_, (_, roots, _, uncovered) = _star_phases(sc)
    if uncovered:
        raise IncompleteCover(sorted(uncovered, key=sc.element_rank().__getitem__))
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# Unit solvers


def _star_phases(sc: SetCoverInstance) -> Iterator[tuple[int, list[str], list[dict], set[str]]]:
    """Peel stars for k = delta..0: at phase k every set with k+1 free
    elements, taken in set order, becomes a root and claims them.

    Yields ``(k, roots, stars, uncovered)`` after each phase: every root so
    far, the phase's stars (root and leaves in element order) and the free
    elements.  ``roots`` and ``uncovered`` are live state, to be read before
    the next phase.  Phase k+1 took every set with k+2 free elements and free
    counts only fall, so no set has more than k+1 at phase k, and taking the
    (k+1)-sets in set order takes the largest star, first in set order, each
    time.  A root has no free element left, so it is never taken twice.
    """
    sc.check_feasible()
    rank = sc.element_rank()
    uncovered = set(sc.elements)
    roots: list[str] = []
    for k in range(sc.max_set_size(), -1, -1):
        stars: list[dict] = []
        for v, s in sc.sets.items():
            avail = s & uncovered
            if len(avail) > k + 1:
                raise PhaseInvariantViolated(f"set {v!r} has {len(avail)} free elements at k={k}")
            if len(avail) == k + 1:
                roots.append(v)
                uncovered -= avail
                stars.append({"root": v, "leaves": sorted(avail, key=rank.__getitem__)})
        yield k, roots, stars, uncovered


def _unit_report(inst: Instance, algorithm: str, chosen: tuple[str, ...], **kw) -> SolveReport:
    """The report of the 0/1 assignment that pays 1 on every terminal and
    on every ``chosen`` set.  Each terminal's q and c are 1, so the slope
    is 1, or 0 with no terminal: the derived costs are never read."""
    levels = dict.fromkeys((*inst.terminal_list, *chosen), inst.scale)
    theta = Fraction(1 if inst.terminals else 0)
    return solve_report(inst, algorithm, levels, theta=theta, delta=degree_bound(inst), **kw)


def solve_unit_a1(inst: Instance) -> SolveReport:
    """Peel stars off :func:`reduce_unit` of ``inst`` through phase k=2, the
    last that takes stars of 3 or more elements, then finish exactly on the
    residual 2-bounded system."""
    sc = reduce_unit(inst)
    for k, roots, _, uncovered in _star_phases(sc):
        if k <= 2:
            break
    tail = exact_2setcover(_restrict(sc, uncovered))
    return _unit_report(
        inst, "unit-a1", (*roots, *tail), claimed_bound=A1_RATIO, bound_label="1+67/360",
        extras={"greedy_stars": len(roots), "exact_phase": len(tail)},
    )


def solve_unit_a2(inst: Instance) -> SolveReport:
    """Phase down star sizes on :func:`reduce_unit` of ``inst``, keeping the
    best of roots-so-far plus an exact finish at every k <= 6, asked of one
    :class:`CoverSearch` for each phase.

    At phase k a facility with k+1 still-uncovered neighbors claims all of
    them (the phase order guarantees no facility exceeds k+1), so residual
    instances stay feasible and roots are disjoint from later solutions.

    Every phase after the first asks the search only for a finish of
    fewer than ``below = best - len(roots)`` sets, ``best`` the smallest
    candidate so far, and is skipped when ``below <= 0``.  A candidate
    replaces the best only when it is strictly smaller, so the first
    (largest-k) candidate of the smallest size wins.  A finish of ``below``
    sets or more makes a candidate of ``best`` or more, which could not
    replace it; leaving such a phase out, or its finish unsearched, changes
    neither the winner nor the phase trace.
    """
    sc = reduce_unit(inst)
    search = CoverSearch(sc)
    best: Optional[tuple[int, int, int, int, tuple[str, ...]]] = None
    phases: list[dict] = []
    for k, roots, stars, uncovered in _star_phases(sc):
        if stars:
            phases.append({"k": k, "stars": stars})
        if k > 6:
            continue
        if k == 0 and uncovered:
            raise PhaseInvariantViolated("1-star phase must cover everything")
        below = None if best is None else best[0] - len(roots)
        if below is not None and below <= 0:
            continue
        finish = search.cover(uncovered, k, below) if uncovered else ()
        if finish is None:
            continue
        if set(roots) & set(finish):
            raise PhaseInvariantViolated(f"finish at k={k} reuses a root")
        size = len(roots) + len(finish)
        if best is None or size < best[0]:
            best = (size, k, len(roots), len(finish), (*roots, *finish))
    _, k_winner, c_size, a_size, chosen = best
    return _unit_report(
        inst, "unit-a2", chosen, claimed_bound=RHO, bound_label="1555/1347",
        trace={"phases": phases},
        extras={"k_winner": k_winner, "C_size": c_size, "A_size": a_size, "subsolver": "exact"},
    )
