"""Shared brute-force oracles and helpers for the test suite.

These oracles deliberately re-derive results by exhaustive enumeration,
independent of the library's algorithms, so ratio and equality assertions
have teeth.  The Fraction-side edge model comes first: the activation and
coverage tests on exact values, the integer view of a value map, and the
assignment helpers.  It is independent of the library's one predicate on
the integer view, ``active_at_levels``, which the tests check against it.
The lemma checks at the end (the star decomposition of a minimal cover,
the greedy's ratio bound, the set-cover and unit-a1 constants) are read
only by the tests, so they live here, not in the library.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from aecover import unit
from aecover.bounds import omega_bar
from aecover.core import Assignment, DerivedCosts, Edge, Instance, as_fraction, covered_terminals
from aecover.errors import (
    AecError, DomainError, EmptyLevels, IncompleteCover, InvalidInstance, IsolatedTerminal,
    LimitExceeded, SizeBoundViolated,
)
from aecover.general import _best_star_at, _min_star
from aecover.unit import CoverSearch, _restrict

ZERO = Fraction(0)


def threshold_at(e, node):
    """The threshold of edge ``e`` at ``node``, one of its endpoints."""
    if node == e.u:
        return e.tu
    if node == e.v:
        return e.tv
    raise KeyError(node)


def other_end(e, node):
    """The endpoint of edge ``e`` that is not ``node``."""
    if node == e.u:
        return e.v
    if node == e.v:
        return e.u
    raise KeyError(node)


def active_edges(inst, values, ids=None):
    """Indices of the edges whose both endpoint thresholds the exact
    ``values`` meet (missing nodes count as zero): among ``ids`` in their
    order, or among all edges in index order.  The Fraction activation
    predicate, kept as the reference."""
    for i in range(len(inst.edges)) if ids is None else ids:
        e = inst.edges[i]
        if values.get(e.u, ZERO) >= e.tu and values.get(e.v, ZERO) >= e.tv:
            yield i


def covers(inst, a):
    """Whether the assignment ``a`` activates an edge at every terminal,
    plus the uncovered terminals in terminal order: the Fraction coverage
    check, kept as the reference."""
    uncovered = tuple(
        u for u in inst.terminal_list
        if next(active_edges(inst, a.values, inst.edges_at[u]), None) is None
    )
    return (not uncovered, uncovered)


def to_levels(inst, values):
    """``values`` on the integer view that ``active_at_levels`` reads: each
    value times ``inst.scale``, rounded down; exact for a value built from
    thresholds."""
    L = inst.scale
    return {n: x.numerator * L // x.denominator for n, x in values.items()}


def assignment_of(mapping):
    """The ``Assignment`` of ``mapping``'s values, each parsed exactly by
    ``as_fraction``; zeros are not stored."""
    return Assignment({node: f for node, x in mapping.items() if (f := as_fraction(x))})


def assignment_total(a):
    """The sum of the assignment's values, one Fraction addition each."""
    return sum(a.values.values(), ZERO)


def min_density_star(inst, levels, covered):
    """Star of globally minimum density as ``(pay, gain, root index, w,
    leaves)`` on the integer view, or None when no star gains anything.

    The full scan over ``general._best_star_at`` at every root, kept as the
    reference that ``density_greedy``'s per-root star cache is checked
    against.  Each root's increment is drawn from its incident edge
    thresholds (zero included); the leaf set grows in increasing
    increment-per-cost order while the density strictly decreases.  Ties
    are broken by (density, root index, increment)."""
    c = inst.costs.c
    stars = (_best_star_at(inst, c, levels, covered, v) for v in inst.nodes)
    return _min_star(s for s in stars if s)


def exact_costs(inst):
    """The instance's derived costs with q, c, Q and C as exact ``Fraction``s,
    computed by the former Fraction-arithmetic ``derive_costs``, kept as the
    reference: ``derive_costs`` must give these values times ``inst.scale``."""
    q, c, cheapest = {}, {}, {}
    for u in inst.terminal_list:
        ids = inst.edges_at[u]
        if not ids:
            raise IsolatedTerminal(u)
        q[u] = min(threshold_at(inst.edges[i], u) for i in ids)
        best = min(ids, key=lambda i: (inst.edges[i].tu + inst.edges[i].tv, i))
        c[u] = inst.edges[best].tu + inst.edges[best].tv - q[u]
        cheapest[u] = best
    theta = ZERO
    for u in inst.terminal_list:
        if q[u] > 0:
            ratio = c[u] / q[u]
            if theta != math.inf and ratio > theta:
                theta = ratio
        elif c[u] > 0:
            theta = math.inf
    delta = 0
    for v in inst.nodes:
        neigh = {other_end(inst.edges[i], v) for i in inst.edges_at[v]}
        delta = max(delta, len(neigh & inst.terminals))
    return DerivedCosts(
        q=q, c=c, Q=sum(q.values(), ZERO), C=sum(c.values(), ZERO),
        theta=theta, delta=delta, cheapest=cheapest,
    )


def enum_min_density_star(inst, costs, totals, covered):
    """Minimum star density by exhaustive enumeration.

    Considers every root, every nonempty subset of adjacent uncovered
    positive-cost terminals, and every per-leaf edge choice; the root pays
    the largest shortfall of the chosen edges on its side, each leaf pays its
    own shortfall, and an uncovered terminal root adds its c to the gain.
    Returns the minimum density or None when no star has positive gain.
    """
    best = None
    for v in inst.nodes:
        leaf_options: list[tuple[str, list]] = []
        seen = set()
        for ei in inst.edges_at[v]:
            u = other_end(inst.edges[ei], v)
            if u in inst.terminals and u not in covered and costs.c[u] > 0 and u not in seen:
                seen.add(u)
                edges_uv = [
                    inst.edges[ej]
                    for ej in inst.edges_at[v]
                    if other_end(inst.edges[ej], v) == u
                ]
                leaf_options.append((u, edges_uv))
        if not leaf_options:
            continue
        root_gain = (
            costs.c[v] if v in inst.terminals and v not in covered else ZERO
        )
        choice_space = [[None] + edges for _, edges in leaf_options]
        for combo in itertools.product(*choice_space):
            if all(c is None for c in combo):
                continue
            w = ZERO
            pay_leaves = ZERO
            gain = root_gain
            for (u, _), e in zip(leaf_options, combo):
                if e is None:
                    continue
                w = max(w, threshold_at(e, v) - totals[v])
                pay_leaves += max(ZERO, threshold_at(e, u) - totals[u])
                gain += costs.c[u]
            w = max(w, ZERO)
            density = (w + pay_leaves) / gain
            if best is None or density < best:
                best = density
    return best


def state_totals(inst, levels):
    """Every node's total at the general greedy's ``levels``, as exact values."""
    a = inst.assignment(levels)
    return {n: a.values.get(n, ZERO) for n in inst.nodes}


def reference_exact_solve(inst, *, max_terminals=10, max_nodes=64):
    """The former ``exact_solve``, kept as the reference: the same branch and
    bound on exact ``Fraction`` values, with its own cheapest-edge incumbent.
    Returns ``(value, assignment values, nodes_expanded)``; it has no node
    budget."""
    if len(inst.terminals) > max_terminals or len(inst.nodes) > max_nodes:
        raise LimitExceeded("reference limits")
    costs = exact_costs(inst)
    best_values = dict(costs.q)
    for u in inst.terminal_list:
        e = inst.edges[costs.cheapest[u]]
        best_values[e.u] = max(best_values.get(e.u, ZERO), e.tu)
        best_values[e.v] = max(best_values.get(e.v, ZERO), e.tv)
    best_values = {n: x for n, x in best_values.items() if x}
    best_value = sum(best_values.values(), ZERO)

    terms = sorted(inst.terminal_list, key=lambda u: (len(inst.edges_at[u]), inst.index[u]))
    values = {n: ZERO for n in inst.nodes}
    expanded = 0

    def residual_need(i):
        need = ZERO
        for u in terms[i:]:
            gap = costs.q[u] - values[u]
            if gap > 0:
                need += gap
        return need

    def search(i, total):
        nonlocal best_value, best_values, expanded
        expanded += 1
        if total + residual_need(i) >= best_value:
            return
        if i == len(terms):
            best_value = total
            best_values = {n: x for n, x in values.items() if x > 0}
            return
        u = terms[i]
        if any(values[inst.edges[ei].u] >= inst.edges[ei].tu
               and values[inst.edges[ei].v] >= inst.edges[ei].tv
               for ei in inst.edges_at[u]):
            search(i + 1, total)
            return
        options = []
        for ei in inst.edges_at[u]:
            e = inst.edges[ei]
            inc = max(ZERO, e.tu - values[e.u]) + max(ZERO, e.tv - values[e.v])
            options.append((inc, ei))
        options.sort()
        for _, ei in options:
            e = inst.edges[ei]
            old_u, old_v = values[e.u], values[e.v]
            values[e.u], values[e.v] = max(old_u, e.tu), max(old_v, e.tv)
            search(i + 1, total + (values[e.u] - old_u) + (values[e.v] - old_v))
            values[e.u], values[e.v] = old_u, old_v

    search(0, ZERO)
    return best_value, best_values, expanded


def brute_force_node_levels(inst) -> Fraction:
    """Optimal value by enumerating per-node values over zero plus the node's
    incident thresholds; complete because optima are threshold maxima."""
    candidates = []
    for n in inst.nodes:
        levels = {ZERO}
        for ei in inst.edges_at[n]:
            levels.add(threshold_at(inst.edges[ei], n))
        candidates.append(sorted(levels))
    best = None
    for values in itertools.product(*candidates):
        valmap = dict(zip(inst.nodes, values))
        if covered_terminals(inst, levels=to_levels(inst, valmap)) == inst.terminals:
            total = sum(values, ZERO)
            if best is None or total < best:
                best = total
    assert best is not None, "instance is infeasible"
    return best


def enum_setcover_optimum(elements, sets) -> int:
    """Minimum cover size by subset enumeration."""
    universe = set(elements)
    ids = list(sets)
    best = None
    for r in range(len(ids) + 1):
        if best is not None:
            break
        for combo in itertools.combinations(ids, r):
            covered = set()
            for v in combo:
                covered |= sets[v]
            if covered >= universe:
                best = r
                break
    assert best is not None, "set system is infeasible"
    return best


def random_set_system(rng: random.Random, n_elements: int, n_sets: int, max_size: int):
    """Random feasible set system with sizes capped at max_size; the element
    count is clamped so the sets can actually cover them.

    Feasible by construction: each element first joins a random set with
    spare capacity, then every set is filled with random other elements up
    to a random size between its current size (at least 1) and the cap.
    """
    from aecover.unit import SetCoverInstance

    n_elements = min(n_elements, n_sets * max_size)
    cap = min(max_size, n_elements)
    elements = tuple(f"x{i:02d}" for i in range(n_elements))
    members: list[set[str]] = [set() for _ in range(n_sets)]
    for x in elements:
        members[rng.choice([j for j, m in enumerate(members) if len(m) < cap])].add(x)
    sets = {}
    for j, m in enumerate(members):
        size = rng.randint(max(1, len(m)), cap)
        rest = [x for x in elements if x not in m]
        sets[f"s{j:02d}"] = frozenset(m | set(rng.sample(rest, size - len(m))))
    return SetCoverInstance(elements=elements, sets=sets)


def reference_greedy_hk(sc, k: int) -> tuple[str, ...]:
    """The former greedy_hk loop, kept as the reference: at each step the
    set with the most uncovered elements, first in set order on ties."""
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
            raise IncompleteCover(sorted(uncovered, key=sc.element_rank().__getitem__))
        chosen.append(v)
        uncovered -= sc.sets[v]
        order.remove(v)
    return tuple(sorted(chosen))


def search_of(fn):
    """A stand-in for ``unit.CoverSearch``: built on a system ``sc``, its
    ``cover(uncovered, k, below)`` runs ``fn(sc, k, below)`` on ``sc`` cut
    down to ``uncovered``, as a fresh call every phase.  ``fn`` runs with
    the real class back in place, so it may call ``exact_bb``."""

    class Search:
        def __init__(self, sc):
            self.sc = sc

        def cover(self, uncovered, k, below):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(unit, "CoverSearch", CoverSearch)
                return fn(_restrict(self.sc, set(uncovered)), k, below)

    return Search


def quadratic_prune(sorted_edges):
    """The former pruning loop, kept as the reference: drop e when any kept
    parallel edge has both thresholds <= e's."""
    kept = []
    for e in sorted_edges:
        dominated = any(
            k.u == e.u and k.v == e.v and k.tu <= e.tu and k.tv <= e.tv for k in kept
        )
        if not dominated:
            kept.append(e)
    return kept


def reference_from_data(nodes, terminals, edges):
    """The former Instance.from_data, kept as the reference: the id checks,
    per-edge parsing and checks, a key sort on (u index, v index, tu, tv)
    and the quadratic prune.  Returns the node tuple, terminal set and edge
    tuples."""
    node_list, term_list = list(nodes), list(terminals)
    for key, ids in (("nodes", node_list), ("terminals", term_list)):
        if not all(isinstance(x, str) for x in ids):
            raise InvalidInstance(f"{key} must be strings")
    if len(set(node_list)) != len(node_list):
        raise InvalidInstance("duplicate node ids")
    idx = {n: i for i, n in enumerate(node_list)}
    term_set = frozenset(term_list)
    for t in term_list:
        if t not in idx:
            raise InvalidInstance(f"terminal {t!r} is not a node")
    canon = []
    for u, v, tu, tv in edges:
        if u not in idx or v not in idx:
            raise InvalidInstance(f"edge endpoint not a node: {u!r}-{v!r}")
        if u == v:
            raise InvalidInstance(f"self loop at {u!r}")
        ftu, ftv = as_fraction(tu), as_fraction(tv)
        if ftu.numerator < 0 or ftv.numerator < 0:
            raise InvalidInstance(f"negative threshold on edge {u!r}-{v!r}")
        if idx[u] > idx[v]:
            u, v, ftu, ftv = v, u, ftv, ftu
        canon.append(Edge(u, v, ftu, ftv))
    canon.sort(key=lambda e: (idx[e.u], idx[e.v], e.tu, e.tv))
    kept = [tuple(e) for e in quadratic_prune(canon)]
    return tuple(node_list), term_set, kept


def quadratic_minimal_pairs(activates, lu, lv):
    """The former levels filter, kept as the reference: keep each pair of
    levels that ``activates`` and that no other activating pair is below or
    equal to on both levels.  Copies of a repeated level all stay."""
    active = [(a, b) for a in lu for b in lv if activates(a, b)]
    return [
        (a, b)
        for a, b in active
        if not any((a2, b2) != (a, b) and a2 <= a and b2 <= b for a2, b2 in active)
    ]


def reference_installation(nodes, terminals, demands, coefficients, levels):
    """The former spec path of ``from_installation``, kept as the reference:
    the same checks in the same order, then every pair's grid of menu
    heights tested cell by cell against ``cu*a + cv*b >= h`` and filtered by
    :func:`quadratic_minimal_pairs`."""
    rules = []
    for pair, h in demands.items():
        u, v = pair
        cu, cv = coefficients[pair]
        cu, cv, h = as_fraction(cu), as_fraction(cv), as_fraction(h)
        if cu <= 0 or cv <= 0:
            raise DomainError(f"coefficients must be positive on pair {pair}")
        if h < 0:
            raise DomainError(f"negative demand on pair {pair}")
        rules.append((u, v, h, cu, cv))
    menus = {n: tuple(as_fraction(x) for x in lv) for n, lv in levels.items()}
    edges = []
    for u, v, h, cu, cv in rules:
        for node in (u, v):
            if node not in nodes:
                raise InvalidInstance(f"pair endpoint {node!r} is not a node")
            if not menus.get(node):
                raise EmptyLevels(node)
        pairs = quadratic_minimal_pairs(
            lambda a, b: cu * a + cv * b >= h, sorted(menus[u]), sorted(menus[v])
        )
        edges += [(u, v, a, b) for a, b in pairs]
    return Instance.from_data(nodes, terminals, edges)


def random_multigraph(rng):
    """Few nodes, many parallel edges, zero and fractional thresholds."""
    pool = [0, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2), Fraction(2, 3)]
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    terminals = rng.sample(nodes, rng.randint(0, len(nodes)))
    edges = []
    for _ in range(rng.randint(1, 30)):
        u, v = rng.sample(nodes, 2)
        edges.append((u, v, rng.choice(pool), rng.choice(pool)))
    return Instance.from_data(nodes, terminals, edges)


@pytest.fixture
def tiny_instance() -> Instance:
    return Instance.from_data(["u", "v"], ["u"], [("u", "v", 2, 3)])


class StarDecompositionViolated(AecError):
    """A minimal activated cover did not split into node-disjoint stars with
    terminal leaves."""


@dataclass(frozen=True)
class Star:
    root: str
    leaves: tuple[str, ...]


def _minimal_cover(inst: Instance, active: Sequence[int]) -> list[int]:
    """An inclusion-minimal subset of the edges ``active`` that still touches
    every terminal they touch: each kept edge covers a private terminal."""
    count = {t: 0 for t in inst.terminals}
    for ei in active:
        e = inst.edges[ei]
        for node in (e.u, e.v):
            if node in count:
                count[node] += 1
    kept = []
    for ei in active:
        e = inst.edges[ei]
        ends = [n for n in (e.u, e.v) if n in count]
        if ends and all(count[n] > 1 for n in ends):
            for n in ends:
                count[n] -= 1
        elif ends:
            kept.append(ei)
        # Edges touching no terminal are always dropped.
    return kept


def exact_star_decomposition(inst: Instance, assignment: Assignment) -> list[Star]:
    """Node-disjoint rooted stars with terminal leaves covering all terminals.

    Extracts an inclusion-minimal activated cover, whose components are stars
    (each edge of a minimal cover covers a private terminal).  Its shape
    checks raise, so they still run under ``python -O``.
    """
    adj: dict[str, list[int]] = {}
    for ei in _minimal_cover(inst, list(active_edges(inst, assignment.values))):
        e = inst.edges[ei]
        adj.setdefault(e.u, []).append(ei)
        adj.setdefault(e.v, []).append(ei)

    seen: set[str] = set()
    stars: list[Star] = []
    for start in sorted(adj, key=inst.index.__getitem__):
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for ei in adj[node]:
                other = other_end(inst.edges[ei], node)
                if other not in component:
                    component.add(other)
                    stack.append(other)
        seen |= component
        centers = [n for n in component if len(adj[n]) >= 2]
        if len(centers) > 1:
            raise StarDecompositionViolated(f"minimal cover component has {len(centers)} centers")
        if centers:
            root = centers[0]
        else:
            # No node has two edges, so the component is one edge.
            e = inst.edges[adj[start][0]]
            non_terminals = [n for n in (e.u, e.v) if n not in inst.terminals]
            root = non_terminals[0] if len(non_terminals) == 1 else min(
                (e.u, e.v), key=inst.index.__getitem__
            )
        leaves = tuple(sorted(component - {root}, key=inst.index.__getitem__))
        if not all(leaf in inst.terminals for leaf in leaves):
            raise StarDecompositionViolated(f"star at {root!r} has a non-terminal leaf: {leaves}")
        stars.append(Star(root=root, leaves=leaves))
    stars.sort(key=lambda s: inst.index[s.root])
    return stars


def greedy_ratio_bound(nu0: Fraction, nu_star: Fraction, tau_star: Fraction) -> float:
    """Worst-case ratio of the density greedy against an optimum splitting
    into payment ``tau_star`` and residual potential ``nu_star``:
    1 + tau*/(tau* + nu*) * ln((nu0 - nu*)/tau*), clamped at 1.
    """
    if tau_star <= 0:
        raise DomainError(f"tau_star must be positive, got {tau_star}")
    if nu0 <= nu_star:
        raise DomainError("initial potential must exceed the target")
    spread = (nu0 - nu_star) / tau_star
    if spread <= 1:
        return 1.0
    opt = tau_star + nu_star
    return 1.0 + float(tau_star / opt) * math.log(float(spread))


def setcover_greedy_bound(n: int, tau: int, m_margin) -> float:
    """Greedy set-cover ratio 1 + omega_bar(n*M/tau)*(1 + 1/M)."""
    if n <= 0 or tau <= 0:
        raise DomainError("n and tau must be positive")
    m = Fraction(m_margin)
    slope = Fraction(n) * m / tau
    return 1.0 + float(omega_bar(slope)) * float(1 + 1 / m)


def unit_a1_constant(scan_limit: int = 100) -> tuple[Fraction, int]:
    """max over 2 <= k <= limit of (H_k - 7/6)/(k + 1), with its argmax."""
    best = None
    arg = 0
    h = Fraction(1)
    for k in range(2, scan_limit + 1):
        h += Fraction(1, k)
        val = (h - Fraction(7, 6)) / (k + 1)
        if best is None or val > best:
            best, arg = val, k
    return best, arg
