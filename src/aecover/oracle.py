"""Exact optimum for small instances, by branch and bound over per-terminal
covering-edge choices on the integer view.

Any minimal feasible assignment is the pointwise threshold maximum of one
covering edge chosen per terminal, so searching edge choices is complete.
The search is the ground truth behind every empirical ratio certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Assignment, Instance, active_at_levels, active_edges, complete
from .errors import BudgetExceeded, LimitExceeded, StarDecompositionViolated

DEFAULT_MAX_TERMINALS = 10
DEFAULT_MAX_NODES = 64


@dataclass
class ExactResult:
    value: Fraction
    assignment: Assignment
    nodes_expanded: int
    optimal: bool = True


def exact_solve(
    inst: Instance,
    *,
    max_terminals: int = DEFAULT_MAX_TERMINALS,
    max_nodes: int = DEFAULT_MAX_NODES,
    time_budget: Optional[float] = None,
) -> ExactResult:
    """Globally optimal assignment covering all terminals.

    Branches on terminals in order of fewest incident edges; a branch raises
    both endpoints of a chosen edge to its thresholds, cheapest increment
    first.  Prunes on the partial value plus the residual q lower bound (the
    q gaps of the remaining terminals, rescanned at every node) against the
    incumbent, which starts at the per-terminal cheapest-edge cover.  The
    search runs on the integer view, values times ``inst.scale`` as ints;
    scaling keeps every comparison and the order of the options, and only
    the result is converted back.  Raises LimitExceeded for instances beyond
    the configured limits or too deep for the interpreter's recursion limit,
    and BudgetExceeded (carrying the non-optimal incumbent) when the time
    budget runs out.
    """
    if len(inst.terminals) > max_terminals:
        raise LimitExceeded(
            f"{len(inst.terminals)} terminals exceed the limit {max_terminals}"
        )
    if len(inst.nodes) > max_nodes:
        raise LimitExceeded(f"{len(inst.nodes)} nodes exceed the limit {max_nodes}")

    q = inst.costs.q
    best_levels = complete(inst, (), levels=q)
    best = sum(best_levels.values())

    terms = sorted(inst.terminal_list, key=lambda u: (len(inst.edges_at[u]), inst.index[u]))
    scaled = inst.scaled_edges
    levels = dict.fromkeys(inst.nodes, 0)
    expanded = 0
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def result(optimal: bool) -> ExactResult:
        return ExactResult(
            Fraction(best, inst.scale), inst.assignment(best_levels), expanded, optimal
        )

    def search(i: int, total: int) -> None:
        nonlocal best, best_levels, expanded
        expanded += 1
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(result(optimal=False))
        # Every remaining terminal still needs at least q at itself.
        need = 0
        for u in terms[i:]:
            gap = q[u] - levels[u]
            if gap > 0:
                need += gap
        if total + need >= best:
            return
        if i == len(terms):
            best = total
            best_levels = dict(levels)
            return
        u = terms[i]
        if next(active_at_levels(inst, levels, inst.edges_at[u]), None) is not None:
            search(i + 1, total)
            return
        options = []
        for ei in inst.edges_at[u]:
            eu, ev, tu, tv = scaled[ei]
            options.append((max(0, tu - levels[eu]) + max(0, tv - levels[ev]), ei))
        options.sort()
        for inc, ei in options:
            eu, ev, tu, tv = scaled[ei]
            old_u, old_v = levels[eu], levels[ev]
            levels[eu], levels[ev] = max(old_u, tu), max(old_v, tv)
            search(i + 1, total + inc)
            levels[eu], levels[ev] = old_u, old_v

    try:
        search(0, 0)
    except RecursionError:
        raise LimitExceeded(
            f"{len(terms)} terminals exceed the search depth the recursion limit allows"
        ) from None
    return result(optimal=True)


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
    (each edge of a minimal cover covers a private terminal).
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
                other = inst.edges[ei].other(node)
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
