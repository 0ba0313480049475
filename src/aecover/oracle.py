"""Exact optimum for small instances, by branch and bound over per-terminal
covering-edge choices on the integer view.

Any minimal feasible assignment is the pointwise threshold maximum of one
covering edge chosen per terminal, so searching edge choices is complete.
The search is the ground truth behind every empirical ratio certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Assignment, Instance, active_at_levels, complete
from .errors import BudgetExceeded, DomainError, LimitExceeded

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
    max_expanded: Optional[int] = None,
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
    and BudgetExceeded (carrying the non-optimal incumbent, which reports
    ``nodes_expanded == max_expanded``) rather than expand one node more.
    A budget other than None or a non-negative int raises DomainError.
    """
    if max_expanded is not None and (type(max_expanded) is not int or max_expanded < 0):
        raise DomainError(f"node budget {max_expanded!r} is not a non-negative integer")
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

    def result(optimal: bool) -> ExactResult:
        return ExactResult(
            Fraction(best, inst.scale), inst.assignment(best_levels), expanded, optimal
        )

    def search(i: int, total: int) -> None:
        nonlocal best, best_levels, expanded
        if expanded == max_expanded:
            raise BudgetExceeded(result(optimal=False))
        expanded += 1
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
