"""Solver for arbitrary thresholds via the density greedy plus completion.

:func:`density_greedy` runs the paper's simple generic algorithm: while the
potential is above its target, apply the augmentation of least density
(payment per unit of potential decrease), as long as that density is at most
1.  The potential is Q plus the c-cost of the still-uncovered terminals, its
target is Q, and the payment is the total increment over the q levels.  The
augmentations are proper stars: a root with a value increment and a set of
uncovered terminal leaves.  Whatever the greedy leaves uncovered is finished
by raising, per terminal, the endpoints of its cheapest edge.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Container, Iterable, Iterator, Mapping, Optional

from .bounds import omega
from .core import Instance, complete, covered_terminals
from .errors import DomainError, OracleViolation
from .report import SolveReport, solve_report


def _best_star_at(
    inst: Instance,
    c: Mapping[str, int],
    levels: Mapping[str, int],
    covered: Container[str],
    root: str,
) -> Optional[tuple]:
    """Best star rooted at ``root`` as ``(pay, gain, index, w, leaves)``, or
    None when no star there gains anything.

    ``c``, ``levels`` and the results are scaled by ``inst.scale``.  The
    star's density is pay/gain and its key is (density, index, w).  The
    root increment w runs over zero and the root's shortfalls on its edges;
    a w that reaches no new leaf, and no cheaper one, only pays more, so it
    is skipped.  A terminal with zero c is never a leaf; an uncovered
    terminal root adds its own c to the gain.
    """
    index = inst.index

    def by_ratio(a: tuple[str, int], b: tuple[str, int]) -> int:
        # Increment per unit of c, then node order.
        return (a[1] * c[b[0]] - b[1] * c[a[0]]) or index[a[0]] - index[b[0]]

    rows = inst.scaled_rows[root]
    n_rows = len(rows)
    tot = levels[root]
    root_gain = 0 if root in covered else c.get(root, 0)
    reachable: dict[str, int] = {}
    best: Optional[tuple] = None
    i = 0
    while i < n_rows:
        w = rows[i][0] - tot
        if w < 0:
            w = 0
        top = tot + w
        grew = False
        while i < n_rows and rows[i][0] <= top:
            _, u, t_there = rows[i]
            i += 1
            if not c.get(u) or u in covered:
                continue
            need = t_there - levels[u]
            if need < reachable.get(u, need + 1):
                reachable[u] = need
                grew = True
        if not grew:
            continue
        order = reachable.items()
        if len(reachable) > 1:
            order = sorted(order, key=cmp_to_key(by_ratio))
        pay, gain = w, root_gain
        leaves: list[tuple[str, int]] = []
        for u, b in order:
            # Adding u lowers the density iff b/c_u < pay/gain.
            if leaves and b * gain >= pay * c[u]:
                break
            leaves.append((u, b))
            pay += b
            gain += c[u]
        if best is None or pay * best[1] < best[0] * gain:
            best = (pay, gain, index[root], w, tuple(leaves))
    return best


def _min_star(stars: Iterable[tuple]) -> Optional[tuple]:
    """The star of least key among per-root bests."""
    best = None
    for s in stars:
        if best is None:
            best = s
            continue
        lhs, rhs = s[0] * best[1], best[0] * s[1]
        if lhs < rhs or (lhs == rhs and s[2] < best[2]):
            best = s
    return best


def density_greedy(
    inst: Instance,
) -> Iterator[tuple[dict[str, int], set[str], Optional[tuple], dict]]:
    """Run the density greedy on the integer view, yielding before each step.

    Each yield is ``(levels, covered, star, trace)``: every node's level,
    the covered terminals, the star of least key among every root's best
    (:func:`_best_star_at`) and the trace document.  They are the loop's
    own objects, updated in place when it resumes, and the last yield is the
    final state.  The loop stops when the potential reaches Q, when no star
    is left, or when the least star gains nothing or pays more than it gains.
    A star whose applied potential drop differs from its gain raises
    OracleViolation, also under ``python -O``.

    Each root's best star is cached; after a step only the roots whose
    best star can change are recomputed: every raised node, every newly
    covered terminal u, each neighbour x of such a u whose cached star has u
    as a leaf or that is itself an uncovered terminal with c > 0.  That is
    complete:

    - a root's star reads only its own level and covered flag and, among its
      neighbours, only the uncovered terminals with c > 0, so a raised node
      that is not such a terminal after the step dirties only itself;
    - no raised node is such a terminal, as every terminal a step raises
      ends covered: a raised leaf meets its edge to the root, and an
      uncovered-terminal root forces its first leaf.  So an uncovered
      terminal stays at its q level, and no leaf's shortfall is negative;
    - for a root with no gain of its own, the leaf prefix taken at each
      increment is the least-density non-empty leaf set there, so losing a
      leaf its best star did not use raises no increment's least density
      and leaves that star, and its key (density, index, w), unchanged;
    - a root that is an uncovered terminal forces its first leaf even when
      that leaf raises the density, so losing any leaf can lower its best
      density; such a root is recomputed whenever a neighbour is covered.

    A lazy heap in the style of Minoux's accelerated greedy would be wrong
    here: a root's best density can fall after a step, since raising a root
    lowers its own increments.
    """
    c, L, Q = inst.costs.c, inst.scale, inst.costs.Q
    levels = dict.fromkeys(inst.nodes, 0)
    levels.update(inst.costs.q)
    covered = set(covered_terminals(inst, levels=levels))
    nu = Q + sum(c[u] for u in inst.terminal_list if u not in covered)
    stars = {v: s for v in inst.nodes if (s := _best_star_at(inst, c, levels, covered, v))}
    before = str(Fraction(nu, L))
    steps: list[dict] = []
    trace = {"initial_potential": before, "steps": steps}
    while True:
        star = _min_star(stars.values())
        yield levels, covered, star, trace
        if nu <= Q or star is None:
            return
        pay, gain, root, w, leaves = star
        if gain < 0:
            raise OracleViolation(f"star raises potential {before} -> {Fraction(nu - gain, L)}")
        if gain == 0 or pay > gain:
            # Density above 1 (or no gain at all): every further star pays
            # more than it saves, so the completion step finishes.
            return
        changed = []
        for node, inc in ((inst.nodes[root], w), *leaves):
            if inc:
                levels[node] += inc
                changed.append(node)
        # Only edges at a raised node can have become active.
        newly = covered_terminals(inst, levels=levels, nodes=changed) - covered
        covered |= newly
        drop = sum(c[u] for u in newly)
        after = str(Fraction(nu - gain, L))
        if drop != gain:
            raise OracleViolation(f"star predicted potential {after}, got {Fraction(nu - drop, L)}")
        nu -= gain
        steps.append({
            "step": len(steps),
            "payment": str(Fraction(pay, L)),
            "potential_before": before,
            "potential_after": after,
        })
        before = after
        dirty = set(changed) | newly
        for u in newly:
            for _, x, _ in inst.scaled_rows[u]:
                s = stars.get(x)
                if (c.get(x) and x not in covered) or (s and any(v == u for v, _ in s[4])):
                    dirty.add(x)
        for v in dirty:
            if s := _best_star_at(inst, c, levels, covered, v):
                stars[v] = s
            else:
                stars.pop(v, None)


def general_bound_candidates(inst: Instance) -> list[tuple[str, object]]:
    """Every ratio certificate the instance qualifies for, as (label, bound).

    The degree bounds rest on the spread of the greedy ratio
    1 + (tau*/opt) ln((nu0 - nu*)/tau*), where nu* = Q and tau* = opt - Q.
    Let a* be optimal and, for each terminal u, let e_u = u v(u) be an edge
    that a* activates at u.  Then:

    - c_u <= t_u(e_u) + t_v(u)(e_u) - q_u <= (a*_u - q_u) + a*_v(u);
    - summed over terminals, the first terms total at most opt - Q = tau*;
    - each node is v(u) for at most delta terminals, so the second terms
      total at most delta * opt;
    - hence nu0 - nu* <= C <= tau* + delta * opt.

    With x = tau*/opt in (0, 1] the ratio is at most 1 + x ln(1 + delta/x),
    which increases in x, so at most 1 + ln(delta + 1).  When no terminal
    neighbours another, every v(u) is a non-terminal: with A the total of a*
    over terminals, C <= (A - Q) + delta * (opt - A) <= delta * tau* since
    delta >= 1, which gives 1 + ln(delta).
    """
    costs = inst.costs
    candidates: list[tuple[str, object]] = []
    if costs.theta == 0:
        candidates.append(("value=Q (slope 0)", Fraction(1)))
    elif costs.theta != math.inf:
        try:
            candidates.append(("1+omega(theta)", 1.0 + omega(costs.theta)))
        except DomainError:
            pass  # a slope outside float range; the degree bounds remain
    if costs.delta >= 1:
        candidates.append(("1+ln(delta+1)", 1.0 + math.log(costs.delta + 1)))
        if inst.terminals_independent:
            candidates.append(("1+ln(delta)", 1.0 + math.log(costs.delta)))
    return candidates


def solve_general(inst: Instance) -> SolveReport:
    """Density-greedy solver with the slope/degree ratio certificate."""
    costs = inst.costs
    for levels, covered, _, trace in density_greedy(inst):
        pass
    label, bound = min(general_bound_candidates(inst), key=lambda it: (float(it[1]), it[0]))
    return solve_report(
        inst,
        "general",
        # The completed value is at most the greedy's payment plus its potential.
        complete(inst, covered, levels=levels),
        theta=costs.theta,
        delta=costs.delta,
        claimed_bound=bound,
        bound_label=label,
        trace=trace,
        extras={
            "Q": str(Fraction(costs.Q, inst.scale)),
            "C": str(Fraction(costs.C, inst.scale)),
            "greedy_steps": len(trace["steps"]),
        },
    )
