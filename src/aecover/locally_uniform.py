"""Average-price greedy for bipartite instances with locally uniform thresholds.

Every facility carries one weight (its own side of each incident edge) and one
service threshold (the client side).  The greedy repeatedly opens the facility
with the cheapest average price per newly covered client, taking all of its
uncovered neighbors; with uniform per-client prices a partial star is never
better.  Ties follow an optional facility priority list; the generators
bundle the list that reproduces the paper's worst-case example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .bounds import omega_bar
from .core import Assignment, Instance, ZERO
from .errors import Infeasible, NonUniformFacility, NotBipartite
from .fileio import format_slope
from .report import SolveReport, solve_report


@dataclass(frozen=True)
class UniformBipartiteInstance:
    """Validated bipartite view: clients (terminals) vs weighted facilities."""

    inst: Instance
    clients: tuple[str, ...]
    facilities: tuple[str, ...]
    weight: Mapping[str, Fraction]
    service: Mapping[str, Fraction]
    adjacency: Mapping[str, tuple[str, ...]]
    theta: Union[Fraction, float]


def validate_locally_uniform(inst: Instance) -> UniformBipartiteInstance:
    """Check bipartiteness and per-facility threshold uniformity.

    The reported slope is the facility-based one, max weight/service, which is
    the quantity the average-price guarantee depends on.
    """
    terminals = inst.terminals
    facilities = tuple(n for n in inst.nodes if n not in terminals)
    weight: dict[str, Fraction] = {}
    service: dict[str, Fraction] = {}
    adjacency: dict[str, list[str]] = {v: [] for v in facilities}
    mismatch = None
    for u, v, tu, tv in inst.edges:
        if u in terminals:
            if v in terminals:
                raise NotBipartite(f"edge {u!r}-{v!r} stays on one side")
            fac, cli, w, t = v, u, tv, tu
        elif v in terminals:
            fac, cli, w, t = u, v, tu, tv
        else:
            raise NotBipartite(f"edge {u!r}-{v!r} stays on one side")
        # Loaded thresholds share one object per literal: identity settles
        # most comparisons before a Fraction == has to.
        w0 = weight.setdefault(fac, w)
        t0 = service.setdefault(fac, t)
        if mismatch is None and not ((w0 is w or w0 == w) and (t0 is t or t0 == t)):
            mismatch = fac
        adjacency[fac].append(cli)
    # Every edge is checked for bipartiteness before uniformity.
    if mismatch is not None:
        raise NonUniformFacility(mismatch)

    # The canonical edge order lists each facility's clients by node index,
    # and a uniform facility has no parallel edges left after pruning, so
    # the adjacency lists are sorted and free of repeats.
    theta: Union[Fraction, float] = ZERO
    num, den = 0, 1  # the largest finite w/t so far
    for v, w in weight.items():
        t = service[v]
        if t.numerator > 0:
            wn, wd = w.numerator * t.denominator, w.denominator * t.numerator
            if wn * den > num * wd:
                num, den = wn, wd
        elif w.numerator > 0:
            theta = math.inf
    if theta != math.inf:
        theta = Fraction(num, den)
    return UniformBipartiteInstance(
        inst=inst,
        clients=inst.terminal_list,
        facilities=facilities,
        weight=weight,
        service=service,
        adjacency={v: tuple(c) for v, c in adjacency.items()},
        theta=theta,
    )


def uniform_bound(ubi: UniformBipartiteInstance) -> tuple[str, Union[Fraction, float]]:
    # The instance is bipartite, so this is the most clients at one facility.
    delta = ubi.inst.costs.delta
    if delta == 0 or ubi.theta == 0:
        return ("value=Q (free facilities)", Fraction(1))
    return ("1+omega_bar(theta)", 1 + omega_bar(ubi.theta, delta_cap=delta))


def solve_locally_uniform(
    ubi: UniformBipartiteInstance, priority: Optional[Sequence[str]] = None
) -> SolveReport:
    """Greedy by average price w/k + t over facilities with uncovered clients.

    Among equal prices the facility earliest in ``priority`` wins, ranked at
    its first occurrence there; facilities not in it come after those that
    are, and any remaining tie goes to the lowest node index.  Without a list
    that is plain node order.

    Each facility keeps its count k of uncovered clients, lowered through a
    client-to-facility index as clients are served.  With w and t times
    ``inst.scale``, the scaled price is (w + t*k)/k, compared by
    cross-multiplication; facilities are scanned in tie order, so the first
    strict minimum wins.  Only the winner's price becomes a ``Fraction``.
    """
    inst = ubi.inst
    # dict.fromkeys keeps each facility's first occurrence only.
    rank = {v: i for i, v in enumerate(dict.fromkeys(priority or ()))}
    offset = len(rank)
    L = inst.scale
    order = sorted(
        (v for v in ubi.facilities if ubi.adjacency[v]),
        key=lambda v: (rank.get(v, offset), inst.index[v]),
    )
    w = {v: inst.scaled(ubi.weight[v]) for v in order}
    t = {v: inst.scaled(ubi.service[v]) for v in order}
    count = {v: len(ubi.adjacency[v]) for v in order}
    facilities_of: dict[str, list[str]] = {}
    for v in order:
        for c in ubi.adjacency[v]:
            facilities_of.setdefault(c, []).append(v)

    uncovered = set(ubi.clients)
    values: dict[str, Fraction] = {}
    steps: list[dict] = []
    while uncovered:
        best = None
        for v in order:
            k = count[v]
            if k == 0:
                continue
            num = w[v] + t[v] * k
            # num/k < best_num/best_k, so ties keep the earlier facility.
            if best is None or num * best_k < best_num * k:
                best, best_num, best_k = v, num, k
        if best is None:
            stuck = sorted(uncovered, key=inst.index.__getitem__)
            raise Infeasible(f"clients without an open facility: {stuck}")
        v = best
        served = tuple(c for c in ubi.adjacency[v] if c in uncovered)
        values[v] = ubi.weight[v]
        for c in served:
            values[c] = ubi.service[v]
            for f in facilities_of[c]:
                count[f] -= 1
        uncovered.difference_update(served)
        steps.append(
            {
                "facility": v,
                "clients": list(served),
                "k": best_k,
                "price": str(Fraction(best_num, best_k * L)),
            }
        )

    label, bound = uniform_bound(ubi)
    return solve_report(
        inst,
        "locally-uniform",
        Assignment.of(values),
        claimed_bound=bound,
        bound_label=label,
        trace={"steps": steps},
        extras={
            "tie_break": "lowest-id" if priority is None else "adversarial-order",
            "instance_slope": format_slope(inst.costs.theta),
        },
        theta=ubi.theta,
    )
