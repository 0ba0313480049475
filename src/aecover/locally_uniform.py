"""Average-price greedy for bipartite instances with locally uniform thresholds.

Every facility carries one weight (its own side of each incident edge) and one
service threshold (the client side).  The greedy repeatedly opens the facility
with the cheapest average price per newly covered client, taking all of its
uncovered neighbors; with uniform per-client prices a partial star is never
better.  Ties follow an optional facility priority list; the generators
bundle the list that reproduces the paper's worst-case example.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .bounds import omega_bar
from .core import Instance, max_slope
from .errors import Infeasible, NonUniformFacility, NotBipartite
from .fileio import format_slope
from .report import SolveReport, solve_report


@dataclass(frozen=True)
class UniformBipartiteInstance:
    """Validated bipartite view: clients (terminals) vs weighted facilities.

    ``weight`` and ``service`` are on the integer view: each facility's
    thresholds times ``inst.scale``, as ints.  ``adjacency`` lists each
    facility's clients and ``facilities_of`` each client's facilities, free
    of repeats, so ``delta``, the most clients at one facility, is the
    instance's degree bound."""

    inst: Instance
    clients: tuple[str, ...]
    facilities: tuple[str, ...]
    weight: Mapping[str, int]
    service: Mapping[str, int]
    adjacency: Mapping[str, tuple[str, ...]]
    facilities_of: Mapping[str, list[str]]
    theta: Union[Fraction, float]
    delta: int


def validate_locally_uniform(inst: Instance) -> UniformBipartiteInstance:
    """Check bipartiteness and per-facility threshold uniformity.

    The reported slope is the facility-based one, max weight/service, which is
    the quantity the average-price guarantee depends on.
    """
    terminals = inst.terminals
    facilities = tuple(n for n in inst.nodes if n not in terminals)
    first: dict[str, tuple[int, int]] = {}  # each facility's first (w, t)
    adjacency: dict[str, list[str]] = {v: [] for v in facilities}
    facilities_of: dict[str, list[str]] = {c: [] for c in inst.terminal_list}
    mismatch = None
    for u, v, tu, tv in inst.scaled_edges:
        if u in terminals:
            if v in terminals:
                raise NotBipartite(f"edge {u!r}-{v!r} stays on one side")
            fac, cli, wt = v, u, (tv, tu)
        elif v in terminals:
            fac, cli, wt = u, v, (tu, tv)
        else:
            raise NotBipartite(f"edge {u!r}-{v!r} stays on one side")
        if first.setdefault(fac, wt) != wt and mismatch is None:
            mismatch = fac
        adjacency[fac].append(cli)
        facilities_of[cli].append(fac)
    # Every edge is checked for bipartiteness before uniformity.
    if mismatch is not None:
        raise NonUniformFacility(mismatch)

    # The canonical edge order lists each facility's clients by node index,
    # and a uniform facility has no parallel edges left after pruning, so
    # the adjacency lists are sorted and free of repeats.
    return UniformBipartiteInstance(
        inst=inst,
        clients=inst.terminal_list,
        facilities=facilities,
        weight={v: w for v, (w, _) in first.items()},
        service={v: t for v, (_, t) in first.items()},
        adjacency={v: tuple(c) for v, c in adjacency.items()},
        facilities_of=facilities_of,
        theta=max_slope(first.values()),
        delta=max(map(len, adjacency.values()), default=0),
    )


def uniform_bound(ubi: UniformBipartiteInstance) -> tuple[str, Union[Fraction, float]]:
    if ubi.delta == 0 or ubi.theta == 0:
        return ("value=Q (free facilities)", Fraction(1))
    return ("1+omega_bar(theta)", 1 + omega_bar(ubi.theta, delta_cap=ubi.delta))


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
    strict minimum wins.  Only the winner's price and the final levels
    become ``Fraction``s.
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
    w, t = ubi.weight, ubi.service
    count = {v: len(ubi.adjacency[v]) for v in order}

    uncovered = set(ubi.clients)
    levels: dict[str, int] = {}
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
        levels[v] = w[v]
        for c in served:
            levels[c] = t[v]
            for f in ubi.facilities_of[c]:
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

    # The instance's slope max c/q, over each client's cheapest service
    # threshold q and cheapest covering edge q + c; every client has a
    # facility, or the loop above raised.
    qc = []
    for c in ubi.clients:
        fs = ubi.facilities_of[c]
        q = min([t[f] for f in fs])
        qc.append((min([w[f] + t[f] for f in fs]) - q, q))

    label, bound = uniform_bound(ubi)
    return solve_report(
        inst,
        "locally-uniform",
        levels,
        claimed_bound=bound,
        bound_label=label,
        trace={"steps": steps},
        extras={
            "tie_break": "lowest-id" if priority is None else "adversarial-order",
            "instance_slope": format_slope(max_slope(qc)),
        },
        theta=ubi.theta,
        delta=ubi.delta,
    )
