"""Instance model, derived costs, and assignment algebra.

An instance is an undirected multigraph with per-endpoint edge thresholds and
a terminal set.  An assignment of values to nodes activates every edge whose
two endpoint thresholds are met; a feasible assignment activates an edge at
every terminal.  Thresholds and assignment values are exact
``fractions.Fraction``s, so reported values and ratios are reproducible.
An instance stores its edges on the integer view, thresholds times
``Instance.scale``, the LCM of their denominators, as ints; derived costs,
the activation test and the solvers' arithmetic run on it, and ``Edge``
tuples are built only when a caller reads ``Instance.edges``.  This module
alone produces that view (:meth:`Instance.from_data` and what is built on
it) and converts it back (:meth:`Instance.assignment`).  An activation rule
reaches the model already expanded into threshold edges; the installation
rule is expanded by ``generators.from_installation``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import InvalidInstance, IsolatedTerminal

Rational = Union[int, str, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Parse a threshold or value exactly ("3/2", "0.25", 2, Fraction); a
    literal past the interpreter's limit on integer digits is refused as such."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            if "integer string conversion" in str(exc):
                raise InvalidInstance(f"threshold literal of {len(x)} characters exceeds the "
                                      f"interpreter's limit on integer digits "
                                      f"({sys.get_int_max_str_digits()})") from None
    raise InvalidInstance(f"not an exact rational: {x!r}")


class Edge(NamedTuple):
    """A uv-edge with threshold ``tu`` at ``u`` and ``tv`` at ``v``."""

    u: str
    v: str
    tu: Fraction
    tv: Fraction


@dataclass(frozen=True)
class Instance:
    """Immutable multigraph instance; build via :meth:`from_data`.

    Edges are stored in canonical form: oriented so that ``u`` precedes ``v``
    in node order, sorted by ``(u, v, tu, tv)``, with parallel edges dominated
    by another parallel edge (both thresholds >=) pruned.  Pruning never
    changes an optimum or a greedy choice.  They are held as the integer
    table ``scaled_edges``: thresholds times ``scale``, the LCM of their
    denominators, as ints.  ``thresholds`` maps each level back to its
    ``Fraction``; equality and hash read the other fields, which fix the
    edges.  :attr:`edges` builds ``Edge`` tuples on first read.
    """

    nodes: tuple[str, ...]
    terminals: frozenset[str]
    scaled_edges: tuple[tuple[str, str, int, int], ...]
    scale: int
    thresholds: Mapping[int, Fraction] = field(compare=False, repr=False)

    @classmethod
    def from_data(
        cls,
        nodes: Iterable[str],
        terminals: Iterable[str],
        edges: Iterable[tuple[str, str, Rational, Rational]],
    ) -> "Instance":
        """The instance of ``nodes``, ``terminals`` and ``(u, v, tu, tv)``
        edges; raises InvalidInstance at the first fault.  It checks that
        every node id and then every terminal id is a string, then for a
        repeated node and for a terminal that is no node, in the order the
        terminals are given, then each edge before it reads the next: both
        endpoints are nodes and differ, ``tu`` and then ``tv`` are exact
        rationals (:func:`as_fraction`), and neither is negative.  A
        threshold is parsed and sign-checked once per distinct string
        literal and once per other object, an int or a Fraction alike.  The
        scale and the threshold table cover the kept edges only, so
        :meth:`is_unit` reads them.  No ``Edge`` tuple is built."""
        node_list, term_list = list(nodes), list(terminals)
        for key, ids in (("nodes", node_list), ("terminals", term_list)):
            if not all(isinstance(x, str) for x in ids):
                raise InvalidInstance(f"{key} must be strings")
        if len(set(node_list)) != len(node_list):
            raise InvalidInstance("duplicate node ids")
        idx = {n: i for i, n in enumerate(node_list)}
        for t in term_list:
            if t not in idx:
                raise InvalidInstance(f"terminal {t!r} is not a node")
        distinct: list[Fraction] = []  # every parsed threshold, once
        held: list[Rational] = []  # each threshold as handed in, so its id stays its own
        seen: dict[Union[str, int], int] = {}  # index in distinct: a string, else an object's id

        def parse(raw: Rational) -> int:
            key = raw if type(raw) is str else id(raw)
            k = seen.get(key)
            if k is None:
                k = seen[key] = len(distinct)
                distinct.append(as_fraction(raw))
                held.append(raw)
            return k

        get, known = idx.get, seen.get
        rows = []
        for u, v, tu, tv in edges:
            iu, iv = get(u), get(v)
            if iu is None or iv is None:
                raise InvalidInstance(f"edge endpoint not a node: {u!r}-{v!r}")
            if iu == iv:
                raise InvalidInstance(f"self loop at {u!r}")
            # A known threshold passed its sign check on the edge that added
            # it; hashing a Fraction is slow, so a non-string is keyed by id.
            a = known(tu if type(tu) is str else id(tu))
            b = known(tv if type(tv) is str else id(tv))
            if a is None or b is None:
                a, b = parse(tu), parse(tv)
                if distinct[a].numerator < 0 or distinct[b].numerator < 0:
                    raise InvalidInstance(f"negative threshold on edge {u!r}-{v!r}")
            rows.append((iu, iv, a, b) if iu < iv else (iv, iu, b, a))
        L = math.lcm(1, *{x.denominator for x in distinct})
        level = [x.numerator * L // x.denominator for x in distinct]
        rows = [(iu, iv, level[a], level[b]) for iu, iv, a, b in rows]
        rows.sort()
        kept = _prune_dominated(rows)
        thresholds = dict(zip(level, distinct))
        if len(kept) < len(rows):
            # The table keeps the kept edges' thresholds only, and the scale
            # drops to their denominators' LCM, a divisor of L.
            used = {t for row in kept for t in row[2:]}
            f = L // math.lcm(1, *{thresholds[t].denominator for t in used})
            L //= f
            thresholds = {t // f: thresholds[t] for t in used}
            kept = [(iu, iv, tu // f, tv // f) for iu, iv, tu, tv in kept]
        return cls(tuple(node_list), frozenset(term_list), tuple([
            (node_list[iu], node_list[iv], tu, tv) for iu, iv, tu, tv in kept
        ]), L, thresholds)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` tuples, built on first read; the library reads the table."""
        t = self.thresholds
        return tuple([Edge(u, v, t[tu], t[tv]) for u, v, tu, tv in self.scaled_edges])

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def edges_at(self) -> Mapping[str, tuple[int, ...]]:
        at: dict[str, list[int]] = {n: [] for n in self.nodes}
        for i, (u, v, _, _) in enumerate(self.scaled_edges):
            at[u].append(i)
            at[v].append(i)
        return {n: tuple(ids) for n, ids in at.items()}

    @cached_property
    def terminal_list(self) -> tuple[str, ...]:
        return tuple(sorted(self.terminals, key=self.index.__getitem__))

    def assignment(self, levels: Mapping[str, int]) -> Assignment:
        """The values of ``levels``, the integer view that
        :func:`active_at_levels` reads: each nonzero level over
        :attr:`scale`.  Exact, since every value here is a sum of
        thresholds and so a whole number of ``1/scale``.  Levels repeat, so
        each distinct one becomes one ``Fraction``."""
        L = self.scale
        value = {x: Fraction(x, L) for x in set(levels.values()) if x}
        return Assignment({n: value[x] for n, x in levels.items() if x})

    @cached_property
    def scaled_rows(self) -> Mapping[str, tuple[tuple[int, str, int], ...]]:
        """Per node, one ``(t_here, other, t_there)`` row per incident edge,
        thresholds times :attr:`scale`, sorted by ``t_here``."""
        rows: dict[str, list[tuple[int, str, int]]] = {n: [] for n in self.nodes}
        for u, v, tu, tv in self.scaled_edges:
            rows[u].append((tu, v, tv))
            rows[v].append((tv, u, tu))
        return {n: tuple(sorted(r, key=lambda row: row[0])) for n, r in rows.items()}

    @cached_property
    def terminals_independent(self) -> bool:
        terminals = self.terminals
        return not any(u in terminals and v in terminals for u, v, _, _ in self.scaled_edges)

    @cached_property
    def costs(self) -> DerivedCosts:
        """The instance's q, c, Q, C, slope and degree bound, derived once by
        :func:`derive_costs`.  Solvers share the result and must not mutate
        it.  An isolated terminal raises IsolatedTerminal on every access."""
        return derive_costs(self)

    def is_unit(self) -> bool:
        return all(t == 1 for t in self.thresholds.values())


def _prune_dominated(sorted_rows: list[tuple]) -> list[tuple]:
    # Rows start (u, v, tu, tv), as edges and from_data's rows do.  Drop a
    # row when an earlier parallel one has both thresholds <= its own.  The
    # sort puts parallel rows together in (tu, tv) order, so every earlier
    # one has tu <= e's, and the kept ones have strictly falling tv: e is
    # dominated iff the last kept row is parallel with tv <= e's.
    kept: list[tuple] = []
    for e in sorted_rows:
        if kept:
            k = kept[-1]
            if k[0] == e[0] and k[1] == e[1] and k[3] <= e[3]:
                continue
        kept.append(e)
    return kept


@dataclass(frozen=True)
class Assignment:
    """Node values, defaulting to zero; zero entries are not stored."""

    values: Mapping[str, Fraction]


def active_at_levels(
    inst: Instance, levels: Mapping[str, int], ids: Optional[Iterable[int]] = None
) -> Iterator[int]:
    """Indices of the edges whose both endpoint thresholds ``levels`` meets:
    among ``ids`` in their order, or among all edges in index order.  The
    one activation test.

    ``levels`` holds the values on the integer view, each times
    ``L = inst.scale`` and rounded down (missing nodes count as zero).  An
    edge is met at ``u`` iff ``floor(a_u * L) >= t_u * L``, which is exact
    because ``t_u * L`` is an integer."""
    get, scaled = levels.get, inst.scaled_edges
    for i in range(len(scaled)) if ids is None else ids:
        u, v, tu, tv = scaled[i]
        if get(u, 0) >= tu and get(v, 0) >= tv:
            yield i


def covered_terminals(
    inst: Instance,
    *,
    levels: Mapping[str, int],
    nodes: Optional[Iterable[str]] = None,
) -> frozenset[str]:
    """Terminals on an edge that ``levels`` (as for :func:`active_at_levels`)
    activates; with ``nodes``, only the edges incident to those nodes are
    checked.  ``levels`` is keyword-only: a value map passed where the
    integer view belongs fails loudly instead of testing the wrong scale."""
    ids = None if nodes is None else {i for n in nodes for i in inst.edges_at[n]}
    scaled = inst.scaled_edges
    return inst.terminals & {x for i in active_at_levels(inst, levels, ids) for x in scaled[i][:2]}


@dataclass(frozen=True)
class DerivedCosts:
    """Per-terminal covering costs and instance-wide aggregates.

    ``q[u]`` is the smallest threshold at ``u`` over its incident edges;
    ``q[u] + c[u]`` is the smallest total value of an edge covering ``u``;
    ``Q`` and ``C`` are their sums.  These four are on the integer view:
    ints, the exact values times ``Instance.scale``.  ``theta`` is the slope
    ``max c/q`` as a ``Fraction`` (``math.inf`` when some terminal has
    ``q = 0 < c``); ``delta`` is the largest number of terminal neighbors of
    any node.  ``cheapest`` maps each terminal to a minimum-value edge index.
    """

    q: Mapping[str, int]
    c: Mapping[str, int]
    Q: int
    C: int
    theta: Union[Fraction, float]
    delta: int
    cheapest: Mapping[str, int]


def max_slope(pairs: Iterable[tuple[int, int]]) -> Union[Fraction, float]:
    """The largest ``num/den`` over pairs of non-negative ints, compared by
    cross-multiplication: ``math.inf`` when some pair has ``den = 0 < num``,
    0 when there is none.  A pair ``0, 0`` imposes no constraint."""
    best_num, best_den = 0, 1
    for num, den in pairs:
        if den:
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        elif num:
            return math.inf
    return Fraction(best_num, best_den)


def derive_costs(inst: Instance) -> DerivedCosts:
    """Compute q, c, Q, C, slope and degree bound; raises IsolatedTerminal.

    The work runs on thresholds times ``inst.scale``, with slopes compared by
    cross-multiplication; only the slope becomes a ``Fraction``.
    """
    scaled = inst.scaled_edges
    q: dict[str, int] = {}
    c: dict[str, int] = {}
    cheapest: dict[str, int] = {}
    Q = C = 0
    for u in inst.terminal_list:
        ids = inst.edges_at[u]
        if not ids:
            raise IsolatedTerminal(u)
        qu = best_value = best = None
        for i in ids:  # ascending, so the first minimum has the lowest index
            eu, _, tu, tv = scaled[i]
            here = tu if eu == u else tv
            if qu is None or here < qu:
                qu = here
            if best_value is None or tu + tv < best_value:
                best_value, best = tu + tv, i
        cu = best_value - qu
        q[u], c[u], cheapest[u] = qu, cu, best
        Q += qu
        C += cu

    return DerivedCosts(
        q=q,
        c=c,
        Q=Q,
        C=C,
        theta=max_slope(zip(c.values(), q.values())),
        delta=degree_bound(inst),
        cheapest=cheapest,
    )


def degree_bound(inst: Instance) -> int:
    """The largest number of terminal neighbours of any node: ``delta``."""
    # Parallel edges are adjacent in the canonical order, so counting each
    # run of one (u, v) pair once counts terminal neighbours.
    terminals = inst.terminals
    terminal_neighbors = dict.fromkeys(inst.nodes, 0)
    pu = pv = None
    for u, v, _, _ in inst.scaled_edges:
        if v == pv and u == pu:
            continue
        pu, pv = u, v
        if v in terminals:
            terminal_neighbors[u] += 1
        if u in terminals:
            terminal_neighbors[v] += 1
    return max(terminal_neighbors.values(), default=0)


def complete(
    inst: Instance, covered: Container[str], *, levels: Mapping[str, int]
) -> dict[str, int]:
    """The levels of a feasible assignment: ``levels`` (the integer view, as
    for :func:`active_at_levels`), with both endpoints of the cheapest edge
    of every terminal not in ``covered`` raised to that edge's thresholds.
    From the q levels with nothing covered it is the cheapest-edge cover, of
    value at most Q + C; :meth:`Instance.assignment` turns it into values.
    ``levels`` is keyword-only, as in :func:`covered_terminals`."""
    levels = dict(levels)
    for u in inst.terminal_list:
        if u in covered:
            continue
        eu, ev, tu, tv = inst.scaled_edges[inst.costs.cheapest[u]]
        if levels.get(eu, 0) < tu:
            levels[eu] = tu
        if levels.get(ev, 0) < tv:
            levels[ev] = tv
    return levels
